"""natfx benchmark: one closed-loop client driving ``natfx.cli.main`` in-process.

    python3 perfbench/run.py --workload plugin-seq2 --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory.  Inputs are generated from ``--seed`` into a scratch directory
inside the checkout before timing.  One client runs one op at a time, the
next op starting when the previous returns; the first op is a warm-up and is
not timed.  Every op's output is checked (see workloads.py) and compared
byte for byte with the warm-up's.

``--trace 0`` reports the end-to-end metrics: ``op_ref`` (median wall time
per op in units of a fixed reference loop timed around each of its commands),
``setup_s`` (median wall time of a fresh interpreter importing ``natfx.cli``)
and ``peak_rss_mb``.  The plain median wall seconds per op is printed too,
as ``op_wall_s`` on the info line.  ``--trace 1`` alternates untraced and
traced ops and reports the per-layer metrics of tracer.py, per op, as
medians over the traced ops.  The last line of stdout is the result JSON;
the lines before it print every metric with its unit and an environment
stamp.  The exit code is 1 when any op failed its checks, 2 on a usage or
set-up error.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# One client runs on one core: BLAS is held to a single thread (before numpy
# is first imported), so a run does not compete with itself for the host's
# few cores.  The environment stamp reports the thread count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

END_TO_END_UNITS = {"op_ref": "ref-loops", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = {"full": 3, "tiny": 1}
# The reference loop: about 15 ms of pure-Python work on a 2020s x86 core,
# timed three times in a row at each point; the fastest of the three is
# kept, which drops the odd interrupted loop.
REFERENCE_ITERATIONS = 150_000
REFERENCE_REPEATS = 3
MIN_TIMED_OPS = 5
SETUP_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package sources, bad workload)."""


def _import_natfx():
    if not (SRC / "natfx" / "__init__.py").is_file():
        raise SetupError(f"no package sources at {SRC / 'natfx'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import natfx.cli

    if Path(natfx.__file__).resolve().parent != (SRC / "natfx").resolve():
        raise SetupError(f"imported natfx from {natfx.__file__}, not from {SRC}")
    return natfx.cli


# ---------------------------------------------------------------------------
# environment stamp


def _blas_info() -> list[dict]:
    """OpenBLAS builds bundled with numpy and scipy, with their thread counts."""
    import ctypes

    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
                    break
            found.append(entry)
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_revision() -> dict:
    """Git commit when the checkout is a repository, else a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "natfx").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        **_source_revision(),
    }


# ---------------------------------------------------------------------------
# measurement


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop, the fastest of a few.

    The host's speed drifts by up to 1.8x over minutes on shared machines
    (other tenants on the same cores).  The loop is timed around every
    command of an op and slows with the host, so a command's wall time over
    the loop's cancels most of that drift while still moving with any change
    to the command itself.
    """
    samples = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
        if total != 299_999:  # the loop's result, so it cannot be skipped
            raise RuntimeError(f"reference loop computed {total}")
    return min(samples)


def measure_setup(repeats: int) -> float:
    """Median wall seconds of a fresh interpreter importing natfx.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats + 1):  # the first run warms the file cache; dropped
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import natfx.cli"], cwd=ROOT, env=env,
                       check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


class Client:
    """Runs ops of one workload and checks each against the first op's output."""

    def __init__(self, cli, inputs):
        self.cli = cli
        self.inputs = inputs
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, between=None) -> tuple[list[float], float]:
        """Run one op; returns the wall seconds of each command and the
        process CPU seconds of the op.  `between()` runs after every command
        but the last, outside the commands' timed intervals."""
        outs, codes, walls = [], [], []
        err = io.StringIO()
        cpu = time.process_time()
        for i, argv in enumerate(self.inputs.commands):
            if i and between is not None:
                between()
            start = time.perf_counter()
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    # looked up per call so a traced cli.main is the one run
                    codes.append(self.cli.main(argv))
                except Exception:  # a crash is a failed op, not a failed run
                    traceback.print_exc()
                    codes.append(None)
            walls.append(time.perf_counter() - start)
            outs.append(out.getvalue())
        cpu = time.process_time() - cpu
        self._check(outs, codes, err.getvalue())
        return walls, cpu

    def _check(self, outs: list[str], codes: list[int], err: str) -> None:
        self.attempted += 1
        problems = [f"exit code {c} from {argv[0]}: {err.strip()[-300:]}"
                    for c, argv in zip(codes, self.inputs.commands) if c != 0]
        if not problems:
            problems = self.inputs.check_outputs(outs)
        transcript = hashlib.sha256("\0".join(outs).encode())
        for path in self.inputs.files:
            with open(path, "rb") as fh:
                transcript.update(fh.read())
        fingerprint = transcript.hexdigest()
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            problems.append("output differs from the first op with the same seed")
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems)


def run_untraced(client: Client, seconds: float) -> dict:
    """Runs the reference loop before and after every command of every op.
    An op's cost is the sum over its commands of the command's wall time
    over the mean of the loops just before and just after it."""
    client.op()  # warm-up
    refs = [reference_loop()]
    ratios, walls = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_TIMED_OPS:
        first = len(refs) - 1
        commands = client.op(between=lambda: refs.append(reference_loop()))[0]
        refs.append(reference_loop())
        around = refs[first:]
        ratios.append(sum(w / ((a + b) / 2) for w, a, b in zip(commands, around, around[1:])))
        walls.append(sum(commands))
    return {"op_ref": statistics.median(ratios), "op_wall_s": statistics.median(walls),
            "ref_s": statistics.median(refs), "timed_ops": len(walls)}


def run_traced(client: Client, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    client.op()  # warm-up
    plain_walls, plain_cpu, traced_walls, per_op = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced_walls) < MIN_TIMED_OPS // 2 + 1:
        walls, cpu = client.op()
        plain_walls.append(sum(walls))
        plain_cpu.append(cpu)
        tracer.reset()
        with tracer:
            traced_walls.append(sum(client.op()[0]))
        per_op.append(tracer.op_metrics())
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["proc.wall_s"] = statistics.median(plain_walls)
    metrics["proc.cpu_s"] = statistics.median(plain_cpu)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    return {"metrics": metrics, "timed_ops": len(traced_walls)}


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the self-test")
    return p.parse_args(argv)


def bench(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run one benchmark; returns the result document and the op problems."""
    cli = _import_natfx()
    from tracer import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    size = getattr(workload, args.size)
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
    try:
        client = Client(cli, workload.build(tmp, args.seed, size))
        if args.trace:
            run = run_traced(client, args.seconds)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in run["metrics"].items()}
        else:
            run = run_untraced(client, args.seconds)
            values = {
                "op_ref": run["op_ref"],
                "setup_s": measure_setup(SETUP_REPEATS[args.size]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    info = {"workload": workload.name, "why": workload.why, "seed": args.seed,
            "size": args.size, "closed_loop_clients": 1, "timed_ops": run["timed_ops"],
            "env": environment()}
    if not args.trace:
        info.update(op_wall_s=run["op_wall_s"], reference_loop_s=run["ref_s"])
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    return {"info": info, "result": result}, client.problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        doc, problems = bench(args)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = doc["result"]
    print(json.dumps(doc["info"]))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_failed_frac':40s} {result['failed'] / result['attempted']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
