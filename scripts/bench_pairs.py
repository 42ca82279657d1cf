"""Alternating parent/change pairs of perfbench runs, summarised to one JSON file.

    python scripts/bench_pairs.py --parent HEAD --out BENCH_14.json \\
        --pairs 3 --seconds 25 --seed 17 29 --claim simulate-fit:op_ref:1.15

The parent revision (by `git archive`) and the working tree's src/ and
perfbench/ are copied side by side into a temporary directory outside the
checkout, and both copies are byte-compiled with ``python -m compileall -q
src perfbench``: where PYTHONDONTWRITEBYTECODE is set, a copy would otherwise
compile its sources on every start, or read stale bytecode, and that skews
``setup_s``.  For each workload, pair i runs ``perfbench/run.py`` on the
parent first when i is even and on the change first when i is odd.

Every end-to-end metric is lower-better.  The output records, per workload
and metric, each side's runs, median and quartiles, the pairs the change
won, the ratio of medians and the parent's interquartile range.  ``--claim
WORKLOAD:METRIC:RATIO`` is met when the parent's median over the change's
is at least RATIO, the change wins every pair, and the medians lie further
apart than the parent's interquartile range.  ``not_met`` names each metric
whose change median is worse than the parent's by more than that range, and
each whose change median is above the parent's by more than the metric's
``bound`` in BENCHMARK.json, a fraction of the parent's median.

Before the pairs, ``import_s`` times 15 fresh ``python -c "import natfx.cli"``
runs a side, interleaved, each a blocking ``subprocess.run`` with no timeout
(perfbench's ``setup_s`` polls its child on a 50 ms grid).  The file records
each side's median and IQR as information; no verdict reads them.  So is
``src_lines``, each side's line count of ``src/natfx/*.py`` as ``wc -l``
counts it.

With several ``--seed`` values every seed runs its own pairs, and the file
holds each seed's summaries, claim verdict and ``not_met`` under
``by_seed``; its top-level ``claim`` and ``not_met`` join the seeds'.  With
one seed the file keeps the single-seed shape: ``seed``, ``claim``,
``not_met`` and ``workloads`` at the top level.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_ref", "setup_s", "peak_rss_mb")  # BENCHMARK.json's end-to-end metrics
SIDES = ("parent", "change")
IMPORT_RUNS = 15


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair `i` in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(runs: list[float]) -> dict:
    """Median and quartiles by linear interpolation between order statistics
    (numpy's default percentile), with the runs in the order they ran."""
    if len(runs) == 1:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0], "runs": list(runs)}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}


def summarize(parent: list[float], change: list[float]) -> dict:
    """One lower-better metric over paired runs: ``parent[i]`` and
    ``change[i]`` come from pair i."""
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_better_in_pairs": sum(b < a for a, b in zip(parent, change)),
        "median_ratio_change_over_parent": c["median"] / p["median"],
        "parent_iqr": p["q3"] - p["q1"],
    }


def claim_verdict(claim: str, workloads: dict) -> tuple[bool, str]:
    """Whether ``WORKLOAD:METRIC:RATIO`` holds on the summaries, and why."""
    workload, metric, ratio = claim.split(":")
    s = workloads[workload][metric]
    parent, change = s["parent"]["median"], s["change"]["median"]
    pairs = workloads[workload]["pairs"]
    gap = parent - change
    met = (parent / change >= float(ratio) and s["change_better_in_pairs"] == pairs
           and gap > s["parent_iqr"])
    return met, (
        f"{metric} on {workload} falls by at least {ratio}x against the parent: "
        f"{'met' if met else 'not met'}, {parent:.4g} -> {change:.4g} "
        f"({parent / change:.3g}x), the change lower in {s['change_better_in_pairs']} "
        f"of {pairs} pairs, medians {gap:.3g} apart against a parent IQR of "
        f"{s['parent_iqr']:.3g}"
    )


def worse_beyond_spread(workloads: dict) -> list[str]:
    """Each metric whose change median exceeds the parent's by more than the
    parent's interquartile range."""
    found = []
    for name, w in workloads.items():
        for metric in METRICS:
            s = w[metric]
            parent, change = s["parent"]["median"], s["change"]["median"]
            if change - parent > s["parent_iqr"]:
                found.append(f"{metric} on {name}: {parent:.4g} -> {change:.4g} "
                             f"({(change / parent - 1) * 100:+.1f}%, parent IQR "
                             f"{s['parent_iqr']:.3g})")
    return found


def worse_beyond_bound(workloads: dict, bounds: dict[str, float]) -> list[str]:
    """Each metric whose change median exceeds the parent's by more than
    ``bounds[metric]`` times the parent's median."""
    found = []
    for name, w in workloads.items():
        for metric in METRICS:
            parent, change = (w[metric][side]["median"] for side in SIDES)
            if change - parent > bounds[metric] * parent:
                found.append(f"{metric} on {name}: {parent:.4g} -> {change:.4g} "
                             f"({(change / parent - 1) * 100:+.1f}%, bound {bounds[metric]:g})")
    return found


def parse_run_output(stdout: str) -> tuple[dict, dict]:
    """perfbench/run.py's info line (the first) and result line (the last)."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def host_line(env: dict) -> str:
    threads = sorted({b.get("threads") for b in env.get("blas", []) if "threads" in b})
    return (f"{env['nproc']}-vCPU host, {env['cpu_model']}, BLAS threads {threads}, "
            f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")


def copy_sides(parent: str, tmp: Path) -> dict[str, Path]:
    """The parent revision and the working tree, each as src/ and perfbench/
    under `tmp`, byte-compiled."""
    sides = {side: tmp / side for side in SIDES}
    sides["parent"].mkdir()
    archive = subprocess.run(["git", "archive", parent, "src", "perfbench"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench_tmp")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, sides["change"] / part, ignore=ignore)
    for path in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=path, check=True)
    return sides


def import_times(sides: dict[str, Path], runs: int = IMPORT_RUNS, run=subprocess.run,
                 clock=time.perf_counter) -> dict:
    """Wall seconds of fresh ``import natfx.cli`` interpreters, `runs` a side
    in the order `pair_order` gives, after one untimed run a side that warms
    the file cache: each side's quartiles and IQR."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(-1, runs):
        for side in pair_order(i):
            env = dict(os.environ, PYTHONPATH=str(sides[side] / "src"))
            start = clock()
            run([sys.executable, "-c", "import natfx.cli"], cwd=sides[side], env=env, check=True)
            if i >= 0:
                times[side].append(clock() - start)
    return {side: {**(q := quartiles(t)), "iqr": q["q3"] - q["q1"]} for side, t in times.items()}


def source_lines(root: Path) -> int:
    """The newlines in ``src/natfx/*.py`` under `root`: the total ``wc -l`` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "natfx").glob("*.py"))


def run_side(path: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=path, capture_output=True, text=True,
                          timeout=seconds * 6 + 300)
    if done.returncode not in (0, 1):  # 1: some op failed its checks, still recorded
        raise RuntimeError(f"{path.name} {workload}: exit {done.returncode}\n{done.stderr}")
    return parse_run_output(done.stdout)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    p.add_argument("--out", required=True, help="JSON path to write, e.g. BENCH_14.json")
    p.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--seed", type=int, nargs="+", default=[17],
                   help="one or more seeds; each runs its own pairs")
    p.add_argument("--claim", help="WORKLOAD:METRIC:RATIO, e.g. simulate-fit:op_ref:1.15")
    return p.parse_args(argv)


def seed_summary(workloads: dict, claim: str | None, bounds: dict[str, float]) -> dict:
    """One seed's claim verdict, regressions and workload summaries."""
    worse = worse_beyond_spread(workloads) + worse_beyond_bound(workloads, bounds)
    return {
        "claim": claim_verdict(claim, workloads)[1] if claim else None,
        "not_met": "; ".join(worse) if worse else "none: no end-to-end metric's change "
                   "median is above the parent's by more than the parent's IQR or its bound",
        "workloads": workloads,
    }


def document(head: dict, by_seed: dict[int, dict], env: dict) -> dict:
    """The output file: `head` (command, host, parent, order), then one seed's
    summary at the top level, or each seed's under ``by_seed``."""
    if len(by_seed) == 1:
        (seed, summary), = by_seed.items()
        return {"command": head["command"], "seed": seed, **head, **summary, "env": env}
    claims = [f"seed {seed}: {s['claim']}" for seed, s in by_seed.items() if s["claim"]]
    not_met = "; ".join(f"seed {seed}: {s['not_met']}" for seed, s in by_seed.items())
    return {"command": head["command"], "seeds": list(by_seed), **head,
            "claim": "; ".join(claims) or None, "not_met": not_met,
            "by_seed": {str(seed): s for seed, s in by_seed.items()}, "env": env}


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    if not args.workloads:
        args.workloads = [w["name"] for w in benchmark["workloads"]]
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    env: dict = {}
    by_seed: dict[int, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = copy_sides(commit, Path(tmp))
        lines = {side: source_lines(path) for side, path in sides.items()}
        imports = import_times(sides)
        for seed in args.seed:
            workloads: dict = {}
            for workload in args.workloads:
                values = {side: {m: [] for m in METRICS} for side in SIDES}
                ops = {side: [] for side in SIDES}
                for i in range(args.pairs):
                    for side in pair_order(i):
                        info, result = run_side(sides[side], workload, seed, args.seconds)
                        env.setdefault(side, info["env"])
                        for m in METRICS:
                            values[side][m].append(result["metrics"][m]["value"])
                        ops[side].append(f"{result['failed']} failed of {result['attempted']}")
                        print(f"seed {seed} {workload} pair {i} {side}: "
                              f"op_ref {values[side]['op_ref'][-1]:.4g}", file=sys.stderr)
                workloads[workload] = {"pairs": args.pairs, **{
                    m: summarize(values["parent"][m], values["change"][m]) for m in METRICS
                }, "ops": ops}
            by_seed[seed] = seed_summary(workloads, args.claim, bounds)
    seed_text = str(args.seed[0]) if len(args.seed) == 1 else "S"
    head = {
        "command": f"python3 perfbench/run.py --workload W --seed {seed_text} "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": host_line(env["change"]),
        "parent": commit,
        "order": "pair i runs the parent first when i is even, the change first when i "
                 "is odd; each side runs from its own copy of src/ and perfbench/, both "
                 "byte-compiled with `python -m compileall -q src perfbench` before timing",
        "import_s": imports,
        "src_lines": lines,
    }
    doc = document(head, by_seed, env)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(doc["claim"] or "no claim")
    print(doc["not_met"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
