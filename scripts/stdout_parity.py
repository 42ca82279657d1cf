"""Byte parity of every benchmark workload command between two source trees.

    python scripts/stdout_parity.py --parent HEAD --seed 1 13 17 29
    python scripts/stdout_parity.py --trees OLD NEW --size tiny --seed 1

For each ``--seed``, each workload's inputs (CSV, roles and model files) are
built once, by ``perfbench/workloads.py``, which this script reads and never
changes.  Every command of one op then runs under each side's ``src``, each
command in a fresh ``python -m natfx.cli`` interpreter with one BLAS thread,
first on one side and then on the other.  A file the op writes (simulate's
``--out``) is removed before each side's op, and its bytes are recorded
against the command that wrote it.

The sides are the parent revision, taken by ``git archive`` as in
``bench_pairs.py``, and the working tree; or, with ``--trees``, two
directories that each hold a ``src/natfx`` package.  The script prints
every command whose exit code, stdout or written files differ, then a
summary line that also counts the commands exiting non-zero on either side
(identical failures are no evidence), and exits 1 on any difference.
Stderr is not compared.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class Outcome(NamedTuple):
    """What one command did: its exit code, its stdout and the bytes of
    each file it wrote, by path."""

    code: int
    stdout: bytes
    written: dict[str, bytes]


def workloads():
    """perfbench's workload table, its inputs built with the working tree's package."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads as table

    return table.WORKLOADS


def run_op(src: Path, commands: list[list[str]], files: list[str], cwd: str) -> list[Outcome]:
    """Each command of one op, in order, under the package at `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    for path in files:
        Path(path).unlink(missing_ok=True)
    outcomes = []
    for argv in commands:
        before = {path: digest(path) for path in files}
        done = subprocess.run([sys.executable, "-m", "natfx.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=600)
        written = {path: Path(path).read_bytes() for path in files if digest(path) != before[path]}
        outcomes.append(Outcome(done.returncode, done.stdout, written))
    return outcomes


def digest(path: str) -> str | None:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if os.path.exists(path) else None


def differences(a: Outcome, b: Outcome) -> list[str]:
    """What differs between one command's outcomes on the two sides."""
    found = []
    if a.code != b.code:
        found.append(f"exit code {a.code} != {b.code}")
    if a.stdout != b.stdout:
        found.append(f"stdout differs ({len(a.stdout)} and {len(b.stdout)} bytes)")
    for path in sorted(set(a.written) | set(b.written)):
        if a.written.get(path) != b.written.get(path):
            found.append(f"written file {Path(path).name} differs")
    return found


def compare(trees: dict[str, Path], seeds: list[int], names: list[str], size: str) -> tuple[list[str], int, int]:
    """Every differing command as a line, the number of commands compared, and
    how many of them exited non-zero on either side."""
    table = workloads()
    report, compared, failed = [], 0, 0
    for seed in seeds:
        for name in names:
            workload = table[name]
            with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
                inputs = workload.build(tmp, seed, getattr(workload, size))
                runs = [run_op(trees[side] / "src", inputs.commands, inputs.files, tmp) for side in SIDES]
            for i, (argv, a, b) in enumerate(zip(inputs.commands, *runs)):
                compared, failed = compared + 1, failed + bool(a.code or b.code)
                for what in differences(a, b):
                    report.append(f"seed {seed} {name} command {i} ({argv[0]}): {what}")
    return report, compared, failed


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sides = p.add_mutually_exclusive_group()
    sides.add_argument("--parent", default="HEAD", help="git revision compared with the working tree")
    sides.add_argument("--trees", nargs=2, metavar=("PARENT", "CHANGE"), type=Path,
                       help="two directories, each holding src/natfx, compared instead")
    p.add_argument("--seed", type=int, nargs="+", default=[1, 13, 17, 29])
    p.add_argument("--workloads", nargs="+", help="default: every workload in perfbench")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = args.workloads or list(workloads())
    with tempfile.TemporaryDirectory(prefix="parity-trees-") as tmp:
        if args.trees:
            trees = dict(zip(SIDES, args.trees))
        else:
            trees = {"parent": Path(tmp), "change": ROOT}
            archive = subprocess.run(["git", "archive", args.parent, "src"], cwd=ROOT, check=True,
                                     capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        report, compared, failed = compare(trees, args.seed, names, args.size)
    for line in report:
        print(line)
    verdict = f"{len(report)} difference(s)" if report else "exit codes, stdout and files identical"
    print(f"{compared} commands compared over seeds {args.seed}, {failed} exiting non-zero: {verdict}")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
