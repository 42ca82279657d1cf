"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --seeds 201-210 [--workloads a,b] [--out set.json]

Runs ``run.py --trace 0`` once per seed and workload (workloads interleaved,
one run at a time) for ``run_seconds`` from BENCHMARK.json.  For every
workload and end-to-end metric it prints the median of the runs and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median, next to the metric's
bound.  ``--out`` writes the same table as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, required=True, help="a range such as 201-210")
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
    table = {}
    for workload in workloads:
        for metric in BENCHMARK["end_to_end"]:
            runs = values[workload][metric["name"]]
            median = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4)
            table.setdefault(workload, {})[metric["name"]] = {
                "runs": len(runs), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median,
            }
            print(f"{workload:16s} {metric['name']:12s} median {median:10.5g} "
                  f"spread {(q3 - q1) / median:6.3f} bound {metric['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
