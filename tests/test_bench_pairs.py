"""The pure summary and order logic of scripts/bench_pairs.py."""
from __future__ import annotations

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_pairs_alternate_which_side_runs_first():
    orders = [bench_pairs.pair_order(i) for i in range(4)]
    assert orders == [("parent", "change"), ("change", "parent")] * 2


def test_quartiles_interpolate_between_order_statistics():
    # BENCH_13's simulate-fit parent op_ref runs and their recorded quartiles
    runs = [50.81408277297071, 51.387964664904466, 47.58455170217722]
    got = bench_pairs.quartiles(runs)
    assert got["runs"] == runs
    assert got["median"] == runs[0]
    assert got["q1"] == pytest.approx(49.199317237573965, rel=1e-15)
    assert got["q3"] == pytest.approx(51.10102371893758, rel=1e-15)
    assert bench_pairs.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}


def test_summary_counts_the_pairs_the_change_wins():
    s = bench_pairs.summarize([10.0, 12.0, 11.0, 9.0], [8.0, 12.5, 10.0, 9.0])
    assert s["change_better_in_pairs"] == 2  # a tie is not a win
    assert s["median_ratio_change_over_parent"] == pytest.approx(9.5 / 10.5)
    assert s["parent_iqr"] == pytest.approx(11.25 - 9.75)


def workloads(parent, change):
    return {"w": {"pairs": len(parent),
                  **{m: bench_pairs.summarize(parent, change) for m in bench_pairs.METRICS}}}


@pytest.mark.parametrize(
    "change, met",
    [
        ([40.0, 41.0, 39.0], True),
        ([40.0, 51.0, 39.0], False),  # loses one pair
        ([46.0, 45.0, 45.5], False),  # 1.1x, short of the ratio
    ],
)
def test_claim_needs_the_ratio_every_pair_and_a_gap_beyond_the_parent_iqr(change, met):
    got, text = bench_pairs.claim_verdict("w:op_ref:1.15", workloads([50.0, 51.0, 49.0], change))
    assert got is met
    assert text.startswith("op_ref on w falls by at least 1.15x against the parent: "
                           + ("met" if met else "not met"))


def test_claim_fails_when_medians_lie_within_the_parent_iqr():
    spread = workloads([10.0, 30.0, 50.0, 70.0], [8.0, 25.0, 20.0, 60.0])
    assert bench_pairs.claim_verdict("w:op_ref:1.15", spread)[0] is False


def test_regressions_beyond_the_parent_iqr_are_named():
    assert bench_pairs.worse_beyond_spread(workloads([5.0, 5.1, 4.9], [5.05, 5.0, 5.1])) == []
    found = bench_pairs.worse_beyond_spread(workloads([5.0, 5.1, 4.9], [5.5, 5.6, 5.4]))
    assert [line.split(":")[0] for line in found] == [
        f"{m} on w" for m in bench_pairs.METRICS
    ]


def test_regressions_beyond_a_metrics_bound_are_named():
    # setup_s on perfbench's 50 ms grid: a wide parent IQR hides a step
    # that crosses a metric's bound, which alone refuses a change
    bounds = {"op_ref": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
    parent = [0.2135, 0.2135, 0.3135, 0.3135]
    for change, named in (([0.3162] * 4, ["peak_rss_mb"]), ([0.3585] * 4, list(bench_pairs.METRICS))):
        assert bench_pairs.worse_beyond_spread(workloads(parent, change)) == []
        found = bench_pairs.worse_beyond_bound(workloads(parent, change), bounds)
        assert [line.split(" on ")[0] for line in found] == named
    assert found[1] == "setup_s on w: 0.2635 -> 0.3585 (+36.1%, bound 0.25)"
    assert bench_pairs.worse_beyond_bound(workloads(parent, [0.2135] * 4), bounds) == []


def test_run_output_is_the_first_and_last_json_lines():
    info, result = {"workload": "linear"}, {"correct": True, "metrics": {}}
    stdout = "\n".join([json.dumps(info), "op_ref   1.2 ref-loops", json.dumps(result), ""])
    assert bench_pairs.parse_run_output(stdout) == (info, result)


def test_several_seeds_keep_a_summary_and_claim_per_seed():
    bounds = {"op_ref": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
    head = {"command": "python3 perfbench/run.py", "host": "h", "parent": "p", "order": "o"}
    win = bench_pairs.seed_summary(workloads([50.0, 51.0, 49.0], [40.0, 41.0, 39.0]),
                                   "w:op_ref:1.15", bounds)
    short = bench_pairs.seed_summary(workloads([50.0, 51.0, 49.0], [46.0, 45.0, 45.5]),
                                     "w:op_ref:1.15", bounds)
    # one seed: the single-seed file, keys in the order earlier files have them
    one = bench_pairs.document(head, {17: win}, {"change": {}})
    assert list(one) == ["command", "seed", "host", "parent", "order", "claim", "not_met",
                         "workloads", "env"]
    assert one["seed"] == 17 and one["claim"] == win["claim"]
    two = bench_pairs.document(head, {17: win, 29: short}, {"change": {}})
    assert list(two) == ["command", "seeds", "host", "parent", "order", "claim", "not_met",
                         "by_seed", "env"]
    assert two["seeds"] == [17, 29] and two["by_seed"] == {"17": win, "29": short}
    verdict = "op_ref on w falls by at least 1.15x against the parent: "
    assert win["claim"].startswith(verdict + "met") and short["claim"].startswith(verdict + "not met")
    assert two["claim"] == f"seed 17: {win['claim']}; seed 29: {short['claim']}"
    assert two["not_met"].startswith("seed 17: none") and "; seed 29: none" in two["not_met"]
    no_claim = bench_pairs.seed_summary(win["workloads"], None, bounds)
    assert bench_pairs.document(head, {17: no_claim, 29: no_claim}, {})["claim"] is None
    assert bench_pairs.parse_args(["--out", "x.json"]).seed == [17]
    assert bench_pairs.parse_args(["--out", "x.json", "--seed", "17", "29"]).seed == [17, 29]


def test_import_times_interleave_blocking_runs_with_no_timeout():
    calls, ticks = [], iter(range(1000))

    def run(argv, **kwargs):
        calls.append((argv[1:], kwargs))

    sides = {"parent": Path("/p"), "change": Path("/c")}
    got = bench_pairs.import_times(sides, runs=4, run=run, clock=lambda: next(ticks) ** 2)
    # one untimed warm-up a side, then the sides alternate as the pairs do
    order = "/c /p /p /c /c /p /p /c /c /p".split()
    assert [kw["cwd"] for _, kw in calls] == list(map(Path, order))
    assert all(argv == ["-c", "import natfx.cli"] for argv, _ in calls)
    assert all("timeout" not in kw and kw["check"] for _, kw in calls)
    assert calls[0][1]["env"]["PYTHONPATH"] == "/c/src"
    # the clock reads t**2 at its t-th call; the warm-ups read it once each
    assert got["parent"]["runs"] == [5, 17, 21, 33] and got["change"]["runs"] == [9, 13, 25, 29]
    assert got["parent"]["median"] == statistics.median([5, 17, 21, 33]) == 19
    assert got["parent"]["iqr"] == pytest.approx(got["parent"]["q3"] - got["parent"]["q1"])


def test_source_lines_count_newlines_as_wc_does(tmp_path):
    package = tmp_path / "src" / "natfx"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts none
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("nor\nthis\n")
    wc = subprocess.run(["wc", "-l", "a.py", "b.py"], cwd=package, capture_output=True,
                        text=True, check=True).stdout
    assert bench_pairs.source_lines(tmp_path) == int(wc.split()[-2]) == 3
