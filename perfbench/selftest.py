"""Self-test of the benchmark at tiny input sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a perturbed report or a crash counts as a failed op, that each command
is divided by the reference loops around it, that the trace refuses a
missing target, and that dropped bootstrap replicates are counted.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import unittest

import numpy as np

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
run._import_natfx()

import natfx.cli  # noqa: E402
import natfx.infer  # noqa: E402
import natfx.scm  # noqa: E402
from natfx.decomp import Query  # noqa: E402
from natfx.estimate import plugin_seq2  # noqa: E402
from natfx.infer import BootstrapConfig  # noqa: E402
from natfx.scm import Dataset, Scenario  # noqa: E402

from tracer import PER_LAYER_UNITS, Tracer, TraceTargetMissing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int = 0) -> tuple[int, str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05",
                         "--trace", str(trace), "--size", "tiny"])
    text = out.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


@contextlib.contextmanager
def perturbed(mutate):
    """Pass every report document through `mutate(doc, call_index)`."""
    original = natfx.cli.Report.as_dict
    calls = []

    def as_dict(self):
        doc = original(self)
        mutate(doc, len(calls))
        calls.append(self.subcommand)
        return doc

    natfx.cli.Report.as_dict = as_dict
    try:
        yield
    finally:
        natfx.cli.Report.as_dict = original


class MetricsPrinted(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        self.assertEqual({w["name"]: w["why"] for w in BENCHMARK["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, PER_LAYER_UNITS)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    code, text, result = bench(name, trace)
                    self.assertEqual(code, 0, text)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric, unit in want.items():
                        value = result["metrics"][metric]["value"]
                        self.assertTrue(math.isfinite(value), metric)
                        self.assertRegex(text, rf"(?m)^{metric.replace('.', '[.]')} +\S+ {unit}$")


class PerturbedReportsFail(unittest.TestCase):
    def assert_all_ops_fail(self, workload, mutate):
        with perturbed(mutate):
            code, _text, result = bench(workload)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_point_estimate_off_reference(self):
        def mutate(doc, _i):
            doc["components"][0]["estimate"] += 1e-7

        self.assert_all_ops_fail("plugin-seq2", mutate)

    def test_sum_gap_open(self):
        def mutate(doc, _i):
            doc["sum_gap"] = 1e-6

        self.assert_all_ops_fail("plugin-seq2", mutate)

    def test_non_finite_interval(self):
        def mutate(doc, _i):
            doc["components"][-1]["ci"][0] = float("nan")

        self.assert_all_ops_fail("linear", mutate)

    def test_nonseq2_te_off_cell_sum(self):
        def mutate(doc, _i):
            doc["te"] += 1e-7

        self.assert_all_ops_fail("plugin-nonseq2", mutate)

    def test_linear_coefficient_off_lstsq(self):
        def mutate(doc, _i):
            doc["diagnostics"]["tables"]["outcome"]["A:M1"] *= 1 + 1e-6

        self.assert_all_ops_fail("linear", mutate)

    def test_fit_coefficient_off_lstsq(self):
        def mutate(doc, _i):
            if doc["subcommand"] == "fit":
                doc["tables"]["m2"]["A"] += 1e-6

        self.assert_all_ops_fail("simulate-fit", mutate)

    def test_decompose_te_off_triple_loop(self):
        def mutate(doc, _i):
            if doc["subcommand"] == "decompose":
                doc["te"] -= 1e-7

        self.assert_all_ops_fail("simulate-fit", mutate)

    def test_crash_inside_the_cli(self):
        original = natfx.cli.run

        def crash(config):
            raise TypeError("injected")

        natfx.cli.run = crash
        try:
            code, _text, result = bench("plugin-seq2")
        finally:
            natfx.cli.run = original
        self.assertEqual(code, 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_output_differs_between_ops(self):
        def mutate(doc, i):
            if i > 0:  # leave the warm-up op alone
                doc["provenance"]["level"] = 0.9

        with perturbed(mutate):
            code, _text, result = bench("plugin-nonseq2")
        self.assertEqual(code, 1)
        self.assertEqual(result["failed"], result["attempted"] - 1)


class ReferenceLoop(unittest.TestCase):
    def test_each_command_is_divided_by_the_loops_around_it(self):
        class TwoCommands:
            def op(self, between=None):
                walls = [0.3]
                if between is not None:
                    between()
                walls.append(0.6)
                return walls, 0.0

        loops = itertools.cycle((0.01, 0.03))
        original = run.reference_loop
        run.reference_loop = lambda: next(loops)
        try:
            got = run.run_untraced(TwoCommands(), seconds=0.0)
        finally:
            run.reference_loop = original
        # loops 0.01 | 0.3 s | 0.03 | 0.6 s | 0.01 ...: 0.3 / 0.02 + 0.6 / 0.02
        self.assertAlmostEqual(got["op_ref"], 45.0)
        self.assertAlmostEqual(got["op_wall_s"], 0.9)
        self.assertEqual(got["timed_ops"], run.MIN_TIMED_OPS)


class TraceTargets(unittest.TestCase):
    def test_missing_targets_raise_and_leave_nothing_patched(self):
        original = natfx.cli.from_dataset
        for target in (
            ("scm.gone", "natfx.scm", "no_such_function", None),
            ("scm.private", "natfx.scm", "_codes", None),
            ("scm.gone_method", "natfx.scm", "Dataset", "no_such_method"),
        ):
            tracer = Tracer((("scm.from_dataset", "natfx.scm", "from_dataset", None), target))
            with self.subTest(target=target), self.assertRaises(TraceTargetMissing):
                tracer.install()
            self.assertIs(natfx.cli.from_dataset, original)

    def test_install_patches_callers_and_uninstall_restores(self):
        originals = (natfx.cli.from_dataset, natfx.scm.Dataset.take, natfx.scm.check_identifiability)
        with Tracer():
            self.assertIsNot(natfx.cli.from_dataset, originals[0])
            self.assertIsNot(natfx.scm.Dataset.take, originals[1])
            self.assertIsNot(natfx.scm.check_identifiability, originals[2])
        self.assertEqual((natfx.cli.from_dataset, natfx.scm.Dataset.take,
                          natfx.scm.check_identifiability), originals)

    def test_dropped_replicates_are_counted(self):
        # every (A, M1, M2) cell at least once, three M2 = 2 cells exactly
        # once: the full data fits, and resamples often lose a cell
        cells = list(itertools.product((0, 1), (0, 1), (0, 1, 2)))
        rows = np.array(cells + [c for c in cells if c[2] != 2] * 3 + cells[:4])
        data = Dataset(exposure=rows[:, 0], m1=rows[:, 1], m2=rows[:, 2],
                       outcome=np.arange(len(rows), dtype=float))
        q = Query(a=1, a_star=0, m1_star=0, m2_star=0)
        raised = []

        def estimator(d):
            try:
                return plugin_seq2(natfx.scm.from_dataset(d, Scenario.chain(2)), q)
            except ValueError:
                raised.append(1)
                raise

        tracer = Tracer()
        with tracer:
            # looked up on the module so the traced bootstrap runs
            natfx.infer.bootstrap(data, estimator, BootstrapConfig(replicates=50, seed=1, max_fail=0.9))
        metrics = tracer.op_metrics()
        self.assertGreater(len(raised), 0)
        self.assertEqual(metrics["infer.replicates_dropped"], len(raised))
        self.assertEqual(metrics["infer.replicates"], 50)
        self.assertAlmostEqual(metrics["infer.kept_ratio"], (50 - len(raised)) / 50)


if __name__ == "__main__":
    unittest.main()
