"""Bootstrap behavior: determinism, percentile math, and the failure policy."""
from __future__ import annotations

import numpy as np
import pytest

from natfx.cfexpr import Scenario
from natfx.decomp import ComponentValue, DecompositionResult, Query
from natfx.estimate import plugin_seq2
from natfx.infer import BootstrapConfig, TooManyFailedReplicates, bootstrap
from natfx.scm import Dataset, from_dataset, simulate

SEQ2 = Scenario.chain(2)
Q = Query(a=1, a_star=0, m1_star=0, m2_star=0)


def constant_result(value):
    return DecompositionResult(
        components=(
            ComponentValue("ONLY", value),
            ComponentValue("TE", value, in_sum=False),
        ),
        te=value,
        sum_gap=0.0,
    )


def mean_result(data):
    mean = float(np.asarray(data.outcome, dtype=float).mean())
    return constant_result(mean)


def toy_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        exposure=rng.integers(0, 2, size=n),
        m1=rng.integers(0, 2, size=n),
        outcome=rng.normal(size=n),
        m2=rng.integers(0, 2, size=n),
    )


class TestBootstrapConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert (cfg.replicates, cfg.level, cfg.seed, cfg.max_fail) == (1000, 0.95, 0, 0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            BootstrapConfig(replicates=1)
        with pytest.raises(ValueError, match="level"):
            BootstrapConfig(level=1.0)
        with pytest.raises(ValueError, match="level"):
            BootstrapConfig(level=0.0)
        with pytest.raises(ValueError, match="max_fail"):
            BootstrapConfig(max_fail=1.0)


class TestBootstrap:
    def test_constant_estimator_degenerate_interval(self):
        data = toy_dataset()
        for seed, b in ((0, 10), (99, 250)):
            out = bootstrap(
                data,
                lambda d: constant_result(3.12),
                BootstrapConfig(replicates=b, seed=seed),
            )
            for row in out.components:
                assert row.value == 3.12
                assert row.ci == (3.12, 3.12)

    def test_point_estimate_comes_from_full_data(self):
        data = toy_dataset()
        out = bootstrap(data, mean_result, BootstrapConfig(replicates=50, seed=3))
        full = mean_result(data)
        assert out["ONLY"] == full["ONLY"]
        assert out.te == full.te
        assert out.sum_gap == full.sum_gap
        for row in out.components:
            assert row.ci is not None
            assert row.ci[0] <= row.ci[1]

    def test_percentile_math_and_stream_splitting(self):
        """Replicate the contract by hand: per-replicate spawned streams,
        linear-interpolation quantiles at (1-level)/2 and 1-(1-level)/2."""
        data = toy_dataset(n=25, seed=7)
        cfg = BootstrapConfig(replicates=40, level=0.9, seed=123)
        out = bootstrap(data, mean_result, cfg)

        y = np.asarray(data.outcome, dtype=float)
        streams = np.random.SeedSequence(123).spawn(40)
        means = []
        for ss in streams:
            rng = np.random.default_rng(ss)
            means.append(y[rng.integers(0, 25, size=25)].mean())
        alpha = (1.0 - cfg.level) / 2.0
        lo, hi = np.quantile(means, [alpha, 1.0 - alpha], method="linear")
        assert out["ONLY"] == pytest.approx(y.mean(), abs=0)
        row = out.components[0]
        assert row.ci == (pytest.approx(float(lo), abs=0), pytest.approx(float(hi), abs=0))

    def test_worker_count_does_not_change_output(self):
        data = toy_dataset(n=60, seed=5)
        cfg = BootstrapConfig(replicates=64, seed=11)
        serial = bootstrap(data, mean_result, cfg, workers=1)
        threaded = bootstrap(data, mean_result, cfg, workers=4)
        assert serial == threaded

    def test_seed_determines_output(self):
        data = toy_dataset()
        cfg = BootstrapConfig(replicates=30, seed=21)
        assert bootstrap(data, mean_result, cfg) == bootstrap(data, mean_result, cfg)
        other = bootstrap(data, mean_result, BootstrapConfig(replicates=30, seed=22))
        assert bootstrap(data, mean_result, cfg) != other

    def test_full_data_failure_propagates(self):
        def broken(_):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            bootstrap(toy_dataset(), broken, BootstrapConfig(replicates=5))

    def test_failure_policy_threshold(self):
        data = toy_dataset()
        calls = {"n": 0}

        def flaky(d):
            calls["n"] += 1
            # first call is the full-data point estimate; afterwards every
            # fifth resample hits an unluckily empty cell
            if calls["n"] > 1 and calls["n"] % 5 == 0:
                raise ValueError("empty cell in resample")
            return mean_result(d)

        with pytest.raises(TooManyFailedReplicates) as err:
            bootstrap(data, flaky, BootstrapConfig(replicates=100, seed=1, max_fail=0.01))
        assert err.value.failed == 20
        assert err.value.replicates == 100
        assert "empty cell" in str(err.value)

        calls["n"] = 0
        out = bootstrap(
            data, flaky, BootstrapConfig(replicates=100, seed=1, max_fail=0.25)
        )
        assert out.components[0].ci is not None

    def test_non_finite_replicates_fail_under_their_own_cause(self):
        data = toy_dataset()
        calls = {"n": 0}

        def sometimes_nan(d):
            calls["n"] += 1
            # after the full-data call, every fourth resample yields NaN
            if calls["n"] > 1 and calls["n"] % 4 == 0:
                return constant_result(float("nan"))
            return mean_result(d)

        with pytest.raises(TooManyFailedReplicates, match="non-finite"):
            bootstrap(data, sometimes_nan, BootstrapConfig(replicates=100, seed=1))

        calls["n"] = 0
        out = bootstrap(
            data, sometimes_nan, BootstrapConfig(replicates=100, seed=1, max_fail=0.3)
        )
        assert out.diagnostics == {
            "kept": 75,
            "failed": 25,
            "failed_by_error": {
                "FloatingPointError": {
                    "count": 25,
                    "first": "non-finite component(s) ONLY=nan, TE=nan",
                }
            },
        }
        assert all(np.isfinite(row.ci).all() for row in out.components)

    def test_rare_level_failures_dropped_within_policy(self):
        rng = np.random.default_rng(17)
        n = 120
        exposure = rng.integers(0, 2, size=n)
        m1 = rng.integers(0, 2, size=n)
        m2 = rng.integers(0, 2, size=n)
        data = Dataset(exposure=exposure, m1=m1, outcome=rng.normal(size=n), m2=m2)

        def plug(d):
            return plugin_seq2(from_dataset(d, SEQ2), Q)

        # with every cell well populated the default policy never triggers
        out = bootstrap(data, plug, BootstrapConfig(replicates=60, seed=2))
        for row in out.components:
            assert row.ci[0] <= row.value + 1e-12 or row.ci[0] <= row.ci[1]

    def test_replicates_satisfy_sum_identity(self):
        data = toy_dataset(n=100, seed=9)
        seen = []

        def plug(d):
            result = plugin_seq2(from_dataset(d, SEQ2), Q)
            seen.append(result)
            return result

        bootstrap(data, plug, BootstrapConfig(replicates=40, seed=4))
        assert len(seen) == 41
        assert max(r.sum_gap for r in seen) <= 1e-9

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            bootstrap(toy_dataset(), mean_result, BootstrapConfig(replicates=5), workers=0)


class TestSimulatedCoverage:
    def test_te_interval_covers_enumeration_truth(self, dm1):
        # single-seed smoke check; the nominal-coverage sweep over many
        # simulation seeds lives with the acceptance checks
        data = simulate(dm1, n=5000, seed=2)
        truth = plugin_seq2(dm1, Q).te

        def plug(d):
            return plugin_seq2(from_dataset(d, SEQ2), Q)

        out = bootstrap(data, plug, BootstrapConfig(replicates=1000, seed=1))
        te_row = next(c for c in out.components if c.name == "TE")
        assert te_row.ci[0] <= truth <= te_row.ci[1]
        assert truth == pytest.approx(3.12, abs=1e-12)
