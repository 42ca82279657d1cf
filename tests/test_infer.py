"""Bootstrap behavior: determinism, percentile math, and the failure policy."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natfx import infer
from natfx.cfexpr import Scenario
from natfx.decomp import ComponentValue, DecompositionResult, Query, decompose
from natfx.estimate import plugin_seq2
from natfx.infer import BootstrapConfig, PluginEstimator, TooManyFailedReplicates, bootstrap
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
            "max_sum_gap": 0.0,
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


SCENARIOS = {"single": Scenario.single(), "nonseq2": Scenario.nonseq(2), "seq2": SEQ2}


def fingerprint(run):
    """Bootstrap output as exact hex strings, or the error it raised."""
    try:
        out = run()
    except (ValueError, TooManyFailedReplicates) as err:
        return type(err).__name__, str(err)
    diagnostics = dict(out.diagnostics, max_sum_gap=out.diagnostics["max_sum_gap"].hex())
    rows = tuple(
        (c.name, c.value.hex(), c.ci[0].hex(), c.ci[1].hex()) for c in out.components
    )
    return out.te.hex(), out.sum_gap.hex(), rows, diagnostics


def plain_and_plugin(data, scenario, q, cfg):
    """Fingerprints of the per-resample closure and of `PluginEstimator` at
    chunk caps of one index entry, seven replicates and the default."""
    plain = fingerprint(
        lambda: bootstrap(data, lambda d: decompose(from_dataset(d, scenario), q), cfg)
    )
    chunked = []
    for cap in (1, 7 * data.n, infer._CHUNK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(infer, "_CHUNK_ENTRIES", cap)
            chunked.append(fingerprint(lambda: bootstrap(data, PluginEstimator(scenario, q), cfg)))
    return plain, chunked


@st.composite
def sparse_plugin_runs(draw):
    """Random single/nonseq2/seq2 data in which every cell of the full data
    is present but some only once or twice, so resamples lose cells (the
    chunked path falls back), lose whole levels (the support shrinks, or an
    m1* level vanishes) or come out complete; some outcomes are not finite."""
    scenario = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]
    shape = tuple(draw(st.integers(2, 3)) for _ in range(scenario.k + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.stack(np.unravel_index(np.arange(np.prod(shape)), shape), axis=1)
    copies = rng.integers(1, draw(st.integers(2, 6)), size=len(base))
    n_extra = draw(st.integers(0, 80))
    extra = np.stack([rng.integers(0, k, size=n_extra) for k in shape], axis=1)
    rows = np.concatenate([np.repeat(base, copies, axis=0), extra])
    m1_values = np.array([7, 3, 5])  # m1 levels whose sorted order is not their code order
    outcome = rng.normal(size=len(rows)) * 3.0 + rows.sum(axis=1)
    # a few non-finite outcomes: replicates then fail as non-finite or on
    # inf - inf inside a row's fsum
    for value in draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=2)):
        outcome[rng.integers(len(outcome))] = value
    data = Dataset(
        exposure=rows[:, 0],
        m1=m1_values[rows[:, 1]],
        m2=rows[:, 2] if scenario.k == 2 else None,
        outcome=outcome,
    )
    q = Query(
        a=draw(st.integers(0, shape[0] - 1)),
        a_star=draw(st.integers(0, shape[0] - 1)),
        m1_star=int(m1_values[draw(st.integers(0, shape[1] - 1))]),
        m2_star=draw(st.integers(0, shape[2] - 1)) if scenario.k == 2 else None,
    )
    cfg = BootstrapConfig(
        replicates=draw(st.integers(2, 40)),
        seed=draw(st.integers(0, 2**31)),
        max_fail=draw(st.sampled_from([0.0, 0.3, 0.99])),
    )
    return data, scenario, q, cfg


class TestChunkedPlugin:
    """The chunked plug-in path against the per-resample closure it replaces."""

    # inf and nan outcomes make numpy warn on both paths alike
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(sparse_plugin_runs())
    def test_matches_plain_closure_for_any_chunk_size(self, run):
        plain, chunked = plain_and_plugin(*run)
        assert chunked == [plain] * 3

    def test_fallback_keeps_shrunk_supports_and_their_errors(self, monkeypatch):
        # every (A, M1) cell populated, but M1=2 and M1=3 only once per
        # exposure level: resamples lose one such row (EmptyCell), both M1=2
        # rows (a smaller support that still prices) or both M1=3 rows, the
        # m1* level (UnknownSupportValue), or keep all of them
        rare = [(a, m1) for a in (0, 1) for m1 in (2, 3)]
        rows = np.array([(a, m1) for a in (0, 1) for m1 in (0, 1)] * 10 + rare)
        data = Dataset(exposure=rows[:, 0], m1=rows[:, 1],
                       outcome=np.sin(np.arange(len(rows), dtype=float)))
        q = Query(a=1, a_star=0, m1_star=3)
        cfg = BootstrapConfig(replicates=300, seed=8, max_fail=0.99)
        calls = []
        monkeypatch.setattr(infer, "from_dataset", lambda d, s: calls.append(1) or from_dataset(d, s))
        plain, chunked = plain_and_plugin(data, Scenario.single(), q, cfg)
        assert chunked == [plain] * 3
        diagnostics = plain[3]
        assert set(diagnostics["failed_by_error"]) == {"EmptyCell", "UnknownSupportValue"}
        # per chunked run: one full-data call, then one per fallback; some
        # fallbacks are kept, and some replicates never fall back
        fallbacks = len(calls) // 3 - 1
        assert diagnostics["failed"] < fallbacks < 300

    def test_max_sum_gap_is_the_worst_kept_replicate(self):
        rng = np.random.default_rng(3)
        n = 300
        data = Dataset(exposure=rng.integers(0, 3, n), m1=rng.integers(0, 3, n),
                       m2=rng.integers(0, 3, n), outcome=rng.normal(size=n) * 7 + 3)
        q = Query(a=2, a_star=0, m1_star=1, m2_star=2)
        cfg = BootstrapConfig(replicates=200, seed=1, max_fail=0.5)
        seen = []

        def plain(d):
            result = decompose(from_dataset(d, SEQ2), q)
            seen.append(result.sum_gap)
            return result

        closure = bootstrap(data, plain, cfg).diagnostics
        chunked = bootstrap(data, PluginEstimator(SEQ2, q), cfg).diagnostics
        assert closure["failed"] > 0
        # seen[0] is the full-data estimate; failed resamples record nothing
        assert len(seen) == 1 + closure["kept"]
        assert chunked["max_sum_gap"] == closure["max_sum_gap"] == max(seen[1:]) > 0.0


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
