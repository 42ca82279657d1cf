"""Bootstrap behavior: determinism, percentile math, and the failure policy."""
from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natfx import decomp, estimate, infer
from natfx.cfexpr import Scenario
from natfx.decomp import ComponentValue, DecompositionResult, Query, decompose
from natfx.estimate import _EQUATIONS, _QR_BLOCK_ROWS, fit_linear_system, plugin_seq2
from natfx.infer import (
    BootstrapConfig,
    LinearEstimator,
    PluginEstimator,
    TooManyFailedReplicates,
    bootstrap,
)
from natfx.scm import Dataset, DiscreteScm, from_dataset, simulate

import oracles

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

    def test_seed_must_be_a_non_negative_integer(self):
        # refused when the config is made, before any point estimate; split
        # into words, a negative int would give a stream numpy never draws
        for seed in (-1, -(2**70), 1.0, 2.5, "3", None):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                BootstrapConfig(seed=seed)
        assert BootstrapConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        assert BootstrapConfig(seed=2**200).seed == 2**200


@settings(max_examples=60, deadline=None)
@given(seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200])
       | st.integers(0, 2**256 - 1), count=st.integers(2, 1100))
@example(seed=0, count=2)
@example(seed=2**32 - 1, count=3)
@example(seed=2**32, count=1100)
@example(seed=2**64, count=17)
@example(seed=2**128 - 1, count=400)
@example(seed=2**128, count=5)
@example(seed=2**200, count=64)
def test_spawned_states_match_numpys_seed_sequence(seed, count):
    # the stream contract: replicate i draws from
    # default_rng(SeedSequence(seed).spawn(count)[i])
    states = infer._spawned_states(seed, count)
    children = np.random.SeedSequence(seed).spawn(count)
    assert states.dtype == np.uint64 and states.flags.c_contiguous
    assert states.tolist() == [c.generate_state(4, np.uint64).tolist() for c in children]
    np.random.bit_generator.ISeedSequence.register(infer._GivenState)  # as bootstrap does
    for words, child in zip(states, children):
        got = np.random.Generator(np.random.PCG64(infer._GivenState(words))).integers(1 << 62, size=64)
        assert got.tolist() == np.random.default_rng(child).integers(1 << 62, size=64).tolist()


def rows_numpy_redraws(children, n):
    """The rows in which numpy's `integers(0, n)` passes over one of the
    first n 32-bit halves of its PCG64 words (low half first), or every
    row where a row expects one or more such halves."""
    line = 2**32 % n
    if n * line >= 2**32:
        return list(range(len(children)))
    found = []
    for r, child in enumerate(children):
        raw = np.random.PCG64(child).random_raw(-(-n // 2))
        halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:n]
        if ((halves * np.uint64(n)) % 2**32 < line).any():
            found.append(r)
    return found


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 7, 64, 300, 600, 1500, 5000, 49152, 65336, 2**16 - 1,
                          2**16, 2**16 + 1, 100_000, 2**20, 1_000_003]) | st.integers(1, 70_000),
       seed=st.integers(0, 2**64), count=st.integers(1, 5), height=st.integers(1, 5))
# row 0 passes over a half and is redrawn; row 2 has a half exactly at the
# line, (h n) mod 2^32 == 2^32 mod n, which numpy keeps
@example(n=49152, seed=3, count=4, height=3)
@example(n=1, seed=0, count=2, height=1)
@example(n=1_000_003, seed=17, count=2, height=1)  # every row drawn by numpy
def test_draws_match_numpys_integers(n, seed, count, height):
    # each row must be default_rng(SeedSequence(seed).spawn(count)[i])'s draw,
    # with numpy's Generator redrawing exactly the rows its own draw passes
    # over a half in
    children = np.random.SeedSequence(seed).spawn(count)
    row_of = {np.random.PCG64(c).state["state"]["state"]: r for r, c in enumerate(children)}
    generator, redrawn = np.random.Generator, []

    def spy(bits):
        redrawn.append(row_of[bits.state["state"]["state"]])
        return generator(bits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Generator", spy)
        chunks = [(list(chunk), idx.copy()) for chunk, idx in infer._draws(seed, count, n, height)]
    want = [generator(np.random.PCG64(c)).integers(0, n, size=n) for c in children]
    assert [i for chunk, _ in chunks for i in chunk] == list(range(count))
    assert {len(idx) for _, idx in chunks[:-1]} <= {height}
    assert np.concatenate([idx for _, idx in chunks]).tolist() == np.stack(want).tolist()
    assert redrawn == rows_numpy_redraws(children, n)
    if (n, seed, count) == (49152, 3, 4):
        assert redrawn == [0]


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

    def test_reused_draw_rows_leak_nothing_between_chunks(self):
        # chunks of 7 draws share one draw matrix, the last chunk ragged;
        # workers read their rows while no later chunk may overwrite them
        data = toy_dataset(n=30, seed=9)
        cfg = BootstrapConfig(replicates=31, seed=4)
        whole = bootstrap(data, mean_result, cfg)  # one chunk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(infer, "_CHUNK_ENTRIES", 7 * data.n)
            runs = [bootstrap(data, mean_result, cfg, workers=w) for w in (1, 2)]
        assert runs == [whole, whole]

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

    def test_non_finite_point_estimate_raises(self):
        nan = constant_result(float("nan"))
        with pytest.raises(ValueError, match="point estimate: non-finite component"):
            bootstrap(toy_dataset(), lambda d: nan, BootstrapConfig(replicates=5))

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

    def test_overflowing_replicates_are_dropped_and_counted(self):
        data = toy_dataset()
        levels = {0: 0.5, 1: 0.5}

        def blows_up(d):
            # resamples with more exposed rows than the data price cell means
            # of +-1.7e308, whose differences overflow the float range
            big = 1.7e308 if d.exposure.sum() > data.exposure.sum() else 1.0
            model = DiscreteScm(Scenario.single(), pm1={0: levels, 1: levels},
                                ymean={1: {0: big, 1: big}, 0: {0: -big, 1: -big}})
            return decompose(model, Query(a=1, a_star=0, m1_star=0))

        out = bootstrap(data, blows_up, BootstrapConfig(replicates=100, seed=1, max_fail=0.9))
        failed = out.diagnostics["failed"]
        assert 0 < failed < 100 and out.diagnostics["kept"] == 100 - failed
        assert out.diagnostics["failed_by_error"] == {
            "ValueError": {"count": failed, "first": "CDE overflows the float range"}
        }

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
    """Bootstrap output as exact hex strings, or the error it raised.

    The chunked paths' route counts, which the per-resample closure does
    not report, are checked against the replicate count and left out.
    """
    try:
        out = run()
    except (ValueError, TooManyFailedReplicates) as err:
        return type(err).__name__, str(err)
    diagnostics = dict(out.diagnostics, max_sum_gap=out.diagnostics["max_sum_gap"].hex())
    routes = diagnostics.pop("routes", None)
    if routes is not None:
        routed = routes["batched"] + sum(routes["fallback"].values())
        assert routed == diagnostics["kept"] + diagnostics["failed"]
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
        monkeypatch.setattr(decomp, "from_dataset", lambda d, s: calls.append(1) or from_dataset(d, s))
        plain, chunked = plain_and_plugin(data, Scenario.single(), q, cfg)
        assert chunked == [plain] * 3
        diagnostics = plain[3]
        assert set(diagnostics["failed_by_error"]) == {"EmptyCell", "UnknownSupportValue"}
        # per chunked run: one full-data call, then one per fallback; some
        # fallbacks are kept, and some replicates never fall back
        fallbacks = len(calls) // 3 - 1
        assert diagnostics["failed"] < fallbacks < 300
        routes = bootstrap(data, PluginEstimator(Scenario.single(), q), cfg).diagnostics["routes"]
        assert routes == {"batched": 300 - fallbacks, "fallback": {"empty_cell": fallbacks},
                          "fsum_rows": 0}

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


# Agreement of the chunked linear bootstrap with the per-resample closure.
# Both sides solve the same least-squares problems, so they differ by
# roundoff amplified by the designs' conditioning; `gaussian_chain` draws M1
# with means up to 10, where the outcome design's M1 columns lean on the
# intercept.  Over 2,500 derandomized examples of `gaussian_chain_runs` the
# worst CI ends differed by 1.1e-12 of the result's scale (the largest
# |value| or |CI end| over its rows).  Over 2,500 seeded draws of the same
# kind the worst were 2.2e-16 for max_sum_gap, of that scale; 1.4e-11 for
# coefficients, of the equation's largest; and 1.6e-15 for sigma2_m1,
# relative, from a pass over the weighted residuals.  The per-replicate Gram
# loop this path replaced read 1.2e-12, 2.0e-16, 1.4e-11 and 2.0e-15 on the
# same draws.  Computing sigma2_m1 from the expanded quadratic form instead
# of the residuals moved it by up to 5.6e-13; from cᵀ G c, which like the
# residuals is stationary at the solve, it read 1.1e-14 over another 2,500
# seeded draws, on which the residual pass read 1.6e-15.  A covariate equal
# to M1 plus noise of scale 1e-4 takes the least pivot ratio to 1.6e-6
# (median 1e-5): over 400 derandomized examples the CI ends differed by
# 2.0e-11 of the scale at worst.  At 1e-5 it read 3.9e-10, and at 1e-6, with
# ratios of 1.6e-8 to 1e-7, 14 of 400 examples exceeded LINEAR_TOL, and 18
# did with Q from a QR of the whole design: both sides' rounding grows with
# the conditioning, so `gaussian_chain_runs` stops at 1e-4.
LINEAR_TOL = 1e-9
SIGMA2_TOL = 1e-13

# The chunked path's Gram matrices and right-hand sides against each
# equation's own QR (`oracles.weighted_gram`), of the oracle's largest
# entry.  Over 2,000 seeded draws like `gaussian_chain_runs` the worst were
# 1.2e-13 for G and 7.5e-14 for the right-hand side.
GRAM_TOL = 1e-11

# One chunked linear bootstrap at the linear benchmark's 5,000 rows, 40
# replicates in chunks of 13, printed as the hex digests of every value and
# CI end.
_LINEAR_DIGESTS = """
import numpy as np
from natfx.decomp import Query
from natfx.infer import BootstrapConfig, LinearEstimator, bootstrap
from natfx.scm import Dataset
rng = np.random.default_rng(17)
n = 5000
c = {"c0": rng.normal(size=n), "c1": (rng.random(n) < 0.4).astype(float)}
a = (rng.random(n) < 0.5).astype(float)
m1 = 0.5 + 0.8 * a + 0.3 * c["c0"] + rng.normal(size=n)
lm2 = 0.2 + 0.3 * a + 0.25 * m1 + 0.1 * a * m1 + 0.5 * rng.normal(size=n)
y = 1 + 0.5 * a + 0.4 * m1 + 0.6 * lm2 + 0.1 * m1 * lm2 + rng.normal(size=n)
data = Dataset(exposure=a, m1=m1, m2=np.exp(lm2), outcome=y, covariates=c)
estimator = LinearEstimator(Query(1.0, 0.0, 0.5, 0.2), (0.0, 1.0), True)
out = bootstrap(data, estimator, BootstrapConfig(replicates=40, seed=3))
assert out.diagnostics["routes"]["batched"] == 40
for row in out.components:
    print(row.name, row.value.hex(), row.ci[0].hex(), row.ci[1].hex())
"""


def gaussian_chain(rng, n, k, log_m2, non_finite, near_m1=None):
    """Chain data from the Gaussian-linear model with `k` covariates and a
    few non-finite entries in M1, M2 or Y; with `near_m1`, one more
    covariate, M1 plus noise of that scale."""
    c = {f"c{i}": rng.normal(size=n) for i in range(k)}
    a = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(float)
    m1 = (rng.uniform(-10, 10) + rng.normal() * a + 0.3 * sum(c.values(), np.zeros(n))
          + rng.normal(size=n) * rng.uniform(0.3, 2))
    if near_m1 is not None:
        c["m1_near"] = m1 + near_m1 * rng.normal(size=n)
    lm2 = (rng.normal() + rng.normal() * a + 0.25 * m1 + 0.1 * a * m1
           + rng.normal(size=n) * rng.uniform(0.3, 1))
    y = (1 + 0.5 * a + 0.4 * m1 + 0.6 * lm2 + 0.2 * a * m1 + 0.1 * m1 * lm2
         + 0.05 * a * m1 * lm2 + rng.normal(size=n))
    m2 = np.exp(lm2) if log_m2 else lm2
    for value in non_finite:
        col = (m1, m2, y)[rng.integers(3)]
        col[rng.integers(n)] = value
    return Dataset(exposure=a, m1=m1, m2=m2, outcome=y, covariates=c)


@st.composite
def gaussian_chain_runs(draw, near_m1=False):
    """Data, estimator and config of a linear bootstrap; with `near_m1`, the
    data may have a covariate all but equal to M1 (see LINEAR_TOL)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 2))
    log_m2 = draw(st.booleans())
    non_finite = draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=2))
    eps = draw(st.sampled_from([None, 1e-2, 1e-4])) if near_m1 else None
    data = gaussian_chain(rng, draw(st.integers(60, 250)), k, log_m2, non_finite, eps)
    q = Query(a=1.0, a_star=0.0, m1_star=float(rng.normal()), m2_star=float(rng.normal()))
    estimator = LinearEstimator(q, tuple(rng.normal(size=len(data.covariates))), log_m2)
    cfg = BootstrapConfig(replicates=draw(st.integers(2, 40)), seed=draw(st.integers(0, 2**31)))
    return data, estimator, cfg


def split_linear(out):
    """A bootstrap result as (exact diagnostics, rows, max_sum_gap), with
    the chunked path's route counts set aside."""
    diagnostics = dict(out.diagnostics)
    diagnostics.pop("routes", None)
    gap = diagnostics.pop("max_sum_gap")
    rows = [(c.name, c.value, *c.ci) for c in out.components]
    return diagnostics, rows, gap


def assert_linear_agree(chunked, plain):
    """Same point estimate and replicate accounting; CI ends and the worst
    sum_gap within LINEAR_TOL of the result's scale, the largest |value| or
    |CI end| over its rows."""
    got, want = split_linear(chunked), split_linear(plain)
    assert got[0] == want[0]
    assert chunked.te == plain.te and chunked.sum_gap == plain.sum_gap
    scale = max(abs(x) for _, *ends in want[1] for x in ends)
    for (name, value, lo, hi), (_, want_value, want_lo, want_hi) in zip(got[1], want[1]):
        assert value == want_value, name
        assert abs(lo - want_lo) <= LINEAR_TOL * scale, name
        assert abs(hi - want_hi) <= LINEAR_TOL * scale, name
    assert abs(got[2] - want[2]) <= LINEAR_TOL * scale


def batched_fits(data, estimator, draws):
    """Each draw's coefficients (one array per equation, covariates last)
    and sigma2_m1 as the chunked path computes them, or None where it falls
    back."""
    seen = []
    real = estimate._linear_pricer
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_linear_pricer", lambda coefs, *rest: seen.append(coefs) or real(coefs, *rest))
        pricer = infer._LinearChunkPricer(data, estimator)
        reasons, part = pricer(np.stack(draws))
        pricer.addends([part])
    (coefs,) = seen
    fits, j = [], 0
    for why in reasons:
        if why:
            fits.append(None)
            continue
        per_equation = [np.concatenate([getattr(coefs, f)[:, j], getattr(coefs, f + "_c")[:, j]])
                        for f in ("theta", "beta", "gamma")]
        fits.append((per_equation, coefs.sigma2_m1[j]))
        j += 1
    return fits


class TestChunkedLinear:
    """The chunked linear path against the per-resample closure it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(gaussian_chain_runs(near_m1=True))
    def test_matches_plain_closure(self, run):
        data, estimator, cfg = run
        try:
            plain = bootstrap(data, lambda d: estimator(d), cfg)
        except (ValueError, TooManyFailedReplicates) as err:
            with pytest.raises(type(err)) as raised:
                bootstrap(data, estimator, cfg)
            assert str(raised.value) == str(err)
            return
        assert_linear_agree(bootstrap(data, estimator, cfg), plain)

    @settings(max_examples=40, deadline=None)
    @given(gaussian_chain_runs())
    def test_replicate_fits_match_fit_linear_system(self, run):
        data, estimator, _ = run
        rng = np.random.default_rng(data.n)
        draws = [rng.integers(0, data.n, size=data.n) for _ in range(6)]
        for draw, fit in zip(draws, batched_fits(data, estimator, draws)):
            if fit is None:  # fell back: fit_linear_system itself prices it
                continue
            want = fit_linear_system(data.take(draw), log_m2=estimator.log_m2)
            coefs, sigma2_m1 = fit
            for got, table in zip(coefs, want.tables.values()):
                expect = np.array(list(table.values()))
                assert np.abs(got - expect).max() <= LINEAR_TOL * np.abs(expect).max()
            assert abs(sigma2_m1 - want.params.sigma2_m1) <= SIGMA2_TOL * want.params.sigma2_m1

    @pytest.mark.parametrize("seed", range(5))
    def test_sigma2_m1_holds_when_m1_sits_far_from_zero(self, seed):
        # M1's mean, 100, is 1e4 times its residual scale: the rounding in
        # c = resp - T z is that ratio times eps.  Over 30 seeds of 8 draws
        # each the chunked cᵀ G c read 1.6e-12 relative at worst, the explicit
        # residuals 3.4e-13, and the Schur form respᵀ G resp - rhsᵀ z, which
        # squares the ratio, 1.3e-7.
        rng = np.random.default_rng(seed)
        n = 200
        c = rng.normal(size=n)
        a = (rng.random(n) < 0.5).astype(float)
        m1 = 100 + 2 * a + 0.3 * c + 0.01 * rng.normal(size=n)
        lm2 = 0.2 + 0.3 * a + 0.01 * m1 + 0.5 * rng.normal(size=n)
        y = 1 + 0.5 * a + 0.4 * m1 + 0.6 * lm2 + rng.normal(size=n)
        data = Dataset(exposure=a, m1=m1, m2=np.exp(lm2), outcome=y, covariates={"c": c})
        estimator = LinearEstimator(Query(1.0, 0.0, 0.3, 0.1), (0.5,), True)
        draws = [rng.integers(0, n, size=n) for _ in range(8)]
        fits = batched_fits(data, estimator, draws)
        assert all(fit is not None for fit in fits)
        for draw, (_, sigma2_m1) in zip(draws, fits):
            want = fit_linear_system(data.take(draw), log_m2=True).params.sigma2_m1
            assert abs(sigma2_m1 - want) <= 1e-10 * want

    @pytest.mark.parametrize("label", ["A", "M1", "intercept", "A:M1"])
    def test_a_covariate_may_share_a_regressor_label(self, label):
        # covariate names come from the CSV header, so a covariate called
        # "A" is legal once the exposure column has another name
        rng = np.random.default_rng(8)
        data = gaussian_chain(rng, 120, 2, True, [np.nan])
        data = Dataset(exposure=data.exposure, m1=data.m1, m2=data.m2, outcome=data.outcome,
                       covariates={label: data.covariates["c0"], "c1": data.covariates["c1"]})
        estimator = LinearEstimator(Query(1.0, 0.0, 0.3, 0.1), (0.5, -0.2), True)
        draws = [rng.integers(0, data.n, size=data.n) for _ in range(6)]
        fits = batched_fits(data, estimator, draws)
        assert all(fit is not None for fit in fits)
        for draw, (coefs, sigma2_m1) in zip(draws, fits):
            want = fit_linear_system(data.take(draw), log_m2=True).params
            for got, field in zip(coefs, ("theta", "beta", "gamma")):
                expect = np.concatenate([getattr(want, field), getattr(want, field + "_c")])
                assert np.abs(got - expect).max() <= LINEAR_TOL * np.abs(expect).max()
            assert abs(sigma2_m1 - want.sigma2_m1) <= SIGMA2_TOL * want.sigma2_m1
        cfg = BootstrapConfig(replicates=30, seed=3)
        assert_linear_agree(bootstrap(data, estimator, cfg), bootstrap(data, lambda d: estimator(d), cfg))
        # the printed tables hold every coefficient once, the covariate keyed apart
        full = fit_linear_system(data, log_m2=True)
        fixed = ["intercept", "A", "M1", "M2", "A:M1", "A:M2", "M1:M2", "A:M1:M2"]
        assert list(full.tables["outcome"]) == [*fixed, f"covariate {label}", "c1"]
        for role, field in (("outcome", "theta"), ("m2", "beta"), ("m1", "gamma")):
            want = [*getattr(full.params, field), *getattr(full.params, field + "_c")]
            assert list(full.tables[role].values()) == want

    def test_degenerate_resamples_fall_back_to_the_same_errors(self):
        # 14 rows, five of them exposed and two with the binary covariate
        # at 1: resamples lose one of the four exposed rows the interaction
        # terms need or make the covariate constant (RankDeficient), or keep
        # no more complete rows than the nine outcome regressors once the two
        # rows with a missing outcome are dropped
        rng = np.random.default_rng(4)
        data = gaussian_chain(rng, 14, 0, True, [])
        data = Dataset(
            exposure=np.array([1.0] * 5 + [0.0] * 9),
            m1=data.m1, m2=data.m2,
            outcome=np.where(np.arange(14) < 12, data.outcome, np.nan),
            covariates={"c": np.array([0.0, 1.0] * 2 + [0.0] * 10)},
        )
        q = Query(a=1.0, a_star=0.0, m1_star=0.5, m2_star=0.2)
        estimator = LinearEstimator(q, (1.0,), True)
        cfg = BootstrapConfig(replicates=300, seed=2, max_fail=0.99)
        chunked = bootstrap(data, estimator, cfg)
        plain = bootstrap(data, lambda d: estimator(d), cfg)
        assert_linear_agree(chunked, plain)
        failed = chunked.diagnostics["failed_by_error"]
        assert set(failed) == {"RankDeficient", "ValueError"}
        routes = chunked.diagnostics["routes"]
        assert routes["fallback"]["rows"] > 0 and routes["fallback"]["conditioning"] > 0
        assert chunked.diagnostics["failed"] == sum(routes["fallback"].values())
        assert routes["batched"] == chunked.diagnostics["kept"] > 0

    def test_output_is_the_same_for_any_chunk_size(self):
        rng = np.random.default_rng(11)
        data = gaussian_chain(rng, 40, 1, True, [np.nan])
        estimator = LinearEstimator(Query(1.0, 0.0, 0.3, 0.1), (0.5,), True)
        cfg = BootstrapConfig(replicates=60, seed=5, max_fail=0.5)
        runs = []
        # chunks of one replicate, one fewer than a gemm group, a group, one
        # more, seven, and the default
        per_chunk = (1, estimate._GRAM_ROWS - 1, estimate._GRAM_ROWS, estimate._GRAM_ROWS + 1, 7)
        for cap in (*(k * data.n for k in per_chunk), infer._CHUNK_ENTRIES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(infer, "_CHUNK_ENTRIES", cap)
                out = bootstrap(data, estimator, cfg)
            runs.append((
                [(c.value.hex(), c.ci[0].hex(), c.ci[1].hex()) for c in out.components],
                out.te.hex(), out.sum_gap.hex(), repr(out.diagnostics),
            ))
        assert runs == [runs[0]] * len(runs)
        assert out.diagnostics["routes"]["batched"] > 0

    def test_chunks_fill_whole_gemm_groups(self, monkeypatch):
        # a cap below one replicate still hands the pricer a full group
        data = gaussian_chain(np.random.default_rng(3), 40, 1, False, [])
        heights = []
        price = infer._LinearChunkPricer.__call__

        def spy(self, idx):
            heights.append(len(idx))
            return price(self, idx)

        monkeypatch.setattr(infer._LinearChunkPricer, "__call__", spy)
        monkeypatch.setattr(infer, "_CHUNK_ENTRIES", 1)
        estimator = LinearEstimator(Query(1.0, 0.0, 0.3, 0.1), (0.5,))
        bootstrap(data, estimator, BootstrapConfig(replicates=10, seed=2))
        assert heights == [estimate._GRAM_ROWS] * 2 + [10 - 2 * estimate._GRAM_ROWS]
        # a cap of 13 replicates holds three whole groups, not three and a padded one
        heights.clear()
        monkeypatch.setattr(infer, "_CHUNK_ENTRIES", 13 * data.n)
        bootstrap(data, estimator, BootstrapConfig(replicates=30, seed=2))
        assert heights == [3 * estimate._GRAM_ROWS] * 2 + [30 - 6 * estimate._GRAM_ROWS]

    def test_init_holds_nothing_large_but_k(self):
        # K is the pricer's one n-row array: while it fills, Q = X R⁻¹ and [X | y] are held a
        # block at a time.  Beside K this reads 5.4 MiB against a bound of 9.8; holding a whole
        # Q (15.3 MiB at 200k rows and two covariates) read 18.9
        data = gaussian_chain(np.random.default_rng(4), 200_000, 2, True, [])
        columns, cov_names = oracles.prepared_columns(data, True)
        block = _QR_BLOCK_ROWS * (len(_EQUATIONS[0][2]) + len(cov_names) + 1) * 8
        tracemalloc.start()
        try:
            pricer = infer._LinearChunkPricer(data, LinearEstimator(Query(1.0, 0.0, 0.3, 0.1), (0.5, -0.5), True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - pricer._k.nbytes < sum(col.nbytes for col in columns.values()) + block

    def test_output_is_the_same_for_any_blas_thread_count(self):
        src = Path(__file__).resolve().parent.parent / "src"
        runs = [
            subprocess.run(
                [sys.executable, "-c", _LINEAR_DIGESTS], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads)),
            ).stdout
            for threads in (1, 2)
        ]
        assert runs[0].count("\n") == 11
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(gaussian_chain_runs())
    def test_grams_match_each_equations_own_qr(self, run):
        data, estimator, _ = run
        try:
            pricer = infer._LinearChunkPricer(data, estimator)
        except ValueError:  # the full data's fit fails; `bootstrap` raises first
            return
        columns, cov_names = oracles.prepared_columns(data, estimator.log_m2)
        n = len(columns["outcome"])
        rng = np.random.default_rng(n)
        counts = np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(6)])
        designs = oracles.linear_designs(columns, cov_names)
        for (x, y, _), eq, (grams, rhs) in zip(designs, pricer._equations, pricer._systems(counts)[1]):
            sign = np.sign(np.diag(eq.r_inv))  # the pricer's R need not have a positive diagonal
            for w, gram, b in zip(counts, grams, rhs):
                want_gram, want_b = oracles.weighted_gram(x, y, w.astype(float), eq.piv)
                want_gram, want_b = sign[:, None] * want_gram * sign, sign * want_b
                assert np.abs(gram - want_gram).max() <= GRAM_TOL * np.abs(want_gram).max()
                assert np.abs(b[:, 0] - want_b).max() <= GRAM_TOL * np.abs(want_b).max()


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
