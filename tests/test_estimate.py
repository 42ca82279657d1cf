"""Estimator tests: plug-in sums, least squares, and linear closed forms.

The linear closed forms are checked three ways against each other: the
polynomial displays, the signed world combinations, and Monte Carlo
simulation of the structural equations.
"""
from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natfx.estimate
import oracles
from natfx.cfexpr import REFERENCE, TREATMENT, CfExpr, Counterfactual, Fixed, Scenario
from natfx.decomp import (
    MissingFixedLevel,
    Query,
    components_seq2,
    _worlds,
    decompose,
    evaluate_decomposition,
)
from natfx.estimate import (
    AssumptionLedger,
    CovariateProfile,
    LinearParams,
    LogDomainError,
    RankDeficient,
    _PIVOT_TOL,
    _QR_BLOCK_ROWS,
    _linear_pricer,
    fit_linear_system,
    fit_ols,
    linear_components,
    plugin_seq2,
)
from natfx.scm import Dataset, DiscreteScm, UnknownSupportValue, _compile_formula

SEQ2 = Scenario.chain(2)
Q = Query(a=1, a_star=0, m1_star=0, m2_star=0)

ROW_NAMES = (
    "CDE",
    "INT_ref-AM1",
    "INT_ref-AM2+AM1M2",
    "NatINT_AM1",
    "NatINT_AM2",
    "NatINT_AM1M2",
    "NatINT_M1M2",
    "PDE",
    "PIE_M1",
    "PIE_M2",
    "TE",
)

# plugin/linear row name -> hand-checked golden key
GOLDEN_KEY = {"INT_ref-AM1": "IR1", "INT_ref-AM2+AM1M2": "IR2"}


def make_params(rng, k_cov=0, scale=1.2, sigma2=None):
    u = lambda n: tuple(float(v) for v in rng.uniform(-scale, scale, size=n))
    if sigma2 is None:
        sigma2 = float(rng.uniform(0.2, 1.5))
    return LinearParams(
        theta=u(8),
        beta=u(4),
        gamma=u(2),
        theta_c=u(k_cov),
        beta_c=u(k_cov),
        gamma_c=u(k_cov),
        sigma2_m1=sigma2,
    )


def world(params, k, a, a_star, c=()):
    """E[W_k], W1..W8 in the catalog's order: the linear engine's addends of
    that one compiled world, summed exactly."""
    price = _linear_pricer(params, tuple(c), {"a": a, "a*": a_star})
    return math.fsum(price(_compile_formula(_worlds(SEQ2)[k - 1], SEQ2)))


def to_oracle(params, sd_m2=1.0, sd_y=1.0):
    """Repack LinearParams as the oracle's coefficient-dict shape (one covariate)."""
    t, b, g = params.theta, params.beta, params.gamma
    return {
        "theta": {f"t{i}": t[i] for i in range(8)}
        | {"t8": params.theta_c[0] if params.theta_c else 0.0},
        "beta": {f"b{i}": b[i] for i in range(4)}
        | {"b4": params.beta_c[0] if params.beta_c else 0.0},
        "gamma": {f"g{i}": g[i] for i in range(2)}
        | {"g2": params.gamma_c[0] if params.gamma_c else 0.0},
        "sd_m1": math.sqrt(params.sigma2_m1),
        "sd_m2": sd_m2,
        "sd_y": sd_y,
    }


def te_quartic(params, a, a_star, cval=0.0):
    """Transcription of the expanded total-effect polynomial (quartic in a).

    One coefficient in the published expansion drops a covariate factor from
    a (gamma0 + gamma2'c) term; the transcription keeps the factor, which is
    what makes the polynomial agree with the two-corner-world difference.
    """
    t, b, g = params.theta, params.beta, params.gamma
    s2 = params.sigma2_m1
    gc = g[0] + (params.gamma_c[0] * cval if params.gamma_c else 0.0)
    bc = b[0] + (params.beta_c[0] * cval if params.beta_c else 0.0)
    l1 = (
        t[1]
        + t[5] * bc
        + b[1] * t[3]
        + t[4] * gc
        + g[1] * t[2]
        + t[7] * bc * gc
        + b[1] * t[6] * gc
        + g[1] * t[6] * bc
        + t[5] * b[2] * gc
        + t[3] * b[3] * gc
        + t[3] * b[2] * g[1]
        + t[7] * b[2] * s2
        + t[6] * b[3] * s2
        + t[7] * b[2] * gc**2
        + t[6] * b[3] * gc**2
        + 2 * g[1] * t[6] * b[2] * gc
    )
    l2 = (
        b[1] * t[5]
        + g[1] * t[4]
        + b[1] * t[7] * gc
        + g[1] * t[7] * bc
        + g[1] * b[1] * t[6]
        + t[5] * b[3] * gc
        + t[5] * b[2] * g[1]
        + t[3] * b[3] * g[1]
        + t[7] * b[3] * s2
        + t[7] * b[3] * gc**2
        + 2 * g[1] * t[7] * b[2] * gc
        + 2 * g[1] * t[6] * b[3] * gc
        + t[6] * b[2] * g[1] ** 2
    )
    l3 = (
        g[1] * b[1] * t[7]
        + t[5] * b[3] * g[1]
        + 2 * g[1] * t[7] * b[3] * gc
        + t[7] * b[2] * g[1] ** 2
        + t[6] * b[3] * g[1] ** 2
    )
    l4 = t[7] * b[3] * g[1] ** 2
    return (
        l1 * (a - a_star)
        + l2 * (a**2 - a_star**2)
        + l3 * (a**3 - a_star**3)
        + l4 * (a**4 - a_star**4)
    )


def mc_term(rng, n, params, expr, q, cval=0.0):
    """Monte Carlo (mean, variance-of-mean) for one counterfactual formula."""
    t, b, g = params.theta, params.beta, params.gamma
    gcd = params.gamma_c[0] * cval if params.gamma_c else 0.0
    bcd = params.beta_c[0] * cval if params.beta_c else 0.0
    tcd = params.theta_c[0] * cval if params.theta_c else 0.0
    level = lambda e: float(q.a) if e.symbol == "a" else float(q.a_star)
    e_y = level(expr.exposure)
    m1spec, m2spec = expr.mediators
    if isinstance(m1spec, Fixed):
        m1 = np.full(n, float(q.m1_star))
    else:
        m1 = (
            g[0]
            + g[1] * level(m1spec.exposure)
            + gcd
            + math.sqrt(params.sigma2_m1) * rng.standard_normal(n)
        )
    if isinstance(m2spec, Fixed):
        m2 = np.full(n, float(q.m2_star))
    else:
        e2 = level(m2spec.exposure)
        m2 = b[0] + b[1] * e2 + b[2] * m1 + b[3] * e2 * m1 + bcd
        m2 = m2 + rng.standard_normal(n)
    y = (
        t[0]
        + t[1] * e_y
        + t[2] * m1
        + t[3] * m2
        + t[4] * e_y * m1
        + t[5] * e_y * m2
        + t[6] * m1 * m2
        + t[7] * e_y * m1 * m2
        + tcd
    )
    return float(y.mean()), float(y.var(ddof=1) / n)


def mc_component(rng, n, params, spec, q, cval=0.0):
    total, var = 0.0, 0.0
    for sign, expr in spec.terms:
        mean, v = mc_term(rng, n, params, expr, q, cval)
        total += sign * mean
        var += v
    return total, math.sqrt(var)


def residualize(col, basis):
    qb, _ = np.linalg.qr(np.column_stack(basis))
    return col - qb @ (qb.T @ col)


# ---------------------------------------------------------------------------
# plug-in sums


class TestPluginSeq2:
    def test_row_layout(self, dm1):
        result = plugin_seq2(dm1, Q)
        assert tuple(c.name for c in result.components) == ROW_NAMES
        in_sum = {c.name for c in result.components if c.in_sum}
        assert in_sum == set(ROW_NAMES) - {"PDE", "TE"}

    def test_dm1_golden_values(self, dm1):
        result = plugin_seq2(dm1, Q)
        by_hand = oracles.plugin_seq2_sums(
            oracles.DM1_YMEAN, oracles.DM1_PM1, oracles.DM1_PM2, Q
        )
        assert result["NatINT_AM2"] == pytest.approx(0.04, abs=1e-12)
        for name in ROW_NAMES:
            want = oracles.DM1_COMPONENTS[GOLDEN_KEY.get(name, name)]
            assert result[name] == pytest.approx(want, abs=1e-12), name
            assert by_hand[name] == pytest.approx(want, abs=1e-12), name
        assert result.sum_gap <= 1e-12

    def test_agrees_with_formula_route_on_dm1(self, dm1):
        by_sums = plugin_seq2(dm1, Q)
        by_formulas = decompose(dm1, Q)
        for name in ROW_NAMES:
            assert by_sums[name] == pytest.approx(by_formulas[name], abs=1e-12), name

    def test_constant_in_exposure_kills_everything(self):
        pm1 = {a: {0: 0.3, 1: 0.7} for a in (0, 1)}
        pm2 = {a: {m1: {0: 0.6, 1: 0.4} for m1 in (0, 1)} for a in (0, 1)}
        ymean = {a: {m1: {m2: 1.0 + m1 - m2 for m2 in (0, 1)} for m1 in (0, 1)} for a in (0, 1)}
        model = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
        result = plugin_seq2(model, Q)
        for c in result.components:
            assert c.value == 0.0, c.name
        assert result.te == 0.0

    def test_200_random_models_sum_te_and_two_paths(self):
        rng = np.random.default_rng(8121534)
        for trial in range(200):
            k1 = int(rng.integers(2, 4))
            k2 = int(rng.integers(2, 4))
            pm1, pm2, ymean = oracles.random_seq2_tables(rng, 2, k1, k2)
            model = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
            q = Query(a=1, a_star=0, m1_star=k1 - 1, m2_star=0)
            by_sums = plugin_seq2(model, q)
            assert by_sums.sum_gap <= 1e-9, f"trial {trial}"
            worlds = oracles.seq2_worlds(ymean, pm1, pm2)
            assert by_sums.te == pytest.approx(worlds[0] - worlds[7], abs=1e-12)
            by_formulas = evaluate_decomposition(model, components_seq2(q), q)
            by_hand = oracles.plugin_seq2_sums(ymean, pm1, pm2, q)
            for name in ROW_NAMES:
                assert by_sums[name] == pytest.approx(
                    by_formulas[name], abs=1e-9
                ), f"trial {trial}: {name}"
                assert by_sums[name] == pytest.approx(
                    by_hand[name], abs=1e-9
                ), f"trial {trial}: {name}"

    def test_nonseq_model_runs_through_the_same_sums(self):
        rng = np.random.default_rng(77)
        pm1, _, ymean = oracles.random_seq2_tables(rng, 2, 2, 3)
        pm2_marginal = {
            a: dict(zip(range(3), (rng.uniform(0.05, 1.0, 3) / 1.0).tolist()))
            for a in (0, 1)
        }
        for row in pm2_marginal.values():
            total = sum(row.values())
            for k in row:
                row[k] /= total
        model = DiscreteScm.nonseq2(pm1, pm2_marginal, ymean)
        q = Query(a=1, a_star=0, m1_star=0, m2_star=2)
        by_sums = plugin_seq2(model, q)
        flat = decompose(model, q)
        for name in set(ROW_NAMES) - {"INT_ref-AM2+AM1M2"}:
            assert by_sums[name] == pytest.approx(flat[name], abs=1e-12), name
        fused = flat["INT_ref-AM2"] + flat["INT_ref-AM1M2"]
        assert by_sums["INT_ref-AM2+AM1M2"] == pytest.approx(fused, abs=1e-12)

    def test_missing_fixed_levels(self, dm1):
        with pytest.raises(MissingFixedLevel, match="m1\\*, m2\\*"):
            plugin_seq2(dm1, Query(a=1, a_star=0))

    def test_unknown_level(self, dm1):
        with pytest.raises(UnknownSupportValue):
            plugin_seq2(dm1, Query(a=7, a_star=0, m1_star=0, m2_star=0))

    def test_single_mediator_model_rejected(self, ds1):
        with pytest.raises(ValueError, match="two-mediator"):
            plugin_seq2(ds1, Q)


# ---------------------------------------------------------------------------
# least squares


class TestFitOls:
    def test_exact_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        truth = np.array([1.5, -2.0, 0.25, 3.0])
        coef, var, _ = fit_ols(x, x @ truth)
        assert np.allclose(coef, truth, atol=1e-10)
        assert var == pytest.approx(0.0, abs=1e-18)

    def test_residual_variance_is_rss_over_dof(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 3))
        noise = residualize(rng.normal(size=80), [x[:, i] for i in range(3)])
        y = x @ np.array([1.0, 2.0, 3.0]) + noise
        _, var, _ = fit_ols(x, y)
        assert var == pytest.approx(float(noise @ noise) / (80 - 3), rel=1e-10)

    def test_duplicated_column_named(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 3))
        design = np.column_stack([x, 2.0 * x[:, 1]])
        with pytest.raises(RankDeficient) as err:
            fit_ols(design, rng.normal(size=30), names=("u", "v", "w", "v_again"))
        assert err.value.column in {"v", "v_again"}

    def test_zero_design_named(self):
        with pytest.raises(RankDeficient):
            fit_ols(np.zeros((10, 2)), np.ones(10))

    def test_dimension_errors(self):
        x = np.ones((5, 2))
        with pytest.raises(ValueError, match="rows"):
            fit_ols(x, np.ones(4))
        with pytest.raises(ValueError, match="regressors"):
            fit_ols(np.ones((2, 5)), np.ones(2))
        with pytest.raises(ValueError, match="2-d"):
            fit_ols(np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="names"):
            fit_ols(x, np.ones(5), names=("only one",))

    def test_non_finite_input_raises(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(10, 2)), rng.normal(size=10)
        bad_x, bad_y = x.copy(), y.copy()
        bad_x[3, 1] = np.inf
        bad_y[3] = np.nan
        for design, response in ((bad_x, y), (x, bad_y)):
            with pytest.raises(ValueError, match="must be finite"):
                fit_ols(design, response)

    def test_row_blocks_match_one_factorization(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 3 * natfx.estimate._QR_BLOCK_ROWS + 5
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=n)
        blocked = fit_ols(x, y)
        bad = y.copy()
        bad[-1] = np.nan  # in the last block
        with pytest.raises(ValueError, match="must be finite"):
            fit_ols(x, bad)
        with pytest.raises(RankDeficient) as err:
            fit_ols(np.column_stack([x, 2.0 * x[:, 2]]), y, names=("1", "u", "v", "w", "v_again"))
        assert err.value.column in {"v", "v_again"}
        monkeypatch.setattr(natfx.estimate, "_QR_BLOCK_ROWS", n)
        whole = fit_ols(x, y)
        np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-12)
        assert blocked[1:] == pytest.approx(whole[1:], rel=1e-12)

    def test_three_equation_simulation_within_3_se(self):
        rng = np.random.default_rng(314)
        n = 10_000
        a = rng.integers(0, 2, size=n).astype(float)
        c = rng.normal(size=n)
        gamma = np.array([0.5, 1.0, -0.6])
        beta = np.array([1.0, -0.8, 0.5, 0.7, 0.3])
        theta = np.array([2.0, 1.0, -0.5, 0.8, 0.6, -0.4, 0.3, 0.2, -1.0])
        m1 = np.column_stack([np.ones(n), a, c]) @ gamma + rng.normal(size=n)
        x2 = np.column_stack([np.ones(n), a, m1, a * m1, c])
        m2 = x2 @ beta + rng.normal(size=n)
        xy = np.column_stack(
            [np.ones(n), a, m1, m2, a * m1, a * m2, m1 * m2, a * m1 * m2, c]
        )
        y = xy @ theta + rng.normal(size=n)
        for design, resp, truth in (
            (np.column_stack([np.ones(n), a, c]), m1, gamma),
            (x2, m2, beta),
            (xy, y, theta),
        ):
            coef, var, _ = fit_ols(design, resp)
            cov = var * np.linalg.inv(design.T @ design)
            se = np.sqrt(np.diag(cov))
            assert np.all(np.abs(coef - truth) <= 3.0 * se)


# fit_linear_system against each equation fitted on its own whole design: the
# worst relative differences seen on 300 draws of `chain_samples` were 3.6e-13
# (coefficients, normwise per equation), 3.8e-13 (pivot ratio) and 9.7e-14
# (residual variance)
FIT_TOL = 1e-10


def gaussian_chain_sample(rng, n, k, log_m2):
    """Chain data from the Gaussian-linear model with `k` covariates, M2
    drawn on the log scale when `log_m2`."""
    c = {f"c{i}": rng.normal(size=n) for i in range(k)}
    a = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(float)
    m1 = rng.normal() + rng.normal() * a + 0.3 * sum(c.values(), np.zeros(n)) + rng.normal(size=n)
    lm2 = rng.normal() + rng.normal() * a + 0.25 * m1 + 0.1 * a * m1 + 0.5 * rng.normal(size=n)
    y = (1 + 0.5 * a + 0.4 * m1 + 0.6 * lm2 + 0.2 * a * m1 + 0.1 * m1 * lm2
         + 0.05 * a * m1 * lm2 + rng.normal(size=n))
    return Dataset(exposure=a, m1=m1, m2=np.exp(lm2) if log_m2 else lm2, outcome=y, covariates=c)


@st.composite
def chain_samples(draw):
    """Gaussian chains with 0-3 covariates, M2 on either scale, and n on
    both sides of the QR's block edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([9, _QR_BLOCK_ROWS - 1, _QR_BLOCK_ROWS, _QR_BLOCK_ROWS + 1, 20_011]))
    log_m2 = draw(st.booleans())
    return gaussian_chain_sample(rng, n, draw(st.integers(0, 3)), log_m2), log_m2


class TestFitLinearSystem:
    def _chain_with_orthogonal_noise(self, rng, n, params, cov_values=None):
        """Structural data whose noise is residualized against each design.

        Orthogonal noise makes least squares recover the generating
        coefficients exactly instead of only in expectation, which is what
        an exact-recovery test needs; plain zero noise would leave M1 a
        linear combination of the M1-model regressors and the outcome
        design rank deficient.
        """
        t, b, g = params.theta, params.beta, params.gamma
        a = rng.uniform(0.0, 2.0, size=n)
        covs = cov_values if cov_values is not None else []
        gcd = sum(ci * col for ci, col in zip(params.gamma_c, covs))
        bcd = sum(ci * col for ci, col in zip(params.beta_c, covs))
        tcd = sum(ci * col for ci, col in zip(params.theta_c, covs))
        ones = np.ones(n)
        e1 = residualize(rng.normal(size=n), [ones, a, *covs])
        m1 = g[0] + g[1] * a + gcd + e1
        e2 = residualize(rng.normal(size=n), [ones, a, m1, a * m1, *covs])
        m2 = b[0] + b[1] * a + b[2] * m1 + b[3] * a * m1 + bcd + e2
        y = (
            t[0]
            + t[1] * a
            + t[2] * m1
            + t[3] * m2
            + t[4] * a * m1
            + t[5] * a * m2
            + t[6] * m1 * m2
            + t[7] * a * m1 * m2
            + tcd
        )
        return a, m1, m2, y

    def test_exact_recovery_without_covariates(self):
        rng = np.random.default_rng(11)
        truth = make_params(rng)
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 500, truth)
        fit = fit_linear_system(Dataset(exposure=a, m1=m1, outcome=y, m2=m2))
        assert np.allclose(fit.params.theta, truth.theta, atol=1e-9)
        assert np.allclose(fit.params.beta, truth.beta, atol=1e-9)
        assert np.allclose(fit.params.gamma, truth.gamma, atol=1e-9)
        assert fit.sigma2_y == pytest.approx(0.0, abs=1e-12)
        assert fit.n_used == 500
        assert fit.n_dropped == 0

    def test_exact_recovery_with_covariates(self):
        rng = np.random.default_rng(12)
        truth = make_params(rng, k_cov=2)
        covs = [rng.normal(size=400), rng.uniform(-1, 1, size=400)]
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 400, truth, covs)
        fit = fit_linear_system(
            Dataset(
                exposure=a,
                m1=m1,
                outcome=y,
                m2=m2,
                covariates={"c_one": covs[0], "c_two": covs[1]},
            )
        )
        assert np.allclose(fit.params.theta, truth.theta, atol=1e-9)
        assert np.allclose(fit.params.theta_c, truth.theta_c, atol=1e-9)
        assert np.allclose(fit.params.beta_c, truth.beta_c, atol=1e-9)
        assert np.allclose(fit.params.gamma_c, truth.gamma_c, atol=1e-9)
        assert fit.covariate_names == ("c_one", "c_two")
        assert set(fit.tables) == {"outcome", "m2", "m1"}
        assert fit.tables["m1"]["A"] == pytest.approx(truth.gamma[1], abs=1e-9)
        for key in ("exposure", "m1", "m2", "outcome", "c_one", "c_two"):
            assert key in fit.sample_means

    def test_log_transform_recovery(self):
        rng = np.random.default_rng(13)
        truth = make_params(rng)
        a, m1, log_m2, y = self._chain_with_orthogonal_noise(rng, 500, truth)
        fit = fit_linear_system(
            Dataset(exposure=a, m1=m1, outcome=y, m2=np.exp(log_m2)),
            log_m2=True,
        )
        assert np.allclose(fit.params.beta, truth.beta, atol=1e-8)
        assert np.allclose(fit.params.theta, truth.theta, atol=1e-8)
        assert fit.sample_means["m2"] == pytest.approx(float(log_m2.mean()))

    def test_log_domain_error_names_rows(self):
        rng = np.random.default_rng(14)
        truth = make_params(rng)
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 60, truth)
        m2 = np.exp(m2)
        m2[5] = -1.0
        m2[17] = 0.0
        with pytest.raises(LogDomainError) as err:
            fit_linear_system(
                Dataset(exposure=a, m1=m1, outcome=y, m2=m2),
                log_m2=True,
            )
        assert err.value.rows == (5, 17)
        assert "rows 5, 17" in str(err.value)

    def test_listwise_deletion_counted(self):
        rng = np.random.default_rng(15)
        truth = make_params(rng)
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 200, truth)
        m1 = m1.copy()
        m1[3] = np.nan
        m1[7] = np.nan
        fit = fit_linear_system(
            Dataset(exposure=a, m1=m1, outcome=y, m2=m2, n_dropped=5)
        )
        assert fit.n_used == 198
        assert fit.n_dropped == 7

    def test_collinear_covariate_raises(self):
        rng = np.random.default_rng(16)
        truth = make_params(rng)
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 100, truth)
        with pytest.raises(RankDeficient) as err:
            fit_linear_system(
                Dataset(
                    exposure=a, m1=m1, outcome=y, m2=m2, covariates={"twin": a.copy()}
                )
            )
        assert err.value.column in {"A", "twin"}

    def test_non_numeric_column(self):
        data = Dataset(
            exposure=np.array(["low", "high", "low"]),
            m1=np.array([1.0, 2.0, 3.0]),
            outcome=np.array([0.1, 0.2, 0.3]),
            m2=np.array([1.0, 1.0, 2.0]),
        )
        with pytest.raises(ValueError, match="not numeric"):
            fit_linear_system(data)

    def test_missing_m2_role(self):
        data = Dataset(
            exposure=np.zeros(4), m1=np.ones(4), outcome=np.ones(4)
        )
        with pytest.raises(ValueError, match="m2"):
            fit_linear_system(data)

    def test_covariate_duplicating_m1_is_named_in_the_outcome_equation(self):
        # M1 is a regressor of the outcome and M2 equations but the M1
        # equation's response, so only the first two are rank deficient
        rng = np.random.default_rng(18)
        truth = make_params(rng)
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 300, truth)
        with pytest.raises(RankDeficient) as err:
            fit_linear_system(Dataset(exposure=a, m1=m1, outcome=y, m2=m2, covariates={"m1_copy": m1.copy()}))
        assert (err.value.column, err.value.index) == ("m1_copy", 8)  # the outcome equation's ninth column
        _, var, _ = fit_ols(np.column_stack([np.ones(300), a, m1]), m1)
        assert var == pytest.approx(0.0, abs=1e-20)

    def test_overflowing_products_raise_not_finite_and_warn_nothing(self):
        # every prepared column is finite; M1·M2 is not, in the second block of rows, and
        # A·M1·M2 is inf times 0 in the first
        rng = np.random.default_rng(19)
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, _QR_BLOCK_ROWS + 10, make_params(rng))
        m1[-3] = m2[-3] = 1e200
        a[0], m1[0], m2[0] = 1e200, 1e200, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                fit_linear_system(Dataset(exposure=a, m1=m1, outcome=y, m2=m2))
        assert str(err.value) == "design and response must be finite"

    def test_peak_memory_holds_no_design(self):
        # a 200k x 9 design is 13.7 MiB and the kept row indices 1.5; with no row dropped the
        # float columns are used in place, where gathering them took 7.6 MiB more (9.3 in all)
        rng = np.random.default_rng(20)
        n = 200_000
        a = rng.integers(0, 2, n).astype(float)
        m1 = rng.integers(0, 3, n).astype(float)
        m2 = rng.integers(0, 3, n).astype(float)
        data = Dataset(exposure=a, m1=m1, m2=m2, outcome=a + m1 * m2 + rng.normal(size=n))
        tracemalloc.start()
        try:
            fit_linear_system(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(chain_samples())
    def test_one_triangle_matches_each_equations_own_design(self, sample):
        data, log_m2 = sample
        columns, cov_names = oracles.prepared_columns(data, log_m2)
        designs = oracles.linear_designs(columns, cov_names)
        if len(columns["outcome"]) < designs[0][0].shape[1]:
            with pytest.raises(ValueError, match="cannot support"):
                fit_linear_system(data, log_m2=log_m2)
            return
        try:
            fit = fit_linear_system(data, log_m2=log_m2)
        except RankDeficient:
            # a pivot at or below the guard bounds the smallest singular value
            sigma = [np.linalg.svd(x, compute_uv=False) for x, _, _ in designs]
            assert min(s[-1] / s[0] for s in sigma) <= 2 * _PIVOT_TOL
            return
        want = oracles.linear_system_fit(columns, cov_names)
        sigma2 = {"outcome": fit.sigma2_y, "m2": fit.sigma2_m2, "m1": fit.params.sigma2_m1}
        for role, field in (("outcome", "theta"), ("m2", "beta"), ("m1", "gamma")):
            coef, var, ratio, dof = want[role]
            got = np.array([*getattr(fit.params, field), *getattr(fit.params, field + "_c")])
            assert np.abs(got - coef).max() <= FIT_TOL * np.abs(coef).max(), role
            assert sigma2[role] == pytest.approx(var, rel=FIT_TOL, abs=0.0), role
            assert fit.pivot_ratio[role] == pytest.approx(ratio, rel=FIT_TOL), role
            assert fit.residual_dof[role] == dof, role

    def test_roundtrip_through_dict(self):
        rng = np.random.default_rng(17)
        truth = make_params(rng, k_cov=1)
        covs = [rng.normal(size=300)]
        a, m1, m2, y = self._chain_with_orthogonal_noise(rng, 300, truth, covs)
        fit = fit_linear_system(
            Dataset(exposure=a, m1=m1, outcome=y, m2=m2, covariates={"age": covs[0]})
        )
        doc = json.loads(json.dumps(fit.to_dict()))
        assert LinearParams.from_dict(doc["params"]) == fit.params
        assert tuple(doc["covariates"]) == fit.covariate_names
        assert doc["tables"] == fit.tables


# ---------------------------------------------------------------------------
# closed-form worlds


class TestExpectationW:
    # Exposure triples (e_Y, e_M2, e_M1), restated here from the display
    # definitions rather than imported, so a transcription slip in the
    # module cannot hide.
    TRIPLES = {
        "W1": ("a", "a", "a"),
        "W2": ("a", "a*", "a"),
        "W3": ("a", "a", "a*"),
        "W4": ("a*", "a", "a"),
        "W5": ("a*", "a", "a*"),
        "W6": ("a*", "a*", "a"),
        "W7": ("a", "a*", "a*"),
        "W8": ("a*", "a*", "a*"),
    }

    def test_matches_independent_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params = make_params(rng, k_cov=1)
            oracle = to_oracle(params)
            a, a_star, cval = 1.4, -0.3, 0.9
            lv = {"a": a, "a*": a_star}
            for k, (which, (ey, e2, e1)) in enumerate(self.TRIPLES.items(), 1):
                want = oracles.linear_world_exact(
                    oracle, lv[ey], lv[e2], lv[e1], c_value=cval
                )
                got = world(params, k, a, a_star, c=(cval,))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), which

    def test_collapse_at_equal_exposures(self):
        rng = np.random.default_rng(22)
        params = make_params(rng, k_cov=1)
        kw = dict(a=0.8, a_star=0.8, c=(1.1,))
        assert world(params, 1, **kw) == world(params, 8, **kw)
        assert world(params, 2, **kw) == world(params, 6, **kw)
        assert world(params, 3, **kw) == world(params, 5, **kw)

    def test_w8_is_w1_with_exposures_swapped(self):
        rng = np.random.default_rng(23)
        params = make_params(rng)
        assert world(params, 1, 1.7, -0.2) == world(params, 8, -0.2, 1.7)

    def test_no_interaction_te_collapses(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = make_params(rng, k_cov=1)
            t = list(p.theta)
            t[4] = t[5] = t[6] = t[7] = 0.0
            b = list(p.beta)
            b[3] = 0.0
            p = replace(p, theta=tuple(t), beta=tuple(b))
            a, a_star = 2.0, 0.5
            diff = world(p, 1, a, a_star, c=(0.7,)) - world(p, 8, a, a_star, c=(0.7,))
            slope = p.theta[1] + p.theta[3] * p.beta[1] + p.theta[2] * p.gamma[1] + p.theta[3] * p.beta[2] * p.gamma[1]
            assert diff == pytest.approx(slope * (a - a_star), rel=1e-10, abs=1e-12)

    def test_w1_against_monte_carlo(self):
        rng = np.random.default_rng(25)
        params = make_params(rng, k_cov=1)
        q = Query(a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0)
        m1 = Counterfactual(TREATMENT)
        w1 = CfExpr(TREATMENT, (m1, Counterfactual(TREATMENT, (m1,))))
        mean, var = mc_term(rng, 1_000_000, params, w1, q, cval=0.4)
        got = world(params, 1, 1.0, 0.0, c=(0.4,))
        assert abs(got - mean) <= 3.0 * math.sqrt(var)


# ---------------------------------------------------------------------------
# closed-form decomposition


class TestLinearComponents:
    def test_row_layout(self):
        rng = np.random.default_rng(31)
        result = linear_components(make_params(rng), Query(1.0, 0.0, 0.3, -0.2))
        assert tuple(c.name for c in result.components) == ROW_NAMES
        assert {c.name for c in result.components if not c.in_sum} == {"PDE", "TE"}

    def test_covariate_length_checked(self):
        rng = np.random.default_rng(27)
        params = make_params(rng, k_cov=2)
        q = Query(1.0, 0.0, 0.3, -0.2)
        with pytest.raises(ValueError, match="covariate"):
            linear_components(params, q, c=(1.0,))
        profile = CovariateProfile(values=(1.0, 2.0), names=("sex", "age"))
        linear_components(params, q, c=profile)

    def test_sum_identity_1000_draws(self):
        rng = np.random.default_rng(32)
        for trial in range(1000):
            params = make_params(rng, k_cov=trial % 3)
            q = Query(
                a=float(rng.uniform(-2, 2)),
                a_star=float(rng.uniform(-2, 2)),
                m1_star=float(rng.uniform(-2, 2)),
                m2_star=float(rng.uniform(-2, 2)),
            )
            c = tuple(rng.uniform(-1, 1, size=trial % 3))
            result = linear_components(params, q, c)
            assert result.sum_gap <= 1e-9, f"trial {trial}"
            # each row's own polynomial display, written without the catalog
            by_hand = oracles.linear_closed_forms(params, q, c)
            for name in ROW_NAMES:
                assert result[name] == pytest.approx(
                    by_hand[name], rel=1e-9, abs=1e-9
                ), f"trial {trial}: {name}"

    def test_rows_match_world_combinations(self):
        rng = np.random.default_rng(33)
        combos = {
            "NatINT_AM1": {"W2": 1, "W6": -1, "W7": -1, "W8": 1},
            "NatINT_AM2": {"W3": 1, "W5": -1, "W7": -1, "W8": 1},
            "NatINT_AM1M2": {
                "W1": 1, "W2": -1, "W3": -1, "W4": -1,
                "W5": 1, "W6": 1, "W7": 1, "W8": -1,
            },
            "NatINT_M1M2": {"W4": 1, "W5": -1, "W6": -1, "W8": 1},
            "PIE_M1": {"W6": 1, "W8": -1},
            "PIE_M2": {"W5": 1, "W8": -1},
            "PDE": {"W7": 1, "W8": -1},
            "TE": {"W1": 1, "W8": -1},
        }
        for _ in range(50):
            params = make_params(rng, k_cov=1)
            q = Query(1.6, -0.4, m1_star=0.2, m2_star=0.9)
            c = (0.5,)
            result = linear_components(params, q, c)
            by_hand = oracles.linear_closed_forms(params, q, c)
            for name in ROW_NAMES:
                assert result[name] == pytest.approx(
                    by_hand[name], rel=1e-9, abs=1e-9
                ), name
            for name, combo in combos.items():
                want = sum(
                    sign * world(params, int(w[1:]), q.a, q.a_star, c)
                    for w, sign in combo.items()
                )
                assert result[name] == pytest.approx(want, rel=1e-9, abs=1e-9), name

    def test_te_matches_quartic_polynomial(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            params = make_params(rng, k_cov=1)
            a, a_star, cval = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), 0.7
            result = linear_components(
                params, Query(a, a_star, m1_star=0.0, m2_star=0.0), (cval,)
            )
            assert result.te == pytest.approx(
                te_quartic(params, a, a_star, cval), rel=1e-9, abs=1e-9
            )

    def test_interaction_free_rows_vanish(self):
        # Every interaction row carries one of the product coefficients
        # theta4..theta7 or beta3, so zeroing those five kills all six rows.
        rng = np.random.default_rng(35)
        p = make_params(rng, k_cov=1)
        t = list(p.theta)
        t[4] = t[5] = t[6] = t[7] = 0.0
        b = list(p.beta)
        b[3] = 0.0
        p = replace(p, theta=tuple(t), beta=tuple(b))
        result = linear_components(p, Query(1.5, -0.5, m1_star=0.4, m2_star=0.8), (0.3,))
        for name in (
            "INT_ref-AM1",
            "INT_ref-AM2+AM1M2",
            "NatINT_AM1",
            "NatINT_AM2",
            "NatINT_AM1M2",
            "NatINT_M1M2",
        ):
            assert result[name] == 0.0, name
        assert result["CDE"] == pytest.approx(result["PDE"], abs=1e-12)

    def test_degenerate_query_all_zero(self):
        rng = np.random.default_rng(36)
        result = linear_components(make_params(rng), Query(0.7, 0.7, 0.1, 0.2))
        for c in result.components:
            assert c.value == pytest.approx(0.0, abs=1e-12), c.name

    def test_sigma2_m1_sensitivity_set(self):
        """Only the rows whose displays carry sigma2 respond to it.

        The mediator-mediator interaction row does not: its world
        combination cancels the second-moment term exactly, and its
        polynomial display has no sigma2 factor.
        """
        rng = np.random.default_rng(37)
        base = make_params(rng, k_cov=1, sigma2=0.5)
        t = list(base.theta)
        t[5], t[6], t[7] = 0.9, 0.5, 0.8
        b = list(base.beta)
        b[1], b[2], b[3] = -0.7, 0.4, 0.6
        base = replace(base, theta=tuple(t), beta=tuple(b))
        bumped = replace(base, sigma2_m1=1.3)
        q = Query(1.0, 0.0, m1_star=0.3, m2_star=0.6)
        before = linear_components(base, q, (0.4,))
        after = linear_components(bumped, q, (0.4,))
        fixed_rows = (
            "CDE",
            "INT_ref-AM1",
            "NatINT_AM1",
            "NatINT_AM1M2",
            "NatINT_M1M2",
            "PIE_M1",
        )
        moving_rows = ("INT_ref-AM2+AM1M2", "NatINT_AM2", "PIE_M2", "PDE", "TE")
        for name in fixed_rows:
            assert before[name] == after[name], name
        for name in moving_rows:
            assert before[name] != after[name], name

    def test_location_equivariance(self):
        rng = np.random.default_rng(38)
        params = make_params(rng, k_cov=1)
        shifted = replace(
            params, theta=(params.theta[0] + 5.0,) + params.theta[1:]
        )
        q = Query(1.2, -0.2, m1_star=0.5, m2_star=0.1)
        c = (0.6,)
        for w in range(1, 9):
            assert world(shifted, w, q.a, q.a_star, c) == pytest.approx(
                world(params, w, q.a, q.a_star, c) + 5.0, rel=1e-12
            )
        before = linear_components(params, q, c)
        after = linear_components(shifted, q, c)
        for name in ROW_NAMES:
            if name == "TE":
                assert after[name] == pytest.approx(before[name], rel=1e-9, abs=1e-12)
            else:
                assert after[name] == before[name], name

    def test_components_against_monte_carlo(self):
        rng = np.random.default_rng(39)
        q = Query(1.3, -0.4, m1_star=0.7, m2_star=-0.5)
        for draw in range(4):
            params = make_params(rng, k_cov=1, scale=1.0)
            cval = 0.8
            result = linear_components(params, q, (cval,))
            for spec in components_seq2(q):
                mc, se = mc_component(rng, 150_000, params, spec, q, cval)
                # the floor covers rows whose terms are all deterministic
                assert abs(result[spec.name] - mc) <= 3.0 * se + 1e-12, (
                    f"draw {draw}: {spec.name}"
                )

    def test_missing_fixed_levels(self):
        rng = np.random.default_rng(40)
        with pytest.raises(MissingFixedLevel, match="m2\\*"):
            linear_components(make_params(rng), Query(1.0, 0.0, m1_star=0.1))

    def test_non_numeric_levels(self):
        rng = np.random.default_rng(41)
        with pytest.raises(ValueError, match="numeric"):
            linear_components(make_params(rng), Query("high", "low", 0.0, 0.0))


# ---------------------------------------------------------------------------
# containers


class TestLinearParams:
    def test_length_validation(self):
        with pytest.raises(ValueError, match="theta"):
            LinearParams(theta=(1.0,) * 7, beta=(0.0,) * 4, gamma=(0.0, 0.0))
        with pytest.raises(ValueError, match="share one length"):
            LinearParams(
                theta=(0.0,) * 8,
                beta=(0.0,) * 4,
                gamma=(0.0, 0.0),
                theta_c=(1.0,),
                beta_c=(1.0, 2.0),
                gamma_c=(1.0,),
            )

    def test_sigma2_and_finiteness(self):
        with pytest.raises(ValueError, match="sigma2_m1"):
            LinearParams(theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0), sigma2_m1=-0.1)
        with pytest.raises(ValueError, match="non-finite"):
            LinearParams(
                theta=(float("nan"),) + (0.0,) * 7, beta=(0.0,) * 4, gamma=(0.0, 0.0)
            )

    def test_dict_roundtrip(self):
        rng = np.random.default_rng(42)
        params = make_params(rng, k_cov=2)
        assert LinearParams.from_dict(params.to_dict()) == params
        with pytest.raises(ValueError, match="missing key"):
            LinearParams.from_dict({"theta": [0.0] * 8})

    def test_covariate_profile_validation(self):
        with pytest.raises(ValueError, match="names"):
            CovariateProfile(values=(1.0, 2.0), names=("solo",))


class TestAssumptionLedger:
    def test_single_scenario_ids(self):
        ledger = AssumptionLedger.for_scenario(Scenario.single())
        assert tuple(a.id for a in ledger.assumptions) == ("A'1", "A'2", "A'3", "A'4")
        assert not any(a.acknowledged for a in ledger.assumptions)
        assert all(a.prose for a in ledger.assumptions)

    def test_two_mediator_ids(self):
        for scenario in (Scenario.chain(2), Scenario.nonseq(2)):
            ledger = AssumptionLedger.for_scenario(scenario)
            assert tuple(a.id for a in ledger.assumptions) == (
                "A1", "A2", "A3", "A4", "A5", "A6",
            )

    def test_acknowledge_all(self):
        ledger = AssumptionLedger.for_scenario(Scenario.chain(2), acknowledged=True)
        assert all(a.acknowledged for a in ledger.assumptions)
        doc = ledger.as_dict()
        assert doc["scenario"] == "seq2"
        assert all(entry["acknowledged"] for entry in doc["assumptions"])


# ---------------------------------------------------------------------------
# the two engines on one model


def binary_seq2_tables(draw_p, p1_of_p0):
    """Binary seq2 tables from a source of probabilities and outcome means;
    P(M1=1 | a=1) is `p1_of_p0` of P(M1=1 | a=0)."""
    p0 = draw_p()
    p1 = p1_of_p0(p0)
    pm1 = {0: {0: 1.0 - p0, 1: p0}, 1: {0: 1.0 - p1, 1: p1}}
    pm2 = {a: {m1: (lambda q: {0: 1.0 - q, 1: q})(draw_p()) for m1 in (0, 1)} for a in (0, 1)}
    ymean = {a: {m1: {m2: draw_p() * 10.0 - 5.0 for m2 in (0, 1)} for m1 in (0, 1)}
             for a in (0, 1)}
    return pm1, pm2, ymean


def engine_gap(pm1, pm2, ymean, m1_star, m2_star):
    """The worst gap between the linear and the plug-in seq2 rows and TE of
    one binary model, relative to max(1, |TE|)."""
    model = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
    params = LinearParams(**oracles.linear_params_of_binary_model(pm1, pm2, ymean))
    want = decompose(model, Query(1, 0, m1_star, m2_star))
    got = linear_components(params, Query(1.0, 0.0, float(m1_star), float(m2_star)))
    assert [c.name for c in got.components] == [c.name for c in want.components]
    gaps = [abs(g.value - w.value) for g, w in zip(got.components, want.components)]
    return max(*gaps, abs(got.te - want.te)) / max(1.0, abs(want.te))


class TestEnginesAgree:
    """On a saturated binary model with Var(M1 | a) free of a, the linear
    closed forms and the plug-in tables price the same seq2 report."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.booleans(), st.sampled_from([0, 1]), st.sampled_from([0, 1]))
    def test_linear_equals_plugin(self, data, flip, m1_star, m2_star):
        def draw_p():
            return data.draw(st.floats(0.02, 0.98))

        tables = binary_seq2_tables(draw_p, (lambda p: 1.0 - p) if flip else (lambda p: p))
        assert engine_gap(*tables, m1_star, m2_star) <= 1e-12

    def test_unequal_m1_variance_breaks_the_bridge(self):
        # negative control: with Var(M1 | a=1) != Var(M1 | a=0) the linear
        # forms' one sigma2_m1 cannot stand for both, and rows drift apart
        rng = np.random.default_rng(5)
        tables = binary_seq2_tables(lambda: float(rng.uniform(0.05, 0.95)), lambda p: p / 2)
        assert all(engine_gap(*tables, m1, m2) > 1e-3 for m1 in (0, 1) for m2 in (0, 1))
