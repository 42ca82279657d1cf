from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from natfx.cfexpr import (
    CfExpr,
    Counterfactual,
    ExposureLevel,
    Fixed,
    Scenario,
    parse_cf,
)
from natfx.scm import (
    Dataset,
    DiscreteScm,
    EmptyCell,
    NonCategoricalColumn,
    NotIdentifiable,
    UnboundLevel,
    UnknownSupportValue,
    eval_expectation,
    from_dataset,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    simulate,
)

SEQ2 = Scenario.chain(2)

NATURAL_WORLD_FORMULAS = [
    "Y(a, M1(a), M2(a, M1(a)))",
    "Y(a, M1(a), M2(a*, M1(a)))",
    "Y(a, M1(a*), M2(a, M1(a*)))",
    "Y(a*, M1(a), M2(a, M1(a)))",
    "Y(a*, M1(a*), M2(a, M1(a*)))",
    "Y(a*, M1(a), M2(a*, M1(a)))",
    "Y(a, M1(a*), M2(a*, M1(a*)))",
    "Y(a*, M1(a*), M2(a*, M1(a*)))",
]


class TestEvalExpectation:
    def test_dm1_worlds_match_hand_values(self, dm1):
        got = [
            eval_expectation(dm1, parse_cf(f, SEQ2)) for f in NATURAL_WORLD_FORMULAS
        ]
        assert got == pytest.approx(oracles.DM1_WORLDS, abs=1e-12)

    def test_fixed_slots_match_oracle(self, dm1):
        expr = parse_cf("Y(a, m1*, M2(a*, m1*))", SEQ2)
        got = eval_expectation(dm1, expr, binding={"m1*": 1})
        want = oracles.seq2_mean(
            oracles.DM1_YMEAN, oracles.DM1_PM1, oracles.DM1_PM2,
            1, ("fixed", 1), ("nat", 0),
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_mixed_slots_match_oracle(self, dm1):
        expr = parse_cf("Y(a, M1(a*), m2*)", SEQ2)
        got = eval_expectation(dm1, expr, binding={"m2*": 0})
        want = oracles.seq2_mean(
            oracles.DM1_YMEAN, oracles.DM1_PM1, oracles.DM1_PM2,
            1, ("nat", 0), ("fixed", 0),
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_literal_exposure_symbols(self):
        # star-free symbols fall through to the support as literal level names
        pm1 = {"c": {0: 0.7, 1: 0.3}, "t": {0: 0.3, 1: 0.7}}
        ymean = {"c": {0: 1.0, 1: 2.0}, "t": {0: 2.0, 1: 5.0}}
        model = DiscreteScm(Scenario.single(), pm1=pm1, ymean=ymean)
        got = eval_expectation(model, parse_cf("Y(t, M1(c))", Scenario.single()))
        want = oracles.single_mean(ymean, pm1, "t", ("nat", "c"))
        assert got == pytest.approx(want, abs=1e-15)

    def test_binding_overrides_model_defaults(self, dm1):
        expr = parse_cf("Y(a, M1(a), M2(a, M1(a)))", SEQ2)
        swapped = eval_expectation(dm1, expr, binding={"a": 0})
        assert swapped == pytest.approx(oracles.DM1_WORLDS[7], abs=1e-12)

    def test_single_mediator_model(self, ds1):
        single = Scenario.single()
        e11 = eval_expectation(ds1, parse_cf("Y(a, M1(a))", single))
        e00 = eval_expectation(ds1, parse_cf("Y(a*, M1(a*))", single))
        assert e11 == pytest.approx(oracles.DS1_CORNERS[(1, 1)], abs=1e-12)
        assert e00 == pytest.approx(oracles.DS1_CORNERS[(0, 0)], abs=1e-12)
        assert e11 - e00 == pytest.approx(oracles.DS1_COMPONENTS["TE"], abs=1e-12)

    def test_problematic_formula_raises(self, dm1):
        expr = parse_cf("Y(a, M1(a), M2(a, M1(a*)))", SEQ2)
        with pytest.raises(NotIdentifiable) as err:
            eval_expectation(dm1, expr)
        assert "M1" in str(err.value)
        assert err.value.verdict.conflicts

    def test_unbound_treatment_symbol(self):
        model = DiscreteScm(
            Scenario.single(), pm1=oracles.DS1_PM1, ymean=oracles.DS1_YMEAN
        )
        expr = parse_cf("Y(a, M1(a))", Scenario.single())
        with pytest.raises(UnboundLevel):
            eval_expectation(model, expr)
        assert eval_expectation(model, expr, binding={"a": 1}) == pytest.approx(4.1)

    def test_unbound_fixed_label(self, ds1):
        expr = parse_cf("Y(a, m1*)", Scenario.single())
        with pytest.raises(UnboundLevel, match="m1\\*"):
            eval_expectation(ds1, expr)

    def test_binding_outside_support(self, dm1):
        expr = parse_cf("Y(a, M1(a), M2(a, M1(a)))", SEQ2)
        with pytest.raises(UnknownSupportValue):
            eval_expectation(dm1, expr, binding={"a": 7})


@st.composite
def _tables_and_spec(draw):
    seed = draw(st.integers(0, 10**6))
    ka = draw(st.integers(2, 3))
    k1 = draw(st.integers(2, 3))
    k2 = draw(st.integers(2, 3))
    rng = np.random.default_rng(seed)
    pm1, pm2, ymean = oracles.random_seq2_tables(rng, ka, k1, k2)
    levels = list(range(ka))
    e_y = draw(st.sampled_from(levels))
    fixed1 = draw(st.booleans())
    if fixed1:
        spec1 = ("fixed", draw(st.sampled_from(list(range(k1)))))
    else:
        spec1 = ("nat", draw(st.sampled_from(levels)))
    fixed2 = draw(st.booleans())
    if fixed2:
        spec2 = ("fixed", draw(st.sampled_from(list(range(k2)))))
    else:
        spec2 = ("nat", draw(st.sampled_from(levels)))
    return pm1, pm2, ymean, e_y, spec1, spec2


def _to_cfexpr(e_y, spec1, spec2) -> tuple[CfExpr, dict]:
    # placeholder symbols throughout; levels arrive via the binding
    binding = {"ey*": e_y}
    if spec1[0] == "fixed":
        m1 = Fixed("m1*")
        binding["m1*"] = spec1[1]
    else:
        m1 = Counterfactual(ExposureLevel("em1*"))
        binding["em1*"] = spec1[1]
    if spec2[0] == "fixed":
        m2 = Fixed("m2*")
        binding["m2*"] = spec2[1]
    else:
        # nested parent must repeat M1's top-slot spec to stay identifiable
        m2 = Counterfactual(ExposureLevel("em2*"), parents=(m1,))
        binding["em2*"] = spec2[1]
    return CfExpr(ExposureLevel("ey*"), (m1, m2)), binding


class TestEvalAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(_tables_and_spec())
    def test_random_models_match_triple_loop(self, case):
        pm1, pm2, ymean, e_y, spec1, spec2 = case
        model = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
        expr, binding = _to_cfexpr(e_y, spec1, spec2)
        got = eval_expectation(model, expr, binding=binding)
        want = oracles.seq2_mean(ymean, pm1, pm2, e_y, spec1, spec2)
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_tables_and_spec())
    def test_expectation_within_outcome_range(self, case):
        pm1, pm2, ymean, e_y, spec1, spec2 = case
        model = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
        expr, binding = _to_cfexpr(e_y, spec1, spec2)
        got = eval_expectation(model, expr, binding=binding)
        cells = [v for row in ymean[e_y].values() for v in row.values()]
        assert min(cells) - 1e-12 <= got <= max(cells) + 1e-12


class TestModelValidation:
    def test_row_drift_within_tolerance_is_renormalized(self):
        pm1 = {0: {0: 0.7 + 4e-13, 1: 0.3}, 1: {0: 0.3, 1: 0.7}}
        model = DiscreteScm(Scenario.single(), pm1=pm1, ymean=oracles.DS1_YMEAN)
        assert sum(model.pm1[0].values()) == pytest.approx(1.0, abs=1e-15)

    def test_row_drift_beyond_tolerance_raises(self):
        pm1 = {0: {0: 0.7, 1: 0.31}, 1: {0: 0.3, 1: 0.7}}
        with pytest.raises(ValueError, match="sums to"):
            DiscreteScm(Scenario.single(), pm1=pm1, ymean=oracles.DS1_YMEAN)

    def test_negative_probability_raises(self):
        pm1 = {0: {0: 1.1, 1: -0.1}, 1: {0: 0.3, 1: 0.7}}
        with pytest.raises(ValueError, match="negative"):
            DiscreteScm(Scenario.single(), pm1=pm1, ymean=oracles.DS1_YMEAN)

    def test_nan_probability_raises(self):
        pm1 = {0: {0: float("nan"), 1: 0.5}, 1: {0: 0.3, 1: 0.7}}
        with pytest.raises(ValueError, match=r"pm1\[0\] has a negative or NaN probability nan"):
            DiscreteScm(Scenario.single(), pm1=pm1, ymean=oracles.DS1_YMEAN)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_cell_mean_names_the_cell(self, bad):
        ymean = {0: {0: 1.0, 1: 2.0}, 1: {0: bad, 1: 3.0}}
        match = r"ymean\[1\]\[0\] is (inf|nan); cell means must be finite"
        with pytest.raises(ValueError, match=match):
            DiscreteScm(Scenario.single(), pm1=oracles.DS1_PM1, ymean=ymean)

    def test_missing_ymean_cell_raises(self):
        ymean = {0: {0: 1.0}, 1: {0: 2.0, 1: 3.0}}
        with pytest.raises(ValueError, match="missing"):
            DiscreteScm(Scenario.single(), pm1=oracles.DS1_PM1, ymean=ymean)

    def test_nonseq_requires_m1_invariant_pm2(self):
        pm2 = {
            a: {m1: {0: 0.5 + 0.1 * m1, 1: 0.5 - 0.1 * m1} for m1 in (0, 1)}
            for a in (0, 1)
        }
        with pytest.raises(ValueError, match="independent of M1"):
            DiscreteScm(
                Scenario.nonseq(2),
                pm1=oracles.DM1_PM1,
                pm2=pm2,
                ymean=oracles.DM1_YMEAN,
            )

    def test_nonseq2_factory_expands_marginal(self):
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        model = DiscreteScm.nonseq2(
            oracles.DM1_PM1, marginal, oracles.DM1_YMEAN, treatment=1, reference=0
        )
        assert model.pm2[1][0] == model.pm2[1][1]
        assert model.pm2[1][0][1] == pytest.approx(0.3)

    def test_treatment_outside_support_raises(self):
        with pytest.raises(ValueError, match="treatment"):
            DiscreteScm(
                Scenario.single(),
                pm1=oracles.DS1_PM1,
                ymean=oracles.DS1_YMEAN,
                treatment=2,
            )


class TestSimulate:
    def test_deterministic_for_fixed_seed(self, dm1):
        d1 = simulate(dm1, 500, seed=42)
        d2 = simulate(dm1, 500, seed=42)
        assert np.array_equal(d1.exposure, d2.exposure)
        assert np.array_equal(d1.m1, d2.m1)
        assert np.array_equal(d1.m2, d2.m2)
        assert np.array_equal(d1.outcome, d2.outcome)
        d3 = simulate(dm1, 500, seed=43)
        assert not np.array_equal(d1.outcome, d3.outcome)

    def test_frequencies_track_tables(self, dm1):
        data = simulate(dm1, 200_000, seed=7)
        a1 = data.exposure == 1
        p_m1 = (data.m1[a1] == 1).mean()
        assert p_m1 == pytest.approx(dm1.pm1[1][1], abs=0.01)
        both = a1 & (data.m1 == 1)
        p_m2 = (data.m2[both] == 1).mean()
        assert p_m2 == pytest.approx(dm1.pm2[1][1][1], abs=0.01)

    def test_zero_noise_reproduces_cell_means(self, dm1):
        data = simulate(dm1, 2000, seed=3, noise_sd=0.0)
        for i in range(data.n):
            a, m1, m2 = data.exposure[i], data.m1[i], data.m2[i]
            assert data.outcome[i] == dm1.ymean[a][m1][m2]

    def test_n_must_be_positive(self, dm1):
        with pytest.raises(ValueError, match=">= 1"):
            simulate(dm1, 0, seed=0)

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_bad_noise_sd_raises(self, ds1, noise_sd):
        # a non-finite or negative spread would write non-finite or meaningless outcomes
        with pytest.raises(ValueError, match=f"noise_sd must be finite and >= 0, got {noise_sd}"):
            simulate(ds1, 10, seed=0, noise_sd=noise_sd)

    def test_single_mediator_shape(self, ds1):
        data = simulate(ds1, 100, seed=1)
        assert data.m2 is None
        assert data.n == 100


class TestFromDataset:
    def test_noise_free_roundtrip_recovers_cell_means(self, dm1):
        data = simulate(dm1, 50_000, seed=11, noise_sd=0.0)
        fitted = from_dataset(data, SEQ2)
        for a in (0, 1):
            for m1 in (0, 1):
                for m2 in (0, 1):
                    assert fitted.ymean[a][m1][m2] == pytest.approx(
                        dm1.ymean[a][m1][m2], abs=1e-9
                    )
                assert fitted.pm1[a][m1] == pytest.approx(dm1.pm1[a][m1], abs=0.02)

    def test_non_finite_outcome_names_its_rows(self):
        outcome = np.ones(40)
        outcome[[3, 17]] = (np.nan, np.inf)
        data = Dataset(exposure=np.tile([0, 1], 20), m1=np.repeat([0, 1], 20), outcome=outcome)
        match = "column 'outcome' holds non-finite values at rows 3, 17$"
        with pytest.raises(ValueError, match=match):
            from_dataset(data, Scenario.single())

    def test_empty_outcome_cell_listed(self):
        rows = [(a, m1, m2) for a in (0, 1) for m1 in (0, 1) for m2 in (0, 1)]
        rows = [r for r in rows if r != (1, 1, 1)]
        arr = np.array(rows)
        data = Dataset(
            exposure=arr[:, 0], m1=arr[:, 1], m2=arr[:, 2], outcome=np.ones(len(rows))
        )
        with pytest.raises(EmptyCell) as err:
            from_dataset(data, SEQ2)
        assert err.value.cells == (( ("A", 1), ("M1", 1), ("M2", 1)),)

    def test_nonseq_scenario_pools_m2_rows(self, dm1):
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        truth = DiscreteScm.nonseq2(oracles.DM1_PM1, marginal, oracles.DM1_YMEAN)
        data = simulate(truth, 30_000, seed=9)
        fitted = from_dataset(data, Scenario.nonseq(2))
        assert fitted.pm2[1][0] == fitted.pm2[1][1]
        assert fitted.pm2[1][0][1] == pytest.approx(0.3, abs=0.02)

    def test_continuous_column_rejected(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            exposure=np.tile([0, 1], 50),
            m1=rng.normal(size=100),
            outcome=np.ones(100),
        )
        with pytest.raises(NonCategoricalColumn, match="m1"):
            from_dataset(data, Scenario.single())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_observed_levels_match_row_tally(self, draw):
        seed = draw.draw(st.integers(0, 10**6))
        rng = np.random.default_rng(seed)
        columns = []
        for _ in range(3):
            observed = draw.draw(
                st.lists(st.integers(-5, 9), min_size=1, max_size=3, unique=True)
            )
            columns.append(np.asarray(observed)[rng.integers(0, len(observed), 60)])
        outcome = rng.normal(size=60)
        data = Dataset(
            exposure=columns[0], m1=columns[1], m2=columns[2], outcome=outcome
        )
        supports = [sorted(set(c.tolist())) for c in columns]
        pm1, pm2, ymean, empty = oracles.plugin_seq2_tables(
            *columns, outcome, *supports
        )
        if empty:
            with pytest.raises(EmptyCell) as err:
                from_dataset(data, SEQ2)
            assert list(err.value.cells) == empty
            return
        fitted = from_dataset(data, SEQ2)
        assert (fitted.exposure_levels, fitted.m1_levels, fitted.m2_levels) == tuple(
            tuple(s) for s in supports
        )
        _assert_tables_match(fitted, pm1, pm2, ymean)


def _assert_tables_match(fitted, pm1, pm2, ymean):
    for a in pm1:
        for m1 in pm1[a]:
            assert fitted.pm1[a][m1] == pytest.approx(pm1[a][m1], abs=1e-12)
            for m2 in pm2[a][m1]:
                assert fitted.pm2[a][m1][m2] == pytest.approx(pm2[a][m1][m2], abs=1e-12)
                assert fitted.ymean[a][m1][m2] == pytest.approx(
                    ymean[a][m1][m2], abs=1e-12
                )


class TestModelJson:
    def test_roundtrip_preserves_world_values(self, dm1):
        doc = model_to_json(dm1)
        back = model_from_json(doc)
        assert back.treatment == "1" and back.reference == "0"
        for formula in NATURAL_WORLD_FORMULAS:
            expr = parse_cf(formula, SEQ2)
            assert eval_expectation(back, expr) == pytest.approx(
                eval_expectation(dm1, expr), abs=1e-15
            )

    def test_nonseq_document_uses_flat_pm2(self):
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        model = DiscreteScm.nonseq2(oracles.DM1_PM1, marginal, oracles.DM1_YMEAN)
        doc = model_to_json(model)
        assert doc["pm2"]["1"] == {"0": 0.7, "1": 0.3}
        back = model_from_json(doc)
        assert back.pm2["1"]["0"]["1"] == pytest.approx(0.3)

    def test_flat_pm2_rejected_for_sequential_scenario(self, dm1):
        doc = model_to_json(dm1)
        doc["pm2"] = {"0": {"0": 0.5, "1": 0.5}, "1": {"0": 0.5, "1": 0.5}}
        with pytest.raises(ValueError, match="flat pm2"):
            model_from_json(doc)

    def test_file_roundtrip(self, dm1, tmp_path):
        path = tmp_path / "model.json"
        save_model(dm1, str(path))
        back = load_model(str(path))
        expr = parse_cf("Y(a, M1(a), M2(a, M1(a)))", SEQ2)
        assert eval_expectation(back, expr) == pytest.approx(5.0, abs=1e-12)


class TestDataset:
    def test_take_resamples_rows(self, dm1):
        data = simulate(dm1, 50, seed=1)
        sub = data.take(np.array([0, 0, 3]))
        assert sub.n == 3
        assert sub.exposure[0] == data.exposure[0]
        assert sub.exposure[2] == data.exposure[3]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(exposure=np.zeros(3), m1=np.zeros(2), outcome=np.zeros(3))
