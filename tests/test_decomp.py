from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from natfx import decomp
from natfx.cfexpr import Fixed, Scenario, check_identifiability, format_cf
from natfx.decomp import (
    ComponentSpec,
    EvaluationOfProblematicSpec,
    MissingFixedLevel,
    Query,
    _catalog,
    _exact_sums,
    components_for,
    components_nonseq2,
    components_seq2,
    components_single,
    decompose,
    evaluate_decomposition,
    mediated_contrasts,
    total_effect,
)
from natfx.estimate import LinearParams, linear_components
from natfx.infer import BootstrapConfig, PluginEstimator, bootstrap
from natfx.scm import DiscreteScm, simulate

Q = Query(a=1, a_star=0, m1_star=0, m2_star=0)
SEQ2 = Scenario.chain(2)
NONSEQ2 = Scenario.nonseq(2)
SINGLE = Scenario.single()


def _core(specs: list[ComponentSpec]) -> list[ComponentSpec]:
    return [s for s in specs if s.in_sum]


class TestSingleCatalog:
    def test_hand_checked_values(self, ds1):
        result = decompose(ds1, Q)
        for name, want in oracles.DS1_COMPONENTS.items():
            assert result[name] == pytest.approx(want, abs=1e-12), name
        assert result.te == pytest.approx(2.8, abs=1e-12)
        assert result.sum_gap < 1e-12

    def test_core_row_order(self):
        names = [s.name for s in _core(components_single(Q))]
        assert names == ["CDE", "INT_ref", "INT_med", "PIE"]

    def test_no_interaction_coefficient_kills_both_int_rows(self):
        ymean = {a: {m: 1.0 + a + m for m in (0, 1)} for a in (0, 1)}
        model = DiscreteScm(SINGLE, pm1=oracles.DS1_PM1, ymean=ymean)
        result = decompose(model, Q)
        assert result["INT_ref"] == pytest.approx(0.0, abs=1e-12)
        assert result["INT_med"] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_query_zeroes_everything(self, ds1):
        result = decompose(ds1, Query(a=1, a_star=1, m1_star=0))
        for c in result.components:
            assert c.value == pytest.approx(0.0, abs=1e-12), c.name

    def test_flavor_identities(self, ds1):
        result = decompose(ds1, Q)
        te = result.te
        assert result["NDE_pure"] + result["NIE_total"] == pytest.approx(te, abs=1e-12)
        assert result["NDE_total"] + result["NIE_pure"] == pytest.approx(te, abs=1e-12)

    def test_natint_equals_int_med(self, ds1):
        result = decompose(ds1, Q)
        assert result["NatINT_AM"] == result["INT_med"]

    def test_missing_fixed_level_raises(self):
        with pytest.raises(MissingFixedLevel, match="m1\\*"):
            components_single(Query(a=1, a_star=0))


class TestSeq2Catalog:
    def test_dm1_matches_hand_values(self, dm1):
        result = decompose(dm1, Q)
        for name in (
            "TE",
            "PIE_M1",
            "PIE_M2",
            "NatINT_AM1",
            "NatINT_AM2",
            "NatINT_AM1M2",
            "NatINT_M1M2",
            "PDE",
            "CDE",
        ):
            assert result[name] == pytest.approx(
                oracles.DM1_COMPONENTS[name], abs=1e-12
            ), name
        assert result.sum_gap < 1e-12

    def test_dm1_reference_interactions(self, dm1):
        # PDE splits as CDE + INT_ref-AM1 + the fused AM2 interaction row
        result = decompose(dm1, Q)
        assert result["INT_ref-AM1"] == pytest.approx(
            oracles.DM1_COMPONENTS["IR1"], abs=1e-12
        )
        assert result["INT_ref-AM2+AM1M2"] == pytest.approx(
            oracles.DM1_COMPONENTS["IR2"], abs=1e-12
        )
        assert result["PDE"] == pytest.approx(
            result["CDE"] + result["INT_ref-AM1"] + result["INT_ref-AM2+AM1M2"],
            abs=1e-12,
        )

    def test_report_row_order(self):
        names = [s.name for s in components_seq2(Q)]
        assert names == [
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
        ]
        assert len(_core(components_seq2(Q))) == 9

    def test_extended_rows(self, dm1):
        result = decompose(dm1, Q, extended=True)
        assert result["TDE"] == pytest.approx(oracles.DM1_COMPONENTS["TDE"], abs=1e-12)
        assert result["SIE_M1"] == pytest.approx(
            oracles.DM1_COMPONENTS["SIE_M1"], abs=1e-12
        )
        assert result["TDE"] + result["SIE_M1"] + result["PIE_M2"] == pytest.approx(
            result.te, abs=1e-12
        )

    def test_every_core_spec_is_identifiable(self):
        for spec in components_seq2(Q):
            for _, expr in spec.terms:
                assert check_identifiability(expr, SEQ2).identifiable, spec.name

    def test_sum_identity_on_200_random_models(self):
        rng = np.random.default_rng(20260822)
        for trial in range(200):
            ka = int(rng.integers(2, 4))
            k1 = int(rng.integers(2, 4))
            k2 = int(rng.integers(2, 4))
            pm1, pm2, ymean = oracles.random_seq2_tables(rng, ka, k1, k2)
            ymean = {
                a: {
                    m1: {m2: float(rng.uniform(-5, 5)) for m2 in row.keys()}
                    for m1, row in rows.items()
                }
                for a, rows in ymean.items()
            }
            model = DiscreteScm(SEQ2, pm1=pm1, pm2=pm2, ymean=ymean)
            q = Query(a=1, a_star=0, m1_star=0, m2_star=k2 - 1)
            result = evaluate_decomposition(model, components_seq2(q), q)
            assert result.sum_gap <= 1e-9, f"trial {trial}"

    def test_degenerate_query(self, dm1):
        result = decompose(dm1, Query(a=1, a_star=1, m1_star=0, m2_star=0))
        for c in result.components:
            assert c.value == pytest.approx(0.0, abs=1e-12), c.name

    def test_missing_fixed_levels_raise(self):
        with pytest.raises(MissingFixedLevel, match="m2\\*"):
            components_seq2(Query(a=1, a_star=0, m1_star=0))


class TestNonseq2Catalog:
    @staticmethod
    def _model() -> DiscreteScm:
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        return DiscreteScm.nonseq2(oracles.DM1_PM1, marginal, oracles.DM1_YMEAN)

    def test_row_order_and_core_count(self):
        names = [s.name for s in components_nonseq2(Q)]
        assert names == [
            "CDE",
            "INT_ref-AM1",
            "INT_ref-AM2",
            "INT_ref-AM1M2",
            "NatINT_AM1",
            "NatINT_AM2",
            "NatINT_AM1M2",
            "NatINT_M1M2",
            "PDE",
            "PIE_M1",
            "PIE_M2",
            "TE",
        ]
        assert len(_core(components_nonseq2(Q))) == 10

    def test_natint_am1_spec_formula(self):
        spec = next(s for s in components_nonseq2(Q) if s.name == "NatINT_AM1")
        assert spec.formula() == (
            "Y(a, M1(a), M2(a*)) - Y(a*, M1(a), M2(a*)) "
            "- Y(a, M1(a*), M2(a*)) + Y(a*, M1(a*), M2(a*))"
        )

    def test_am1m2_sign_pattern(self):
        spec = next(s for s in components_nonseq2(Q) if s.name == "NatINT_AM1M2")
        assert [sign for sign, _ in spec.terms] == [1, -1, -1, -1, 1, 1, 1, -1]

    def test_sum_identity_on_200_random_models(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            k1 = int(rng.integers(2, 4))
            k2 = int(rng.integers(2, 4))
            pm1, _, ymean = oracles.random_seq2_tables(rng, 2, k1, k2)

            def row(keys):
                raw = rng.uniform(0.05, 1.0, size=len(keys))
                raw /= raw.sum()
                return dict(zip(list(keys), raw.tolist()))

            marginal = {a: row(range(k2)) for a in (0, 1)}
            model = DiscreteScm.nonseq2(pm1, marginal, ymean)
            q = Query(a=1, a_star=0, m1_star=k1 - 1, m2_star=0)
            result = evaluate_decomposition(model, components_nonseq2(q), q)
            assert result.sum_gap <= 1e-9, f"trial {trial}"

    def test_pde_splits_into_cde_and_reference_rows(self):
        result = evaluate_decomposition(self._model(), components_nonseq2(Q), Q)
        assert result["PDE"] == pytest.approx(
            result["CDE"]
            + result["INT_ref-AM1"]
            + result["INT_ref-AM2"]
            + result["INT_ref-AM1M2"],
            abs=1e-12,
        )

    def test_nesting_consistency_with_seq2(self):
        # the same tables viewed as one-path with pm2 constant in m1 give
        # identical CDE, NatINT and PIE rows
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        flat = DiscreteScm.nonseq2(oracles.DM1_PM1, marginal, oracles.DM1_YMEAN)
        expanded = {
            a: {m1: dict(marginal[a]) for m1 in (0, 1)} for a in (0, 1)
        }
        chain = DiscreteScm(
            SEQ2, pm1=oracles.DM1_PM1, pm2=expanded, ymean=oracles.DM1_YMEAN
        )
        flat_result = evaluate_decomposition(flat, components_nonseq2(Q), Q)
        chain_result = evaluate_decomposition(chain, components_seq2(Q), Q)
        for name in (
            "CDE",
            "NatINT_AM1",
            "NatINT_AM2",
            "NatINT_AM1M2",
            "NatINT_M1M2",
            "PIE_M1",
            "PIE_M2",
            "TE",
        ):
            assert flat_result[name] == pytest.approx(
                chain_result[name], abs=1e-12
            ), name


class TestMediatedContrasts:
    def test_single_equals_natint(self, ds1):
        (spec,) = mediated_contrasts(Query(a=1, a_star=0), SINGLE)
        assert spec.name == "INT_med"
        assert not spec.problematic
        got = evaluate_decomposition(ds1, (spec,), Query(a=1, a_star=0))[spec.name]
        assert got == pytest.approx(oracles.DS1_COMPONENTS["INT_med"], abs=1e-12)

    def test_nonseq2_int_med_am1_is_evaluable(self):
        marginal = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.7, 1: 0.3}}
        model = DiscreteScm.nonseq2(oracles.DM1_PM1, marginal, oracles.DM1_YMEAN)
        (spec,) = mediated_contrasts(Q, NONSEQ2)
        assert spec.name == "INT_med-AM1"
        got = evaluate_decomposition(model, (spec,), Q)[spec.name]
        want = sum(
            sign
            * oracles.seq2_mean(
                model.ymean, model.pm1, model.pm2, ey, ("nat", e1), ("fixed", 0)
            )
            for sign, ey, e1 in [(1, 1, 1), (-1, 0, 1), (-1, 1, 0), (1, 0, 0)]
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_seq2_flags_and_anchor(self):
        specs = {s.name: s for s in mediated_contrasts(Q, SEQ2)}
        assert not specs["INT_med-AM1"].problematic
        assert specs["INT_med-AM2"].problematic
        assert specs["INT_med-AM1M2"].problematic
        anchor = "Y(a, m1*, M2(a*, M1(a*)))"
        for name in ("INT_med-AM2", "INT_med-AM1M2"):
            formulas = [format_cf(expr) for _, expr in specs[name].terms]
            assert anchor in formulas, name

    def test_flagged_specs_fail_identifiability(self):
        for spec in mediated_contrasts(Q, SEQ2):
            bad = [
                expr
                for _, expr in spec.terms
                if not check_identifiability(expr, SEQ2).identifiable
            ]
            assert bool(bad) == spec.problematic, spec.name

    def test_term_counts(self):
        specs = {s.name: s for s in mediated_contrasts(Q, SEQ2)}
        assert len(specs["INT_med-AM1"].terms) == 4
        assert len(specs["INT_med-AM2"].terms) == 4
        assert len(specs["INT_med-AM1M2"].terms) == 12

    def test_evaluation_of_problematic_spec_raises(self, dm1):
        specs = {s.name: s for s in mediated_contrasts(Q, SEQ2)}
        with pytest.raises(EvaluationOfProblematicSpec, match="INT_med-AM2"):
            evaluate_decomposition(dm1, (specs["INT_med-AM2"],), Q)

    def test_seq2_int_med_am1_equals_nonseq_shape(self, dm1):
        # pinning M2 at m2* severs the chain: the contrast only sees pm1
        specs = {s.name: s for s in mediated_contrasts(Q, SEQ2)}
        got = evaluate_decomposition(dm1, (specs["INT_med-AM1"],), Q)["INT_med-AM1"]
        want = sum(
            sign
            * oracles.seq2_mean(
                oracles.DM1_YMEAN,
                oracles.DM1_PM1,
                oracles.DM1_PM2,
                ey,
                ("nat", e1),
                ("fixed", 0),
            )
            for sign, ey, e1 in [(1, 1, 1), (-1, 0, 1), (-1, 1, 0), (1, 0, 0)]
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestDispatch:
    def test_components_for_routes_by_scenario(self):
        assert [s.name for s in components_for(SINGLE, Q)][0] == "CDE"
        assert len(_core(components_for(NONSEQ2, Q))) == 10
        assert len(_core(components_for(SEQ2, Q))) == 9

    def test_total_effect_names(self):
        for scenario in (SINGLE, NONSEQ2, SEQ2):
            spec = total_effect(scenario)
            assert spec.name == "TE"
            assert len(spec.terms) == 2

    @pytest.mark.parametrize(
        "scenario, extended, formulas, terms",
        [
            (SINGLE, False, 6, 26),
            (SINGLE, True, 6, 26),
            (NONSEQ2, False, 14, 46),
            (NONSEQ2, True, 14, 50),
            (SEQ2, False, 12, 38),
            (SEQ2, True, 12, 42),
        ],
    )
    def test_compiled_catalog_sizes(self, scenario, extended, formulas, terms):
        catalog = _catalog(scenario, extended)
        assert len(catalog.formulas) == formulas
        assert sum(len(row) for row in catalog.rows) == terms

    @pytest.mark.parametrize("scenario", [SINGLE, NONSEQ2, SEQ2])
    @pytest.mark.parametrize("extended", [False, True])
    def test_te_row_is_the_total_effect(self, scenario, extended):
        (te,) = [s for s in _catalog(scenario, extended).specs if s.name == "TE"]
        assert te.terms == total_effect(scenario).terms

    def test_each_catalog_compiles_once_however_it_is_asked_for(self, monkeypatch):
        compiled = []
        compile_ = decomp._compile
        monkeypatch.setattr(decomp, "_compile", lambda specs, scenario: (
            compiled.append(scenario.id) or compile_(specs, scenario)))
        decomp._compiled.cache_clear()
        for scenario in (SINGLE, NONSEQ2, SEQ2, Scenario.from_id("chain2")):
            assert _catalog(scenario) is _catalog(scenario, False)
            for extended in (False, True):
                first = _catalog(scenario, extended)
                assert _catalog(scenario, extended=extended) is first
                assert _catalog(scenario, int(extended)) is first
        assert compiled == ["single", "single", "nonseq2", "nonseq2", "seq2", "seq2"]

    @pytest.mark.parametrize("scenario", [Scenario.chain(3), Scenario.nonseq(3)])
    def test_a_scenario_without_a_catalog_keeps_its_named_error(self, scenario):
        for _ in range(2):  # a failed compile is not cached
            with pytest.raises(ValueError, match=f"^no component catalog for scenario {scenario.id}$"):
                components_for(scenario, Q)

    def test_single_int_med_contrast_is_the_catalog_row(self):
        (contrast,) = mediated_contrasts(Q, SINGLE)
        (row,) = [s for s in _catalog(SINGLE).specs if s.name == "INT_med"]
        assert contrast.terms == row.terms
        assert not contrast.in_sum and row.in_sum


@st.composite
def _model_and_query(draw):
    """A random single, nonseq2 or seq2 model whose declared level orders are
    permuted against its table keys, plus a query, and the raw tables."""
    scenario = draw(st.sampled_from([SINGLE, NONSEQ2, SEQ2]))
    ka, k1, k2 = (draw(st.integers(2, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    pm1, pm2, ymean = oracles.random_seq2_tables(rng, ka, k1, k2)
    order = {
        "exposure_levels": tuple(draw(st.permutations(range(ka)))),
        "m1_levels": tuple(draw(st.permutations(range(k1)))),
    }
    if scenario is SINGLE:
        ymean = {a: {m1: row[0] for m1, row in rows.items()} for a, rows in ymean.items()}
        model = DiscreteScm(scenario, pm1=pm1, ymean=ymean, **order)
    else:
        if scenario is NONSEQ2:
            pm2 = {a: {m1: rows[0] for m1 in rows} for a, rows in pm2.items()}
        order["m2_levels"] = tuple(draw(st.permutations(range(k2))))
        model = DiscreteScm(scenario, pm1=pm1, pm2=pm2, ymean=ymean, **order)
    a, a_star = (draw(st.integers(0, ka - 1)) for _ in range(2))
    q = Query(a, a_star, draw(st.integers(0, k1 - 1)), draw(st.integers(0, k2 - 1)))
    return model, q, (pm1, pm2, ymean)


def _oracle_value(spec, q, scenario, tables):
    """Signed sum of the spec's formulas, each by the explicit-loop oracle."""
    pm1, pm2, ymean = tables
    level = {"a": q.a, "a*": q.a_star, "m1*": q.m1_star, "m2*": q.m2_star}

    def slot(med):
        if isinstance(med, Fixed):
            return ("fixed", level[med.label])
        return ("nat", level[med.exposure.symbol])

    total = 0.0
    for sign, expr in spec.terms:
        e_y, slots = level[expr.exposure.symbol], [slot(m) for m in expr.mediators]
        if scenario is SINGLE:
            total += sign * oracles.single_mean(ymean, pm1, e_y, *slots)
        else:
            total += sign * oracles.seq2_mean(ymean, pm1, pm2, e_y, *slots)
    return total


class TestCatalogAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(_model_and_query())
    def test_every_component_matches_loop_enumeration(self, case):
        model, q, tables = case
        result = decompose(model, q, extended=True)
        specs = components_for(model.scenario, q, extended=True)
        assert [c.name for c in result.components] == [s.name for s in specs]
        for spec in specs:
            want = _oracle_value(spec, q, model.scenario, tables)
            assert result[spec.name] == pytest.approx(want, abs=1e-12), spec.name
        want_te = _oracle_value(total_effect(model.scenario), q, model.scenario, tables)
        assert result.te == pytest.approx(want_te, abs=1e-12)
        assert result.sum_gap <= 1e-12


# ---------------------------------------------------------------------------
# exact row sums

# Floats that make summation hard: signed zeros, subnormals, the ends of the
# float range, and powers of two a tie apart.
AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 2.0**-53, 3 * 2.0**-53,
           2.0**53, 1.7e308, -1.7e308, 1e-300, 2.0**1023]


@st.composite
def summation_runs(draw):
    """Addends ``[formula, addend, replicate]`` and signed rows over them.

    Each addend is a signed, power-of-two scaled pick from a small pool, so
    rows cancel exactly, meet ties and span the float range; a few are
    infinite or NaN."""
    formulas, width, count = (draw(st.integers(1, n)) for n in (6, 3, 4))
    pool = draw(st.lists(
        st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=5,
    ))
    size = formulas * width * count
    cell = st.tuples(st.sampled_from(pool), st.sampled_from([1.0, -1.0]), st.integers(-60, 60))
    with np.errstate(over="ignore"):
        addends = np.array([np.ldexp(x * sign, e)
                            for x, sign, e in draw(st.lists(cell, min_size=size, max_size=size))])
    for at, value in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                             st.sampled_from([np.inf, -np.inf, np.nan])),
                                   max_size=2)):
        addends[at] = value
    term = st.tuples(st.sampled_from([1, -1]), st.integers(0, formulas - 1))
    rows = draw(st.lists(st.lists(term, max_size=8).map(tuple), min_size=1, max_size=5))
    return addends.reshape(formulas, width, count), tuple(rows)


def fsum_rows(rows, addends, names):
    """Each replicate's row values by `math.fsum` over its signed addends in
    term order, or the first error, row by row, that one raises."""
    out = []
    for r in range(addends.shape[-1]):
        values = []
        for name, row in zip(names, rows):
            try:
                values.append(math.fsum([sign * x for sign, j in row for x in addends[j, :, r]]))
            except OverflowError:
                values = ValueError(f"{name} overflows the float range")
                break
            except ValueError as err:
                values = err
                break
        out.append(values)
    return out


class TestExactSums:
    """`decomp._exact_sums` is `math.fsum`, bit for bit, row by row."""

    @settings(max_examples=400, deadline=None)
    @given(summation_runs())
    def test_equals_fsum(self, run):
        addends, rows = run
        names = [f"R{i}" for i in range(len(rows))]
        failed = {}
        with np.errstate(all="ignore"):
            sums, sent = _exact_sums(rows, addends, names, failed)
        for r, want in enumerate(fsum_rows(rows, addends, names)):
            if isinstance(want, Exception):
                assert type(failed[r]) is type(want) and str(failed[r]) == str(want)
            else:
                assert r not in failed
                assert [v.hex() for v in sums[:, r].tolist()] == [v.hex() for v in want]
        assert 0 <= sent <= sums.size

    def test_awkward_rows(self):
        rows = (((1, 0), (-1, 0)), ((1, 1), (1, 2)), ((1, 3), (1, 3)), ((1, 4), (1, 5), (1, 6)),
                ((1, 1), (-1, 7), (-1, 8)))
        values = [1.5, 1.0, 2.0**-53, -0.0, 2.0**-1074, 2.0**-1074, -(2.0**-1073),
                  2.0**-54, 2.0**-110]
        sums, sent = _exact_sums(rows, np.array(values)[:, None, None], "ABCDE", {})
        # exact cancellation and -0.0 + -0.0 are +0.0; 1 + 2^-53 ties to
        # even; 1 - 2^-54 - 2^-110 lies just below the midpoint under 1.0,
        # where the gap below a power of two is half the gap above it
        assert [v.hex() for v in sums[:, 0].tolist()] == [
            (0.0).hex(), (1.0).hex(), (0.0).hex(), (0.0).hex(), (1.0 - 2.0**-53).hex()]
        assert sent == 1

    def test_overflow_names_its_row(self):
        rows = (((1, 0), (1, 1)), ((1, 0), (1, 0), (-1, 1)))
        failed = {}
        with np.errstate(all="ignore"):
            sums, sent = _exact_sums(rows, np.array([1.7e308, -1.7e308])[:, None, None],
                                     ["fine", "big"], failed)
        assert sums[0, 0] == 0.0 and sent == 1
        assert str(failed[0]) == "big overflows the float range"

    @settings(max_examples=100, deadline=None)
    @given(summation_runs())
    def test_a_single_result_sums_by_fsum_alone(self, run):
        # each replicate on its own, as one result: the same sums and errors
        addends, rows = run
        names = [f"R{i}" for i in range(len(rows))]
        for r, want in enumerate(fsum_rows(rows, addends, names)):
            failed = {}
            with np.errstate(all="ignore"):
                sums, _ = _exact_sums(rows, addends[..., r:r + 1], names, failed, batch=False)
            if isinstance(want, Exception):
                assert type(failed[0]) is type(want) and str(failed[0]) == str(want)
            else:
                assert not failed
                assert [v.hex() for v in sums[:, 0].tolist()] == [v.hex() for v in want]

    def test_single_results_run_no_certificate(self, dm1, monkeypatch):
        # a decomposition is one result, summed by `math.fsum` alone; a
        # bootstrap batch still proves its sums with `_distil`
        calls = []
        distil = decomp._distil
        monkeypatch.setattr(decomp, "_distil", lambda columns: calls.append(1) or distil(columns))
        decompose(dm1, Q)
        params = LinearParams(theta=[1, 0.5, 0.4, 0.3, 0.2, 0.1, 0.1, 0.05], beta=[0.2, 0.3, 0.25, 0.1],
                              gamma=[0.5, 0.8], sigma2_m1=0.7)
        linear_components(params, Query(1.0, 0.0, 0.3, 0.1))
        assert calls == []
        bootstrap(simulate(dm1, 400, 1), PluginEstimator(SEQ2, Q), BootstrapConfig(replicates=4, seed=1))
        assert calls
