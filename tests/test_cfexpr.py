"""Formula language: parsing, canonical printing, identifiability rule."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from natfx.cfexpr import (
    REFERENCE,
    TREATMENT,
    ArityError,
    CfExpr,
    Counterfactual,
    ExposureLevel,
    Fixed,
    ParseError,
    Scenario,
    ScenarioKind,
    UnknownMediatorError,
    check_identifiability,
    format_cf,
    parse_cf,
    validate_cf,
)

SINGLE = Scenario.single()
NONSEQ2 = Scenario.nonseq(2)
SEQ2 = Scenario.chain(2)

# The eight all-natural two-mediator worlds of the sequential decomposition.
NATURAL_SEQ2_WORLDS = [
    "Y(a, M1(a), M2(a, M1(a)))",
    "Y(a, M1(a), M2(a*, M1(a)))",
    "Y(a, M1(a*), M2(a, M1(a*)))",
    "Y(a*, M1(a), M2(a, M1(a)))",
    "Y(a*, M1(a*), M2(a, M1(a*)))",
    "Y(a*, M1(a), M2(a*, M1(a)))",
    "Y(a, M1(a*), M2(a*, M1(a*)))",
    "Y(a*, M1(a*), M2(a*, M1(a*)))",
]


def test_parse_single_mediator_formula():
    expr = parse_cf("Y(a, M1(a*))", SINGLE)
    assert expr == CfExpr(TREATMENT, (Counterfactual(REFERENCE),))


def test_parse_all_reference_chain():
    expr = parse_cf("Y(a*, M1(a*), M2(a*, M1(a*)))", SEQ2)
    m1 = Counterfactual(REFERENCE)
    assert expr == CfExpr(REFERENCE, (m1, Counterfactual(REFERENCE, (m1,))))


def test_parse_is_whitespace_insensitive():
    loose = "  Y ( a ,M1( a* ) , M2(a,M1(a*) ) )  "
    assert parse_cf(loose, SEQ2) == parse_cf("Y(a, M1(a*), M2(a, M1(a*)))", SEQ2)


def test_format_uses_single_space_after_commas():
    expr = parse_cf("Y(a,M1(a),M2(a,M1(a)))", SEQ2)
    assert format_cf(expr) == "Y(a, M1(a), M2(a, M1(a)))"


def test_format_fixed_levels():
    expr = CfExpr(TREATMENT, (Fixed("m1*"), Fixed("m2*")))
    assert format_cf(expr) == "Y(a, m1*, m2*)"


def test_named_exposure_levels_roundtrip():
    expr = parse_cf("Y(a**, m1*, M2(a**, M1(a**)))", SEQ2)
    assert expr.exposure == ExposureLevel("a**")
    assert format_cf(expr) == "Y(a**, m1*, M2(a**, M1(a**)))"


def test_chain_mediator_missing_parent_is_arity_error():
    with pytest.raises(ArityError, match="M2 takes 1 parent"):
        parse_cf("Y(a, M1(a), M2(a))", SEQ2)


def test_nonseq_mediator_rejects_parents():
    with pytest.raises(ArityError, match="M2 takes 0 parent"):
        parse_cf("Y(a, M1(a), M2(a, M1(a)))", NONSEQ2)


def test_mediator_count_must_match_scenario():
    with pytest.raises(ArityError, match="expected 2 mediator"):
        parse_cf("Y(a, M1(a))", SEQ2)


def test_unknown_mediator_index():
    with pytest.raises(UnknownMediatorError, match="M3 does not exist"):
        parse_cf("Y(a, M1(a), M3(a))", NONSEQ2)


def test_misplaced_mediator_slot():
    with pytest.raises(ParseError, match="M2 cannot appear in the M1 slot"):
        parse_cf("Y(a, M2(a), M1(a))", NONSEQ2)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError, match="position") as exc:
        parse_cf("Y(a, M1(a*)", SINGLE)
    assert exc.value.position is not None


def test_unexpected_character_position():
    with pytest.raises(ParseError) as exc:
        parse_cf("Y(a; M1(a))", SINGLE)
    assert exc.value.position == 3


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_cf("Y(a, M1(a)) extra", SINGLE)


def test_validate_cf_checks_hand_built_trees():
    bad = CfExpr(TREATMENT, (Counterfactual(TREATMENT), Counterfactual(TREATMENT)))
    with pytest.raises(ArityError):
        validate_cf(bad, SEQ2)
    validate_cf(bad, NONSEQ2)


@pytest.mark.parametrize("mediators, scenario, error, message", [
    # a counterfactual mediator beyond the scenario's last slot is unknown
    ((Counterfactual(TREATMENT), Counterfactual(REFERENCE)), SINGLE, UnknownMediatorError,
     "M2 does not exist in scenario single (at position 12)"),
    ((Counterfactual(TREATMENT), Counterfactual(REFERENCE)), SEQ2, ArityError,
     "M2 takes 1 parent spec(s) in scenario seq2, found 0 (at position 17)"),
    ((Fixed("m1*"),), NONSEQ2, ArityError,
     "expected 2 mediator spec(s) for scenario nonseq2, found 1 (at position 8)"),
])
def test_validate_cf_raises_what_the_parser_raises(mediators, scenario, error, message):
    # the position points into format_cf(expr)
    with pytest.raises(error) as exc:
        validate_cf(CfExpr(TREATMENT, mediators), scenario)
    assert type(exc.value) is error
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# identifiability


def test_all_natural_seq2_worlds_identifiable():
    for text in NATURAL_SEQ2_WORLDS:
        verdict = check_identifiability(parse_cf(text, SEQ2), SEQ2)
        assert verdict.identifiable, text


def test_fully_fixed_formula_identifiable():
    verdict = check_identifiability(parse_cf("Y(a, m1*, m2*)", SEQ2), SEQ2)
    assert verdict.status == "identifiable"
    assert verdict.conflicts == ()


def test_mixed_fixed_and_natural_slots_identifiable():
    for text in ["Y(a, M1(a*), m2*)", "Y(a, m1*, M2(a*, m1*))"]:
        assert check_identifiability(parse_cf(text, SEQ2), SEQ2).identifiable, text


def test_activation_under_two_exposures_is_problematic():
    verdict = check_identifiability(parse_cf("Y(a, M1(a), M2(a, M1(a*)))", SEQ2), SEQ2)
    assert verdict.status == "problematic"
    (conflict,) = verdict.conflicts
    assert conflict.mediator == 1
    assert set(conflict.specs) == {"M1(a)", "M1(a*)"}


def test_fixed_level_mixed_with_activation_is_problematic():
    verdict = check_identifiability(parse_cf("Y(a, m1*, M2(a*, M1(a*)))", SEQ2), SEQ2)
    assert not verdict.identifiable
    (conflict,) = verdict.conflicts
    assert conflict.mediator == 1
    assert set(conflict.specs) == {"m1*", "M1(a*)"}


def test_checker_is_pure():
    expr = parse_cf("Y(a, M1(a), M2(a, M1(a*)))", SEQ2)
    assert check_identifiability(expr, SEQ2) == check_identifiability(expr, SEQ2)


# ---------------------------------------------------------------------------
# property-based coverage

_EXPOSURES = st.sampled_from(["a", "a*", "a**", "ctrl"])
_FIXED_LABELS = st.sampled_from(["m1*", "m2*", "lo", "hi_x"])
_SCENARIOS = st.sampled_from(
    [SINGLE, NONSEQ2, SEQ2, Scenario.nonseq(3), Scenario.chain(3)]
)


@st.composite
def _mediator_spec(draw, slot: int, scenario: Scenario):
    if draw(st.booleans()):
        return Fixed(draw(_FIXED_LABELS))
    if scenario.kind is ScenarioKind.CHAIN:
        parents = tuple(
            draw(_mediator_spec(j, scenario)) for j in range(1, slot)
        )
    else:
        parents = ()
    return Counterfactual(ExposureLevel(draw(_EXPOSURES)), parents)


@st.composite
def _scenario_and_expr(draw):
    scenario = draw(_SCENARIOS)
    mediators = tuple(
        draw(_mediator_spec(i, scenario)) for i in range(1, scenario.k + 1)
    )
    return scenario, CfExpr(ExposureLevel(draw(_EXPOSURES)), mediators)


@given(_scenario_and_expr())
@settings(max_examples=300, deadline=None)
def test_roundtrip_parse_format(case):
    scenario, expr = case
    assert parse_cf(format_cf(expr), scenario) == expr


@given(_scenario_and_expr(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_parse_ignores_injected_whitespace(case, seed):
    import random

    scenario, expr = case
    rng = random.Random(seed)
    text = format_cf(expr)
    loose = "".join(
        ch + " " * rng.randrange(3) if ch in "(), " else ch for ch in text
    )
    assert parse_cf(loose, scenario) == expr


def _unify_exposures(spec):
    if isinstance(spec, Fixed):
        return spec
    return Counterfactual(TREATMENT, tuple(_unify_exposures(p) for p in spec.parents))


@given(_scenario_and_expr())
@settings(max_examples=300, deadline=None)
def test_unifying_exposures_preserves_identifiability(case):
    scenario, expr = case
    if not check_identifiability(expr, scenario).identifiable:
        return
    unified = CfExpr(TREATMENT, tuple(_unify_exposures(s) for s in expr.mediators))
    assert check_identifiability(unified, scenario).identifiable


_TREE_EXPOSURES = st.sampled_from([TREATMENT, REFERENCE, ExposureLevel("a**")])
_TREE_LABELS = st.sampled_from(["m1*", "m2*"])


@st.composite
def _hand_built_case(draw):
    """A scenario and a hand-built tree of any shape: 0-3 mediators, each
    fixed or counterfactual with 0-2 nested parents.  Each count is the
    scenario's own count often enough that many trees fit."""
    scenario = draw(st.sampled_from([SINGLE, NONSEQ2, SEQ2, Scenario.chain(3)]))
    chain = scenario.kind is ScenarioKind.CHAIN

    def spec(slot, depth):
        if draw(st.booleans()):
            return Fixed(draw(_TREE_LABELS))
        shaped = slot - 1 if chain else 0
        count = draw(st.sampled_from([shaped, shaped, 0, 1, 2])) if depth else 0
        parents = tuple(spec(j, depth - 1) for j in range(1, count + 1))
        return Counterfactual(draw(_TREE_EXPOSURES), parents)

    count = draw(st.sampled_from([scenario.k, scenario.k, 0, 1, 2, 3]))
    return scenario, CfExpr(draw(_TREE_EXPOSURES), tuple(spec(i, 2) for i in range(1, count + 1)))


@given(_hand_built_case())
@settings(max_examples=400, deadline=None)
def test_validate_cf_rejects_exactly_what_the_arity_oracle_rejects(case):
    scenario, expr = case
    fits = oracles.arity_fits(expr.mediators, scenario.k, scenario.kind is ScenarioKind.CHAIN)
    try:
        parsed = parse_cf(format_cf(expr), scenario)
    except ParseError as err:
        parsed = err
    if fits:
        validate_cf(expr, scenario)
        assert parsed == expr
    else:
        with pytest.raises(ParseError) as exc:
            validate_cf(expr, scenario)
        assert type(exc.value) is type(parsed)
        assert str(exc.value) == str(parsed)


# ---------------------------------------------------------------------------
# scenario ids


def test_scenario_id_roundtrip():
    for scenario in [SINGLE, NONSEQ2, SEQ2, Scenario.chain(4), Scenario.nonseq(3)]:
        assert Scenario.from_id(scenario.id) == scenario
    assert Scenario.from_id("chain2") == SEQ2


def test_scenario_invalid_shapes():
    with pytest.raises(ValueError):
        Scenario(ScenarioKind.SINGLE, 2)
    with pytest.raises(ValueError):
        Scenario.chain(1)
    with pytest.raises(ValueError):
        Scenario.from_id("twisty")
