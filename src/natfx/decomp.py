"""Catalogs of total-effect decomposition components.

Each component is a signed combination of counterfactual formulas.  Three
scenario catalogs are provided:

* single mediator: the four-way split CDE + INT_ref + INT_med + PIE, plus
  both direct/indirect flavor pairs (pure and total) as auxiliary rows;
* two non-sequential mediators: the 10-component split with three reference
  interactions and four natural counterfactual interactions;
* two sequential mediators (one path): the 9-component split where the
  reference interactions for AM2 and AM1M2 fuse into one identifiable row.

Auxiliary rows (PDE, TDE, SIE_M1, TE, flavor pairs) carry ``in_sum=False``
and are reported but excluded from the telescoping sum check.  Each catalog
is compiled once, at import, into its distinct formulas and signed rows; an
engine prices the formulas and the rows are exact sums of the priced terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .cfexpr import (
    CfExpr,
    Counterfactual,
    ExposureLevel,
    Fixed,
    REFERENCE,
    Scenario,
    ScenarioKind,
    TREATMENT,
    format_cf,
)
from .scm import DiscreteScm, _compile_formula, _price_formulas

__all__ = [
    "ComponentSpec",
    "ComponentValue",
    "DecompositionResult",
    "EvaluationOfProblematicSpec",
    "MissingFixedLevel",
    "Query",
    "additive_interaction",
    "components_for",
    "components_nonseq2",
    "components_seq2",
    "components_single",
    "decompose",
    "evaluate_decomposition",
    "evaluate_spec",
    "mediated_contrasts",
    "total_effect",
]


class MissingFixedLevel(ValueError):
    """A catalog needs a fixed mediator level the query does not provide."""


class EvaluationOfProblematicSpec(ValueError):
    """A component flagged as non-identifiable was handed to an evaluator."""


@dataclass(frozen=True)
class Query:
    """Exposure contrast plus the fixed mediator reference levels.

    ``a == a_star`` is allowed and collapses every component to zero.
    """

    a: Any
    a_star: Any
    m1_star: Any = None
    m2_star: Any = None

    def to_binding(self) -> dict[str, Any]:
        binding: dict[str, Any] = {"a": self.a, "a*": self.a_star}
        if self.m1_star is not None:
            binding["m1*"] = self.m1_star
        if self.m2_star is not None:
            binding["m2*"] = self.m2_star
        return binding


@dataclass(frozen=True)
class ComponentSpec:
    """A named signed combination of counterfactual formulas.

    ``in_sum`` marks membership in the telescoping identity whose total is
    TE; ``problematic`` marks specs that contain non-identifiable formulas
    and exist for inspection only.
    """

    name: str
    terms: tuple[tuple[int, CfExpr], ...]
    in_sum: bool = True
    problematic: bool = False

    @property
    def requires(self) -> tuple[str, ...]:
        """Fixed mediator labels the terms mention, e.g. ('m1*', 'm2*')."""
        labels: set[str] = set()
        for _, expr in self.terms:
            for spec in expr.mediators:
                if isinstance(spec, Fixed):
                    labels.add(spec.label)
        return tuple(sorted(labels))

    def formula(self) -> str:
        parts = []
        for sign, expr in self.terms:
            parts.append(("+ " if sign > 0 else "- ") + format_cf(expr))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


@dataclass(frozen=True)
class ComponentValue:
    name: str
    value: float
    ci: tuple[float, float] | None = None
    in_sum: bool = True


@dataclass(frozen=True)
class DecompositionResult:
    """Component rows, TE and the telescoping audit ``sum_gap``.

    ``diagnostics`` is what the producer records about its run, such as the
    replicates a bootstrap kept and dropped.
    """

    components: tuple[ComponentValue, ...]
    te: float
    sum_gap: float
    diagnostics: dict[str, Any] | None = None

    def __getitem__(self, name: str) -> float:
        for c in self.components:
            if c.name == name:
                return c.value
        raise KeyError(name)

    def as_dict(self) -> dict[str, float]:
        return {c.name: c.value for c in self.components}


# ---------------------------------------------------------------------------
# formula constructors

_A = TREATMENT
_R = REFERENCE
_M1S = Fixed("m1*")
_M2S = Fixed("m2*")


def _nat(e: ExposureLevel) -> Counterfactual:
    return Counterfactual(e)


def _chain(e: ExposureLevel, parent) -> Counterfactual:
    return Counterfactual(e, (parent,))


def _y1(ey, m) -> CfExpr:
    return CfExpr(ey, (m,))


def _y2(ey, m1, m2) -> CfExpr:
    return CfExpr(ey, (m1, m2))


def _w_seq(ey, e2, e1) -> CfExpr:
    """One-path natural world: the M1 formula repeats inside M2's history."""
    m1 = _nat(e1)
    return _y2(ey, m1, _chain(e2, m1))


def _w_flat(ey, e2, e1) -> CfExpr:
    return _y2(ey, _nat(e1), _nat(e2))


def _requires(specs: Sequence[ComponentSpec]) -> frozenset[str]:
    return frozenset(label for spec in specs for label in spec.requires)


def _check_requires(needed: Iterable[str], q: Query) -> None:
    provided = {k for k, v in (("m1*", q.m1_star), ("m2*", q.m2_star)) if v is not None}
    missing = sorted(set(needed) - provided)
    if missing:
        raise MissingFixedLevel(
            f"query does not fix the mediator level(s) {', '.join(missing)}"
        )


# ---------------------------------------------------------------------------
# catalogs


def _single_specs() -> tuple[ComponentSpec, ...]:
    ma = _nat(_A)
    mr = _nat(_R)
    int_med = (
        (+1, _y1(_A, ma)),
        (-1, _y1(_R, ma)),
        (-1, _y1(_A, mr)),
        (+1, _y1(_R, mr)),
    )
    specs = [
        ComponentSpec("CDE", ((+1, _y1(_A, _M1S)), (-1, _y1(_R, _M1S)))),
        ComponentSpec(
            "INT_ref",
            (
                (+1, _y1(_A, mr)),
                (-1, _y1(_R, mr)),
                (-1, _y1(_A, _M1S)),
                (+1, _y1(_R, _M1S)),
            ),
        ),
        ComponentSpec("INT_med", int_med),
        ComponentSpec("PIE", ((+1, _y1(_R, ma)), (-1, _y1(_R, mr)))),
        ComponentSpec("NatINT_AM", int_med, in_sum=False),
        ComponentSpec(
            "NDE_pure", ((+1, _y1(_A, mr)), (-1, _y1(_R, mr))), in_sum=False
        ),
        ComponentSpec(
            "NDE_total", ((+1, _y1(_A, ma)), (-1, _y1(_R, ma))), in_sum=False
        ),
        ComponentSpec(
            "NIE_pure", ((+1, _y1(_R, ma)), (-1, _y1(_R, mr))), in_sum=False
        ),
        ComponentSpec(
            "NIE_total", ((+1, _y1(_A, ma)), (-1, _y1(_A, mr))), in_sum=False
        ),
        ComponentSpec("TE", ((+1, _y1(_A, ma)), (-1, _y1(_R, mr))), in_sum=False),
    ]
    return tuple(specs)


def _nonseq2_specs(extended: bool) -> tuple[ComponentSpec, ...]:
    m1a, m1r = _nat(_A), _nat(_R)
    m2a, m2r = _nat(_A), _nat(_R)
    w1 = _y2(_A, m1a, m2a)
    w2 = _y2(_A, m1a, m2r)
    w3 = _y2(_A, m1r, m2a)
    w4 = _y2(_R, m1a, m2a)
    w5 = _y2(_R, m1r, m2a)
    w6 = _y2(_R, m1a, m2r)
    w7 = _y2(_A, m1r, m2r)
    w8 = _y2(_R, m1r, m2r)
    specs = [
        ComponentSpec("CDE", ((+1, _y2(_A, _M1S, _M2S)), (-1, _y2(_R, _M1S, _M2S)))),
        ComponentSpec(
            "INT_ref-AM1",
            (
                (+1, _y2(_A, m1r, _M2S)),
                (-1, _y2(_A, _M1S, _M2S)),
                (-1, _y2(_R, m1r, _M2S)),
                (+1, _y2(_R, _M1S, _M2S)),
            ),
        ),
        ComponentSpec(
            "INT_ref-AM2",
            (
                (+1, _y2(_A, _M1S, m2r)),
                (-1, _y2(_A, _M1S, _M2S)),
                (-1, _y2(_R, _M1S, m2r)),
                (+1, _y2(_R, _M1S, _M2S)),
            ),
        ),
        ComponentSpec(
            "INT_ref-AM1M2",
            (
                (+1, _y2(_A, m1r, m2r)),
                (-1, _y2(_A, m1r, _M2S)),
                (-1, _y2(_A, _M1S, m2r)),
                (-1, _y2(_R, m1r, m2r)),
                (+1, _y2(_R, _M1S, m2r)),
                (+1, _y2(_R, m1r, _M2S)),
                (+1, _y2(_A, _M1S, _M2S)),
                (-1, _y2(_R, _M1S, _M2S)),
            ),
        ),
        ComponentSpec(
            "NatINT_AM1",
            ((+1, w2), (-1, w6), (-1, _y2(_A, m1r, m2r)), (+1, w8)),
        ),
        ComponentSpec(
            "NatINT_AM2",
            ((+1, w3), (-1, w7), (-1, w5), (+1, w8)),
        ),
        ComponentSpec(
            "NatINT_AM1M2",
            (
                (+1, w1),
                (-1, w2),
                (-1, w3),
                (-1, w4),
                (+1, w5),
                (+1, w6),
                (+1, w7),
                (-1, w8),
            ),
        ),
        ComponentSpec(
            "NatINT_M1M2",
            ((+1, w4), (-1, w6), (-1, w5), (+1, w8)),
        ),
        ComponentSpec("PDE", ((+1, w7), (-1, w8)), in_sum=False),
        ComponentSpec("PIE_M1", ((+1, w6), (-1, w8))),
        ComponentSpec("PIE_M2", ((+1, w5), (-1, w8))),
        ComponentSpec("TE", ((+1, w1), (-1, w8)), in_sum=False),
    ]
    if extended:
        specs += [
            ComponentSpec("TDE", ((+1, w1), (-1, w4)), in_sum=False),
            ComponentSpec("SIE_M1", ((+1, w4), (-1, w5)), in_sum=False),
        ]
    return tuple(specs)


def _seq2_specs(extended: bool) -> tuple[ComponentSpec, ...]:
    w1 = _w_seq(_A, _A, _A)
    w2 = _w_seq(_A, _R, _A)
    w3 = _w_seq(_A, _A, _R)
    w4 = _w_seq(_R, _A, _A)
    w5 = _w_seq(_R, _A, _R)
    w6 = _w_seq(_R, _R, _A)
    w7 = _w_seq(_A, _R, _R)
    w8 = _w_seq(_R, _R, _R)
    m1r = _nat(_R)
    m2rr = _chain(_R, m1r)
    specs = [
        ComponentSpec("CDE", ((+1, _y2(_A, _M1S, _M2S)), (-1, _y2(_R, _M1S, _M2S)))),
        ComponentSpec(
            "INT_ref-AM1",
            (
                (+1, _y2(_A, m1r, _M2S)),
                (-1, _y2(_R, m1r, _M2S)),
                (-1, _y2(_A, _M1S, _M2S)),
                (+1, _y2(_R, _M1S, _M2S)),
            ),
        ),
        ComponentSpec(
            "INT_ref-AM2+AM1M2",
            (
                (+1, _y2(_A, m1r, m2rr)),
                (-1, _y2(_A, m1r, _M2S)),
                (-1, _y2(_R, m1r, m2rr)),
                (+1, _y2(_R, m1r, _M2S)),
            ),
        ),
        ComponentSpec(
            "NatINT_AM1",
            ((+1, w2), (-1, w6), (-1, w7), (+1, w8)),
        ),
        ComponentSpec(
            "NatINT_AM2",
            ((+1, w3), (-1, w7), (-1, w5), (+1, w8)),
        ),
        ComponentSpec(
            "NatINT_AM1M2",
            (
                (+1, w1),
                (-1, w2),
                (-1, w3),
                (-1, w4),
                (+1, w5),
                (+1, w6),
                (+1, w7),
                (-1, w8),
            ),
        ),
        ComponentSpec(
            "NatINT_M1M2",
            ((+1, w4), (-1, w6), (-1, w5), (+1, w8)),
        ),
        ComponentSpec("PDE", ((+1, w7), (-1, w8)), in_sum=False),
        ComponentSpec("PIE_M1", ((+1, w6), (-1, w8))),
        ComponentSpec("PIE_M2", ((+1, w5), (-1, w8))),
        ComponentSpec("TE", ((+1, w1), (-1, w8)), in_sum=False),
    ]
    if extended:
        specs += [
            ComponentSpec("TDE", ((+1, w1), (-1, w4)), in_sum=False),
            ComponentSpec("SIE_M1", ((+1, w4), (-1, w5)), in_sum=False),
        ]
    return tuple(specs)


def components_single(q: Query) -> list[ComponentSpec]:
    """Four-way split for one mediator, plus flavor rows and TE.

    Core rows (CDE, INT_ref, INT_med, PIE) sum to TE.  Auxiliary rows carry
    the two direct/indirect flavors: NDE_pure with NIE_total and NDE_total
    with NIE_pure both recover TE; NatINT_AM repeats INT_med's contrast
    under its interaction-effect name.
    """
    return _checked(_catalog(Scenario.single()), q)


def components_nonseq2(q: Query, extended: bool = False) -> list[ComponentSpec]:
    """Ten-component split for two non-sequential mediators.

    Row order matches the report layout: controlled, reference
    interactions, natural interactions, PDE, pure indirect rows, TE.  The
    in-sum rows are the ten of the identity; `extended` appends TDE and
    SIE_M1.
    """
    return _checked(_catalog(Scenario.nonseq(2), extended), q)


def components_seq2(q: Query, extended: bool = False) -> list[ComponentSpec]:
    """Nine-component split for two sequential mediators on one path.

    The reference interactions for AM2 and AM1M2 are not separately
    identifiable; only their fused sum appears, as a function of m2* alone.
    Row order matches the report layout; `extended` appends TDE and SIE_M1.
    """
    return _checked(_catalog(Scenario.chain(2), extended), q)


def components_for(
    scenario: Scenario, q: Query, extended: bool = False
) -> list[ComponentSpec]:
    return _checked(_catalog(scenario, extended), q)


def total_effect(scenario: Scenario) -> ComponentSpec:
    if scenario.kind is ScenarioKind.SINGLE:
        return ComponentSpec(
            "TE", ((+1, _y1(_A, _nat(_A))), (-1, _y1(_R, _nat(_R)))), in_sum=False
        )
    if scenario.k != 2:
        raise ValueError(f"no TE contrast for scenario {scenario.id}")
    if scenario.kind is ScenarioKind.NONSEQ:
        return ComponentSpec(
            "TE", ((+1, _w_flat(_A, _A, _A)), (-1, _w_flat(_R, _R, _R))), in_sum=False
        )
    return ComponentSpec(
        "TE", ((+1, _w_seq(_A, _A, _A)), (-1, _w_seq(_R, _R, _R))), in_sum=False
    )


def mediated_contrasts(q: Query, scenario: Scenario) -> list[ComponentSpec]:
    """Mediated interaction effects, with identifiability flags.

    For one mediator the single contrast equals the natural interaction.
    For two mediators, INT_med-AM1 pins M2 at m2* and remains evaluable.
    In the one-path case, INT_med-AM2 and INT_med-AM1M2 expand into mixed
    formulas that pin M1 while letting M2 inherit a natural M1 value; the
    expansions are returned for inspection, flagged as problematic, and any
    attempt to evaluate them raises.
    """
    if scenario.kind is ScenarioKind.SINGLE:
        ma, mr = _nat(_A), _nat(_R)
        return [
            ComponentSpec(
                "INT_med",
                (
                    (+1, _y1(_A, ma)),
                    (-1, _y1(_R, ma)),
                    (-1, _y1(_A, mr)),
                    (+1, _y1(_R, mr)),
                ),
                in_sum=False,
            )
        ]
    if scenario.k != 2:
        raise ValueError(f"no mediated contrasts for scenario {scenario.id}")
    m1a, m1r = _nat(_A), _nat(_R)
    int_med_am1 = ComponentSpec(
        "INT_med-AM1",
        (
            (+1, _y2(_A, m1a, _M2S)),
            (-1, _y2(_R, m1a, _M2S)),
            (-1, _y2(_A, m1r, _M2S)),
            (+1, _y2(_R, m1r, _M2S)),
        ),
        in_sum=False,
    )
    if scenario.kind is ScenarioKind.NONSEQ:
        specs = [int_med_am1]
        _check_requires(_requires(specs), q)
        return specs
    m2aa = _chain(_A, m1a)
    m2rr = _chain(_R, m1r)
    int_med_am2 = ComponentSpec(
        "INT_med-AM2",
        (
            (+1, _y2(_A, _M1S, m2aa)),
            (-1, _y2(_A, _M1S, m2rr)),
            (-1, _y2(_R, _M1S, m2aa)),
            (+1, _y2(_R, _M1S, m2rr)),
        ),
        in_sum=False,
        problematic=True,
    )
    int_med_am1m2 = ComponentSpec(
        "INT_med-AM1M2",
        (
            (+1, _w_seq(_A, _A, _A)),
            (-1, _w_seq(_A, _R, _R)),
            (-1, _y2(_A, m1a, _M2S)),
            (+1, _y2(_A, m1r, _M2S)),
            (-1, _y2(_A, _M1S, m2aa)),
            (+1, _y2(_A, _M1S, m2rr)),
            (-1, _w_seq(_R, _A, _A)),
            (+1, _w_seq(_R, _R, _R)),
            (+1, _y2(_R, _M1S, m2aa)),
            (-1, _y2(_R, _M1S, m2rr)),
            (+1, _y2(_R, m1a, _M2S)),
            (-1, _y2(_R, m1r, _M2S)),
        ),
        in_sum=False,
        problematic=True,
    )
    specs = [int_med_am1, int_med_am2, int_med_am1m2]
    _check_requires(_requires(specs), q)
    return specs


def additive_interaction(cell_means) -> float:
    """p11 - p01 - p10 + p00 from a 2x2 table of outcome means.

    Accepts a nested mapping ``{a: {m: mean}}`` over levels {0, 1} or any
    2x2 array-like indexed [a][m].
    """
    def cell(a: int, m: int) -> float:
        try:
            return float(cell_means[a][m])
        except (KeyError, IndexError, TypeError) as err:
            raise ValueError(f"cell (A={a}, M={m}) is missing") from err

    return cell(1, 1) - cell(0, 1) - cell(1, 0) + cell(0, 0)


# ---------------------------------------------------------------------------
# compiled catalogs


@dataclass(frozen=True)
class _Catalog:
    """Specs compiled once against their distinct formulas.

    ``formulas`` holds each distinct formula once, in the slot form of
    `scm._compile_formula`, so every engine prices it once.  ``rows[i]``
    lists the (sign, formula index) terms of ``specs[i]``; ``te`` those of
    the scenario's total effect; ``requires`` the fixed labels the rows use.
    """

    specs: tuple[ComponentSpec, ...]
    formulas: tuple[tuple, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    te: tuple[tuple[int, int], ...]
    requires: frozenset[str]


def _compile(specs: Sequence[ComponentSpec], scenario: Scenario) -> _Catalog:
    """Validate and index `specs` plus the scenario's TE against `scenario`."""
    index: dict[CfExpr, int] = {}

    def terms(spec: ComponentSpec) -> tuple[tuple[int, int], ...]:
        if spec.problematic:
            raise EvaluationOfProblematicSpec(
                f"{spec.name} contains non-identifiable counterfactual formulas "
                "and has no model-defined value"
            )
        return tuple((sign, index.setdefault(expr, len(index))) for sign, expr in spec.terms)

    rows = tuple(terms(spec) for spec in specs)
    te = terms(total_effect(scenario))
    formulas = tuple(_compile_formula(expr, scenario) for expr in index)
    return _Catalog(tuple(specs), formulas, rows, te, _requires(specs))


def _build_catalogs() -> dict[tuple[str, bool], _Catalog]:
    single = _compile(_single_specs(), Scenario.single())
    catalogs = {("single", False): single, ("single", True): single}
    for scenario, build in (
        (Scenario.nonseq(2), _nonseq2_specs),
        (Scenario.chain(2), _seq2_specs),
    ):
        for extended in (False, True):
            catalogs[scenario.id, extended] = _compile(build(extended), scenario)
    return catalogs


def _catalog(scenario: Scenario, extended: bool = False) -> _Catalog:
    try:
        return _CATALOGS[scenario.id, extended]
    except KeyError:
        raise ValueError(f"no component catalog for scenario {scenario.id}") from None


def _checked(catalog: _Catalog, q: Query) -> list[ComponentSpec]:
    _check_requires(catalog.requires, q)
    return list(catalog.specs)


def _totals(
    catalog: _Catalog, addends: Sequence[Sequence[float]]
) -> tuple[list[float], float, float]:
    """Row values, TE and ``sum_gap`` of a compiled catalog from each
    formula's priced addends.

    A row is the `math.fsum` of its terms' signed addends, so addends that
    cancel between the terms of a row cancel exactly, and a row that is
    zero in exact arithmetic comes out as 0.0.
    """

    def total(terms: tuple[tuple[int, int], ...]) -> float:
        return math.fsum([sign * x for sign, j in terms for x in addends[j]])

    values = [total(terms) for terms in catalog.rows]
    te = total(catalog.te)
    in_sum = math.fsum(v for v, spec in zip(values, catalog.specs) if spec.in_sum)
    return values, te, abs(in_sum - te)


def _assemble(catalog: _Catalog, addends: Sequence[Sequence[float]]) -> DecompositionResult:
    """A `DecompositionResult` of the rows `_totals` computes."""
    values, te, sum_gap = _totals(catalog, addends)
    rows = tuple(
        ComponentValue(spec.name, value, in_sum=spec.in_sum)
        for spec, value in zip(catalog.specs, values)
    )
    return DecompositionResult(rows, te=te, sum_gap=sum_gap)


def _evaluate(model: DiscreteScm, catalog: _Catalog, q: Query) -> DecompositionResult:
    """A compiled catalog priced on a discrete model's tables."""
    _check_requires(catalog.requires, q)
    values = _price_formulas(model, catalog.formulas, q.to_binding())
    return _assemble(catalog, [(v,) for v in values.tolist()])


# ---------------------------------------------------------------------------
# evaluation


def evaluate_spec(model: DiscreteScm, spec: ComponentSpec, q: Query) -> float:
    """Signed sum of the spec's formula expectations under the query."""
    return evaluate_decomposition(model, (spec,), q).components[0].value


def evaluate_decomposition(
    model: DiscreteScm, specs: Sequence[ComponentSpec], q: Query
) -> DecompositionResult:
    """Evaluate a catalog and audit the telescoping identity.

    ``sum_gap`` is the absolute difference between the sum of the in-sum
    rows and the independently computed total effect; exact evaluation
    keeps it at floating-point noise.
    """
    return _evaluate(model, _compile(specs, model.scenario), q)


def decompose(
    model: DiscreteScm, q: Query, extended: bool = False
) -> DecompositionResult:
    """Catalog lookup by the model's scenario plus evaluation, in one call."""
    return _evaluate(model, _catalog(model.scenario, extended), q)


# Each catalog is built and compiled once per process, so the per-call paths
# (decompose, plugin_seq2, linear_components) neither rebuild, hash nor
# re-validate a spec.
_CATALOGS = _build_catalogs()
