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
is compiled once per process, on first use, into its distinct formulas and
signed rows; an engine prices the formulas and the rows are exact sums of the
priced terms.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

import numpy as np

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
from .scm import Dataset, DiscreteScm, _compile_formula, _price_formulas, from_dataset
from .scm import _encode, _formula_rows, _price_tables, _tables, _tally

__all__ = [
    "ComponentSpec",
    "ComponentValue",
    "DecompositionResult",
    "EvaluationOfProblematicSpec",
    "MissingFixedLevel",
    "PluginEstimator",
    "Query",
    "components_for",
    "components_nonseq2",
    "components_seq2",
    "components_single",
    "decompose",
    "evaluate_decomposition",
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


# Exposure pair (e_Y, e_M1) of each single-mediator world Y(e_Y, M1(e_M1)):
# all treated first, all reference last.
_SINGLE_WORLDS = (
    (_A, _A),
    (_A, _R),
    (_R, _A),
    (_R, _R),
)

# Exposure triple (e_Y, e_M2, e_M1) of each two-mediator world W1..W8: W1
# is all treated, W8 all reference, the rest mix levels across the slots.
_WORLDS = (
    (_A, _A, _A),
    (_A, _R, _A),
    (_A, _A, _R),
    (_R, _A, _A),
    (_R, _A, _R),
    (_R, _R, _A),
    (_A, _R, _R),
    (_R, _R, _R),
)


def _worlds(scenario: Scenario) -> list[CfExpr]:
    """The worlds of `scenario`: the four Y(e, M1(e')), or W1..W8 with M2 flat or nested."""
    if scenario.kind is ScenarioKind.SINGLE:
        return [_y1(ey, _nat(e1)) for ey, e1 in _SINGLE_WORLDS]
    if scenario.kind is ScenarioKind.NONSEQ:
        return [_y2(ey, _nat(e1), _nat(e2)) for ey, e2, e1 in _WORLDS]
    # one path: the M1 formula repeats inside M2's history
    return [_y2(ey, _nat(e1), _chain(e2, _nat(e1))) for ey, e2, e1 in _WORLDS]


def _single_specs() -> tuple[ComponentSpec, ...]:
    """The four-way split and its flavor rows over the worlds and the m1* pair."""
    w1, w2, w3, w4 = _worlds(Scenario.single())
    a_s, r_s = _y1(_A, _M1S), _y1(_R, _M1S)
    int_med = ((+1, w1), (-1, w3), (-1, w2), (+1, w4))
    return (
        ComponentSpec("CDE", ((+1, a_s), (-1, r_s))),
        ComponentSpec("INT_ref", ((+1, w2), (-1, w4), (-1, a_s), (+1, r_s))),
        ComponentSpec("INT_med", int_med),
        ComponentSpec("PIE", ((+1, w3), (-1, w4))),
        ComponentSpec("NatINT_AM", int_med, in_sum=False),
        ComponentSpec("NDE_pure", ((+1, w2), (-1, w4)), in_sum=False),
        ComponentSpec("NDE_total", ((+1, w1), (-1, w3)), in_sum=False),
        ComponentSpec("NIE_pure", ((+1, w3), (-1, w4)), in_sum=False),
        ComponentSpec("NIE_total", ((+1, w1), (-1, w2)), in_sum=False),
        ComponentSpec("TE", ((+1, w1), (-1, w4)), in_sum=False),
    )


def _two_mediator_specs(scenario: Scenario, extended: bool) -> tuple[ComponentSpec, ...]:
    """The nonseq2 or seq2 catalog: only the reference interactions differ."""
    w1, w2, w3, w4, w5, w6, w7, w8 = _worlds(scenario)
    # Y's exposure, then M1 fixed (s) or natural at a* (r), then M2 fixed
    a_ss, r_ss = _y2(_A, _M1S, _M2S), _y2(_R, _M1S, _M2S)
    a_rs, r_rs = _y2(_A, _nat(_R), _M2S), _y2(_R, _nat(_R), _M2S)
    if scenario.kind is ScenarioKind.NONSEQ:
        a_sr, r_sr = _y2(_A, _M1S, _nat(_R)), _y2(_R, _M1S, _nat(_R))
        reference = [
            ComponentSpec("INT_ref-AM1", ((+1, a_rs), (-1, a_ss), (-1, r_rs), (+1, r_ss))),
            ComponentSpec("INT_ref-AM2", ((+1, a_sr), (-1, a_ss), (-1, r_sr), (+1, r_ss))),
            ComponentSpec("INT_ref-AM1M2", ((+1, w7), (-1, a_rs), (-1, a_sr), (-1, w8),
                                            (+1, r_sr), (+1, r_rs), (+1, a_ss), (-1, r_ss))),
        ]
    else:
        reference = [
            ComponentSpec("INT_ref-AM1", ((+1, a_rs), (-1, r_rs), (-1, a_ss), (+1, r_ss))),
            ComponentSpec("INT_ref-AM2+AM1M2", ((+1, w7), (-1, a_rs), (-1, w8), (+1, r_rs))),
        ]
    specs = [
        ComponentSpec("CDE", ((+1, a_ss), (-1, r_ss))),
        *reference,
        ComponentSpec("NatINT_AM1", ((+1, w2), (-1, w6), (-1, w7), (+1, w8))),
        ComponentSpec("NatINT_AM2", ((+1, w3), (-1, w7), (-1, w5), (+1, w8))),
        ComponentSpec(
            "NatINT_AM1M2",
            ((+1, w1), (-1, w2), (-1, w3), (-1, w4), (+1, w5), (+1, w6), (+1, w7), (-1, w8)),
        ),
        ComponentSpec("NatINT_M1M2", ((+1, w4), (-1, w6), (-1, w5), (+1, w8))),
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
    if scenario.k > 2:
        raise ValueError(f"no TE contrast for scenario {scenario.id}")
    treated, *_, reference = _worlds(scenario)
    return ComponentSpec("TE", ((+1, treated), (-1, reference)), in_sum=False)


def _interaction(name: str, cell, problematic: bool = False) -> ComponentSpec:
    """The 2x2 contrast cell(a, a) - cell(a*, a) - cell(a, a*) + cell(a*, a*)."""
    signs = ((+1, _A, _A), (-1, _R, _A), (-1, _A, _R), (+1, _R, _R))
    terms = tuple((sign, cell(x, y)) for sign, x, y in signs)
    return ComponentSpec(name, terms, in_sum=False, problematic=problematic)


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
        int_med = next(spec for spec in _single_specs() if spec.name == "INT_med")
        return [replace(int_med, in_sum=False)]
    if scenario.k != 2:
        raise ValueError(f"no mediated contrasts for scenario {scenario.id}")
    int_med_am1 = _interaction("INT_med-AM1", lambda ey, e1: _y2(ey, _nat(e1), _M2S))
    if scenario.kind is ScenarioKind.NONSEQ:
        specs = [int_med_am1]
        _check_requires(_requires(specs), q)
        return specs
    w1, _, _, w4, _, _, w7, w8 = _worlds(scenario)
    int_med_am2 = _interaction(
        "INT_med-AM2", lambda e2, ey: _y2(ey, _M1S, _chain(e2, _nat(e2))), problematic=True
    )
    # the corner interaction less the two single mediated contrasts
    corner = ((+1, w1), (-1, w7), (-1, w4), (+1, w8))
    negated = tuple((-sign, expr) for spec in (int_med_am1, int_med_am2)
                    for sign, expr in spec.terms)
    int_med_am1m2 = ComponentSpec("INT_med-AM1M2", corner + negated, in_sum=False, problematic=True)
    specs = [int_med_am1, int_med_am2, int_med_am1m2]
    _check_requires(_requires(specs), q)
    return specs


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


@functools.lru_cache(maxsize=None)
def _compiled(scenario: Scenario, extended: bool) -> _Catalog:
    if scenario.kind is ScenarioKind.SINGLE:
        return _compile(_single_specs(), scenario)
    if scenario.k != 2:
        raise ValueError(f"no component catalog for scenario {scenario.id}")
    return _compile(_two_mediator_specs(scenario, extended), scenario)


def _catalog(scenario: Scenario, extended: bool = False) -> _Catalog:
    """`scenario`'s catalog, compiled on first use and kept for the process,
    so no per-call path rebuilds, hashes or re-validates a spec."""
    return _compiled(scenario, bool(extended))


def _checked(catalog: _Catalog, q: Query) -> list[ComponentSpec]:
    _check_requires(catalog.requires, q)
    return list(catalog.specs)


# Exact row sums: Sum2 of Ogita, Rump & Oishi (2005), "Accurate sum and dot
# product", over all replicates at once.  A sum is kept only when proved
# correctly rounded, so it equals `math.fsum` (Shewchuk 1997) bit for bit;
# any other, a non-finite or overflowing one among them, is left to it.


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _distil(columns: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The sums of `columns` and where each is proved correctly rounded.

    A TwoSum cascade leaves the exact total as s + Σe, and a second one sums
    the e into c with errors f, so Σe = c + Σf.  r = fl(s + c) has the exact
    error r2, so |total - r| <= |r2| + (1 + γ_n) fl(Σ|f|).  r is correctly
    rounded when that is below half the gap under |r|, the smaller of its
    gaps, or when every f is 0: r then rounds the exact s + c, ties to even.
    Both sides are scaled by 2^53, so nothing underflows; a non-finite r
    makes NaN and fails.  A zero comes out +0.0, as `math.fsum` returns it.
    """
    s = c = size = 0.0
    count = 0
    for x in columns:
        s, e = _two_sum(s, x)
        c, f = _two_sum(c, e)
        size, count = size + np.abs(f), count + 1
    r, r2 = _two_sum(s, c)
    bound = np.abs(r2) * 2.0**53 + size * (2.0**53 + 2.0 * count)
    gap = np.spacing(np.nextafter(np.abs(r), 0.0)) * 2.0**52
    return r + 0.0, (bound < gap) | ((size == 0.0) & np.isfinite(r))


@functools.lru_cache(maxsize=None)
def _gather_plan(rows: tuple, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``[term, row]`` tables of the rows' addend indices, the ``[formula,
    addend]`` axes flattened, and of their signs.  A row is padded with sign
    0 on its first addend, which is 0 unless the row is not finite."""
    terms = [[(sign, j * width + a) for sign, j in row for a in range(width)] or [(0, 0)]
             for row in rows]
    depth = max(map(len, terms))
    table = np.array([t + [(0, t[0][1])] * (depth - len(t)) for t in terms]).transpose(1, 0, 2)
    return table[..., 1], table[..., :1].astype(float)


def _exact_sums(rows: tuple, addends: np.ndarray, names: Sequence[str],
                failed: dict[int, Exception], batch: bool = True) -> tuple[np.ndarray, int]:
    """The `math.fsum` of each row's signed addends, ``[row, replicate]``,
    from ``addends[formula, addend, replicate]`` and each row's (sign,
    formula) terms, and how many sums `_distil` left to `math.fsum`.  A
    replicate in `failed` is skipped there; an error fails it, an overflow
    as a `ValueError` naming the row, and its sum is NaN.  Unless `batch`,
    no certificate is run and every sum is left to `math.fsum`."""
    flat = addends.reshape(addends.shape[0] * addends.shape[1], -1)
    index, sign = _gather_plan(rows, addends.shape[1])
    shape = len(rows), flat.shape[1]
    sums, ok = _distil(flat[i] * s for i, s in zip(index, sign)) if batch else (
        np.empty(shape), np.zeros(shape, dtype=bool))
    row, rep = np.nonzero(~ok)
    for i, r in zip(row.tolist(), rep.tolist()):
        real = sign[:, i, 0] != 0
        try:
            if r not in failed:
                sums[i, r] = math.fsum((flat[index[real, i], r] * sign[real, i, 0]).tolist())
                continue
        except OverflowError:
            failed[r] = ValueError(f"{names[i]} overflows the float range")
        except ValueError as err:  # inf - inf
            failed[r] = err
        sums[i, r] = math.nan
    return sums, row.size


def _totals(catalog: _Catalog, addends: np.ndarray, batch: bool = True) -> tuple:
    """Row values ``[row, replicate]``, TE and ``sum_gap`` of a compiled
    catalog from its addends ``[formula, addend, replicate]``, each failed
    replicate's first error and the count of sums left to `math.fsum` (all unless `batch`).

    Rows are exact sums (`_exact_sums`), so addends that cancel between the
    terms of a row cancel exactly, and a row that is zero in exact
    arithmetic comes out as 0.0.  A replicate fails at its first row, then
    TE, then in-sum total that overflows (naming it) or meets inf - inf.
    """
    failed: dict[int, Exception] = {}
    names = [spec.name for spec in catalog.specs]
    in_sum = tuple((1, i) for i, spec in enumerate(catalog.specs) if spec.in_sum)
    with np.errstate(over="ignore", invalid="ignore"):
        sums, left = _exact_sums((*catalog.rows, catalog.te), addends, (*names, "TE"), failed, batch)
        total, more = _exact_sums((in_sum,), sums[:-1, None], ("the in-sum rows' total",), failed, batch)
    return sums[:-1], sums[-1], np.abs(total[0] - sums[-1]), failed, left + more


def _assemble(catalog: _Catalog, addends: np.ndarray) -> DecompositionResult:
    """A `DecompositionResult` of the rows `_totals` computes from the
    priced formula addends ``[formula, addend]``."""
    values, te, sum_gap, failed, _ = _totals(catalog, addends[..., None], batch=False)
    if failed:
        raise failed[0]
    rows = tuple(
        ComponentValue(spec.name, value, in_sum=spec.in_sum)
        for spec, value in zip(catalog.specs, values[:, 0].tolist())
    )
    return DecompositionResult(rows, te=float(te[0]), sum_gap=float(sum_gap[0]))


def _evaluate(model: DiscreteScm, catalog: _Catalog, q: Query) -> DecompositionResult:
    """A compiled catalog priced on a discrete model's tables."""
    _check_requires(catalog.requires, q)
    values = _price_formulas(model, catalog.formulas, q.to_binding())
    return _assemble(catalog, values[:, None])


# ---------------------------------------------------------------------------
# evaluation


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


@dataclass(frozen=True)
class PluginEstimator:
    """The plug-in estimator ``decompose(from_dataset(data, scenario), q)``.

    Called on a dataset it is exactly that.  `infer.bootstrap` prices its resamples
    in chunks from one encoding of the data (`_PluginChunkPricer`), with the same values.
    """

    scenario: Scenario
    q: Query

    def __call__(self, data: Dataset) -> DecompositionResult:
        return decompose(from_dataset(data, self.scenario), self.q)


class _PluginChunkPricer:
    """A `PluginEstimator`'s resamples priced a chunk at a time, for `infer.bootstrap`.

    The data is encoded once on the full data's level grid.  A chunk's
    resamples are tabulated together (`scm._tally`), turned into tables
    together (`scm._tables`), and the catalog's formulas are priced over all
    of them in one contraction.  A resample with an empty cell on the full
    grid is not priced ("empty_cell"): on its own, its support may shrink or
    its estimate fail.
    """

    reasons = ("empty_cell",)
    least_chunk = 1

    def __init__(self, data: Dataset, estimator: PluginEstimator) -> None:
        self._scenario = estimator.scenario
        self.catalog = _catalog(estimator.scenario)
        levels, self._cell, self._y = _encode(data, estimator.scenario)
        self._shape = tuple(len(lv) for lv in levels)
        self._rows = _formula_rows(self.catalog.formulas, estimator.q.to_binding(), levels)
        self._gathered: tuple[np.ndarray, np.ndarray] | None = None
        self.extras: dict = {}

    def __call__(self, idx: np.ndarray) -> tuple[list[str], np.ndarray]:
        if self._gathered is None:  # the first chunk is the largest
            self._gathered = np.empty(idx.shape, self._cell.dtype), np.empty(idx.shape)
        # "clip" moves no index here and, unlike "raise", takes into `out` with no temporary
        cells, y = (np.take(source, idx, out=buf[:len(idx)], mode="clip")
                    for source, buf in zip((self._cell, self._y), self._gathered))
        counts, ysum = _tally(cells, y, self._shape)
        full = counts.reshape(len(idx), -1).all(axis=1)
        tables = _tables(self._scenario, counts[full], ysum[full])
        reasons = ["" if ok else "empty_cell" for ok in full.tolist()]
        return reasons, _price_tables(*tables, self._rows)

    def addends(self, parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts).T[:, None]
