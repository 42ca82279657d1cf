"""Discrete structural causal model over one or two mediators.

Holds the tables Pr(M1 | A), Pr(M2 | A, M1) and the outcome cell means
E[Y | A, M1, M2] as dense arrays, prices identifiable counterfactual formulas
by contracting those arrays, simulates datasets for testing, and builds
plug-in models from categorical data.

Non-sequential two-mediator models are stored in sequential shape with
Pr(M2 | A, M1) constant in m1, so a single pricing routine serves both
structures.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .cfexpr import (
    CfExpr,
    Fixed,
    IdentifiabilityVerdict,
    Scenario,
    ScenarioKind,
    check_identifiability,
    format_cf,
    validate_cf,
)

__all__ = [
    "Dataset",
    "DiscreteScm",
    "EmptyCell",
    "NonCategoricalColumn",
    "NotIdentifiable",
    "UnboundLevel",
    "UnknownSupportValue",
    "eval_expectation",
    "from_dataset",
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
    "simulate",
]

_ROW_SUM_TOL = 1e-12
_MAX_SUPPORT = 64


class NotIdentifiable(ValueError):
    """Expectation requested for a problematic counterfactual formula."""

    def __init__(self, expr: CfExpr, verdict: IdentifiabilityVerdict):
        parts = "; ".join(
            f"M{c.mediator} pinned as {', '.join(c.specs)}" for c in verdict.conflicts
        )
        super().__init__(f"{format_cf(expr)} is not identifiable: {parts}")
        self.verdict = verdict


class UnboundLevel(ValueError):
    """A formula symbol has no binding to a model level."""


class UnknownSupportValue(ValueError):
    """A bound or literal level is absent from the relevant support."""


class EmptyCell(ValueError):
    """Plug-in tables require cells that hold no observations."""

    def __init__(self, cells: Sequence[tuple[tuple[str, Any], ...]]):
        self.cells = tuple(cells)
        shown = ", ".join(
            "(" + ", ".join(f"{name}={level!r}" for name, level in cell) + ")"
            for cell in self.cells[:8]
        )
        more = "" if len(self.cells) <= 8 else f" and {len(self.cells) - 8} more"
        super().__init__(f"empty cells: {shown}{more}")


class NonCategoricalColumn(ValueError):
    """A column bound as categorical looks continuous."""


def _as_prob_row(row: Mapping[Any, float], levels: tuple, what: str) -> list[float]:
    out = []
    for level in levels:
        if level not in row:
            raise ValueError(f"{what} is missing an entry for level {level!r}")
        p = _float(row[level], f"{what}[{level!r}]")
        if not p >= 0.0:  # NaN fails too
            raise ValueError(f"{what} has a negative or NaN probability {p!r} at {level!r}")
        out.append(p)
    extras = [k for k in row if k not in levels]
    if extras:
        raise ValueError(f"{what} has entries outside the support: {extras!r}")
    total = sum(out)
    if not abs(total - 1.0) <= _ROW_SUM_TOL:
        raise ValueError(f"{what} sums to {total!r}, not 1")
    if total != 1.0:
        out = [p / total for p in out]
    return out


def _rows_text(rows: Sequence[int]) -> str:
    """Row numbers as an error lists them: the first ten, then how many more."""
    shown = ", ".join(str(int(r)) for r in rows[:10])
    return shown + (f" (+{len(rows) - 10} more)" if len(rows) > 10 else "")


def _cell_means(row: Mapping, levels: tuple, what: str) -> list[float]:
    out = [_float(_row(row, level, what), f"{what}[{level!r}]") for level in levels]
    for level, y in zip(levels, out):
        if not math.isfinite(y):
            raise ValueError(f"{what}[{level!r}] is {y!r}; cell means must be finite")
    return out


def _row(table: Mapping, key: Any, what: str) -> Mapping:
    if key not in table:
        raise ValueError(f"{what} is missing the row for level {key!r}")
    return table[key]


def _first(table: Any, what: str) -> tuple[Any, str]:
    """The first value of the non-empty JSON object `what`, and its name."""
    for key, value in _json_object(table, what).items():
        return value, f"{what}[{key!r}]"
    raise ValueError(f"{what} must be a non-empty JSON object")


def _float(value: Any, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is {value!r}, not a number") from None


def _dense(table: Mapping, axes: Sequence[tuple], what: str, read_row) -> np.ndarray:
    """Array of a nested mapping along level tuples; `read_row` reads the last axis."""
    _json_object(table, what)
    if len(axes) == 1:
        return np.array(read_row(table, axes[0], what))
    return np.array(
        [_dense(_row(table, level, what), axes[1:], f"{what}[{level!r}]", read_row)
         for level in axes[0]]
    )


def _nested(table: np.ndarray, axes: Sequence[tuple], key=lambda level: level) -> dict:
    """Nested ``{level: {level: value}}`` dict of an array, one level tuple per axis."""
    if len(axes) == 1:
        return {key(level): v for level, v in zip(axes[0], table.tolist())}
    return {key(level): _nested(sub, axes[1:], key) for level, sub in zip(axes[0], table)}


class DiscreteScm:
    """Tables of a discrete one- or two-mediator model.

    Parameters
    ----------
    scenario : Scenario
        ``single``, ``nonseq2``, or ``seq2``; the evaluator stops at two
        mediators.
    pm1 : mapping
        ``pm1[a][m1]`` = Pr(M1 = m1 | A = a).
    pm2 : mapping, optional
        ``pm2[a][m1][m2]`` = Pr(M2 = m2 | A = a, M1 = m1).  Required for two
        mediators; must be constant in m1 when the scenario is
        non-sequential.  Use `DiscreteScm.nonseq2` to build from the marginal
        Pr(M2 | A) directly.
    ymean : mapping
        ``ymean[a][m1]`` (one mediator) or ``ymean[a][m1][m2]`` = E[Y | ...].
    treatment, reference : optional
        Levels the symbols ``a`` and ``a*`` evaluate to.

    Probability rows must sum to one within 1e-12 and are renormalized to
    exactly one; larger drift is an error.  The tables are stored as dense
    arrays indexed by level position (``[a, m1]`` and ``[a, m1, m2]``); the
    ``pm1``, ``pm2`` and ``ymean`` attributes are nested-dict copies of them.
    """

    def __init__(
        self,
        scenario: Scenario,
        pm1: Mapping[Any, Mapping[Any, float]],
        ymean: Mapping[Any, Any],
        pm2: Mapping[Any, Mapping[Any, Mapping[Any, float]]] | None = None,
        exposure_levels: tuple = (),
        m1_levels: tuple = (),
        m2_levels: tuple | None = None,
        treatment: Any = None,
        reference: Any = None,
    ) -> None:
        if scenario.k > 2:
            raise ValueError("enumeration models support at most two mediators")
        exposure = exposure_levels or tuple(pm1.keys())
        if not exposure:
            raise ValueError("model needs at least one exposure level")
        m1 = m1_levels or tuple(_json_object(*_first(pm1, "pm1")))
        p1 = _dense(pm1, (exposure, m1), "pm1", _as_prob_row)
        if scenario.k == 1:
            if pm2 is not None or m2_levels is not None:
                raise ValueError("single-mediator model takes no pm2 table")
            m2 = p2 = None
        else:
            if pm2 is None:
                raise ValueError("two-mediator model requires a pm2 table")
            m2 = m2_levels or tuple(_json_object(*_first(*_first(pm2, "pm2"))))
            p2 = _dense(pm2, (exposure, m1, m2), "pm2", _as_prob_row)
            if scenario.kind is ScenarioKind.NONSEQ:
                drift = np.abs(p2 - p2[:, :1, :]).max(axis=(1, 2))
                for a, d in zip(exposure, drift.tolist()):
                    if d > _ROW_SUM_TOL:
                        raise ValueError(
                            "non-sequential model requires Pr(M2 | A) "
                            f"independent of M1; pm2[{a!r}] varies by {d:g}"
                        )
        y = _dense(ymean, (exposure, m1, m2)[: scenario.k + 1], "ymean", _cell_means)
        levels = (tuple(exposure), tuple(m1), None if m2 is None else tuple(m2))
        self._set(scenario, levels, p1, p2, y, treatment, reference)

    def _set(self, scenario, levels, p1, p2, y, treatment, reference) -> None:
        for name, level in (("treatment", treatment), ("reference", reference)):
            if level is not None and level not in levels[0]:
                raise ValueError(f"{name} level {level!r} is not an exposure level")
        for table in (p1, p2, y):
            if table is not None:
                table.flags.writeable = False
        names = ("scenario", "exposure_levels", "m1_levels", "m2_levels", "treatment",
                 "reference", "_p1", "_p2", "_y")
        for name, value in zip(names, (scenario, *levels, treatment, reference, p1, p2, y)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"DiscreteScm is read-only; cannot set {name!r}")

    @classmethod
    def _from_arrays(cls, scenario, levels, p1, p2, y):
        """A model from dense tables already known to be valid (plug-in use)."""
        model = cls.__new__(cls)
        model._set(scenario, levels, p1, p2, y, None, None)
        return model

    @property
    def pm1(self) -> dict:
        return _nested(self._p1, (self.exposure_levels, self.m1_levels))

    @property
    def pm2(self) -> dict | None:
        axes = (self.exposure_levels, self.m1_levels, self.m2_levels)
        return None if self._p2 is None else _nested(self._p2, axes)

    @property
    def ymean(self) -> dict:
        axes = (self.exposure_levels, self.m1_levels, self.m2_levels)
        return _nested(self._y, axes[: self.k + 1])

    @staticmethod
    def nonseq2(
        pm1: Mapping,
        pm2_marginal: Mapping[Any, Mapping[Any, float]],
        ymean: Mapping,
        **kwargs: Any,
    ) -> "DiscreteScm":
        """Build a non-sequential model from the marginal table Pr(M2 | A)."""
        m1_levels = kwargs.get("m1_levels") or tuple(_json_object(*_first(pm1, "pm1")))
        expanded = {
            a: {lvl: dict(_json_object(row, f"pm2[{a!r}]")) for lvl in m1_levels}
            for a, row in pm2_marginal.items()
        }
        return DiscreteScm(
            Scenario.nonseq(2), pm1=pm1, pm2=expanded, ymean=ymean, **kwargs
        )

    @property
    def k(self) -> int:
        return self.scenario.k


def _resolve_level(value: Any, levels: tuple, what: str) -> Any:
    """Match `value` against a support, tolerating str/int/float spellings."""
    if value in levels:
        return value
    if isinstance(value, str):
        for cast in (int, float):
            try:
                converted = cast(value)
            except ValueError:
                continue
            if converted in levels:
                return converted
    else:
        if str(value) in levels:
            return str(value)
    raise UnknownSupportValue(f"{what}: level {value!r} is not in the support {list(levels)!r}")


@dataclass(frozen=True)
class Dataset:
    """Role-bound rectangular data: exposure, mediator(s), outcome, covariates."""

    exposure: np.ndarray
    m1: np.ndarray
    outcome: np.ndarray
    m2: np.ndarray | None = None
    covariates: dict[str, np.ndarray] = field(default_factory=dict)
    n_dropped: int = 0

    def __post_init__(self) -> None:
        n = len(self.exposure)
        if n < 1:
            raise ValueError("dataset needs at least one row")
        columns = [("m1", self.m1), ("outcome", self.outcome)]
        if self.m2 is not None:
            columns.append(("m2", self.m2))
        columns += list(self.covariates.items())
        for name, col in columns:
            if len(col) != n:
                raise ValueError(f"column {name!r} has {len(col)} rows, expected {n}")

    @property
    def n(self) -> int:
        return len(self.exposure)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset/resample; drops the original drop count."""
        return Dataset(
            exposure=self.exposure[indices],
            m1=self.m1[indices],
            outcome=self.outcome[indices],
            m2=None if self.m2 is None else self.m2[indices],
            covariates={k: v[indices] for k, v in self.covariates.items()},
        )


# ---------------------------------------------------------------------------
# evaluation


def _bind_exposure(
    symbol: str, levels: tuple, treatment: Any, reference: Any, binding: Mapping[str, Any]
) -> Any:
    if symbol in binding:
        return _resolve_level(binding[symbol], levels, f"exposure {symbol}")
    if symbol == "a":
        if treatment is None:
            raise UnboundLevel("no level bound for the treatment symbol 'a'")
        return treatment
    if symbol == "a*":
        if reference is None:
            raise UnboundLevel("no level bound for the reference symbol 'a*'")
        return reference
    if "*" in symbol:
        raise UnboundLevel(f"no level bound for exposure symbol {symbol!r}")
    return _resolve_level(symbol, levels, f"exposure {symbol!r}")


def _bind_fixed(
    label: str, levels: tuple, binding: Mapping[str, Any], mediator: str
) -> Any:
    if label in binding:
        return _resolve_level(binding[label], levels, f"{mediator} level {label!r}")
    if "*" in label:
        raise UnboundLevel(f"no level bound for fixed {mediator} label {label!r}")
    return _resolve_level(label, levels, f"{mediator} level {label!r}")


def _compile_formula(expr: CfExpr, scenario: Scenario) -> tuple:
    """Check a formula against `scenario` and reduce it to its slots.

    The result is Y's exposure symbol followed by one ``(fixed, symbol)``
    pair per mediator: a fixed level's label, or the exposure symbol the
    mediator is activated under.  A mediator's history needs no slot of its
    own because identifiability forces every occurrence of M1's spec to
    coincide, so M2's parent is always the M1 slot.  Engines price these
    slots; no validation is left for them to do.

    Raises `NotIdentifiable` for a problematic formula and, through
    `validate_cf`, a `ParseError` for one that does not fit the scenario.
    """
    validate_cf(expr, scenario)
    verdict = check_identifiability(expr, scenario)
    if not verdict.identifiable:
        raise NotIdentifiable(expr, verdict)
    return (expr.exposure.symbol,) + tuple(
        (True, spec.label) if isinstance(spec, Fixed) else (False, spec.exposure.symbol)
        for spec in expr.mediators
    )


def _formula_rows(
    formulas: Sequence[tuple],
    binding: Mapping[str, Any],
    levels: Sequence[tuple],
    treatment: Any = None,
    reference: Any = None,
) -> tuple[list[int], ...]:
    """Per slot, each formula's row in that slot's stacked weight table.

    `levels` are the exposure and mediator supports, and `treatment` and
    `reference` the levels ``a`` and ``a*`` fall back to.  Slot 0 indexes
    the exposure rows of ``ymean``; a mediator slot indexes its conditional
    probability rows at each exposure level followed by one point-mass row
    per mediator level.  The rows serve every table on those supports.
    """
    exposure = levels[0]

    def rows(i: int) -> list[int]:
        resolved = {}
        for slot in dict.fromkeys(f[i] for f in formulas):
            fixed, symbol = slot if i else (False, slot)
            if fixed:
                level = _bind_fixed(symbol, levels[i], binding, f"M{i}")
                resolved[slot] = len(exposure) + levels[i].index(level)
            else:
                level = _bind_exposure(symbol, exposure, treatment, reference, binding)
                resolved[slot] = exposure.index(level)
        return [resolved[f[i]] for f in formulas]

    return tuple(rows(i) for i in range(len(levels)))


def _price_tables(
    p1: np.ndarray, p2: np.ndarray | None, y: np.ndarray, rows: Sequence[list[int]]
) -> np.ndarray:
    """Formula expectations per table set, shaped ``[replicate, formula]``.

    The tables carry a leading replicate axis (``p1[r, a, m1]`` and so on)
    and `rows` comes from `_formula_rows`.  Each formula is the sum over m1
    of ``w1[m1]`` times the sum over m2 of ``w2[m1, m2] * ymean[e_Y, m1,
    m2]``, where a weight is a probability row or a point mass and M2's row
    is taken at the shared m1 index.  All formulas of all replicates are
    priced in one vectorised contraction, summed in that order over the
    contiguous last axis, so a replicate's values do not depend on how many
    replicates share the call.
    """
    r, _, k1 = p1.shape
    point1 = np.broadcast_to(np.eye(k1), (r, k1, k1))
    w1 = np.concatenate([p1, point1], axis=1).take(rows[1], axis=1)
    y = y.take(rows[0], axis=1)
    if p2 is None:
        return (w1 * y).sum(axis=-1)
    k2 = p2.shape[-1]
    point2 = np.broadcast_to(np.eye(k2)[:, None, :], (r, k2, k1, k2))
    w2 = np.concatenate([p2, point2], axis=1).take(rows[2], axis=1)
    return (w1 * (w2 * y).sum(axis=-1)).sum(axis=-1)


def _price_formulas(
    model: DiscreteScm, formulas: Sequence[tuple], binding: Mapping[str, Any]
) -> np.ndarray:
    """Expectations of compiled formulas (see `_compile_formula`) under a binding."""
    levels = (model.exposure_levels, model.m1_levels, model.m2_levels)[: model.k + 1]
    rows = _formula_rows(formulas, binding, levels, model.treatment, model.reference)
    p2 = None if model._p2 is None else model._p2[None]
    return _price_tables(model._p1[None], p2, model._y[None], rows)[0]


def eval_expectation(
    model: DiscreteScm, expr: CfExpr, binding: Mapping[str, Any] | None = None
) -> float:
    """Expectation of an identifiable counterfactual formula.

    Computes sum over (m1, m2) of ``ymean(e_Y, m1, m2) * w1(m1) * w2(m2 | m1)``
    where each weight is a point mass at a fixed level or the conditional
    probability row at the spec's exposure (see `_price_formulas`).

    Parameters
    ----------
    model : DiscreteScm
    expr : CfExpr
        Must be identifiable for the model's scenario.
    binding : mapping, optional
        Symbol-to-level overrides, e.g. ``{"a": 1, "a*": 0, "m1*": 0}``.
        Unlisted symbols fall back to the model's treatment/reference levels;
        star-free symbols may also match support levels literally.

    Raises
    ------
    NotIdentifiable
        The formula is problematic; no expectation is defined by the tables.
    UnboundLevel, UnknownSupportValue
        A symbol cannot be mapped into the model's supports.
    """
    formula = _compile_formula(expr, model.scenario)
    return float(_price_formulas(model, (formula,), binding or {})[0])


# ---------------------------------------------------------------------------
# simulation


def _sample_rows(
    rng: np.random.Generator, prob_rows: np.ndarray, row_idx: np.ndarray
) -> np.ndarray:
    """Draw one categorical value per row from per-row probability vectors."""
    cum = np.cumsum(prob_rows[row_idx], axis=1)
    u = rng.random(len(row_idx))
    idx = (cum < u[:, None]).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def simulate(
    model: DiscreteScm,
    n: int,
    seed: int,
    noise_sd: float = 1.0,
) -> Dataset:
    """Draw `n` i.i.d. rows through the factorization A -> M1 (-> M2) -> Y.

    The exposure is uniform over the model's levels, and the outcome is its
    cell mean plus Gaussian noise with finite, non-negative standard
    deviation `noise_sd`.  Identical ``(model, n, seed, noise_sd)`` give
    byte-identical output; the generator is stream-split so concurrent
    callers with distinct seeds never share state.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (np.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    levels = model.exposure_levels
    probs = np.full(len(levels), 1.0 / len(levels))

    rng = np.random.default_rng(seed)
    a_idx = _sample_rows(rng, np.tile(probs, (1, 1)), np.zeros(n, dtype=int))

    m1_idx = _sample_rows(rng, model._p1, a_idx)

    exposure = np.asarray(levels)[a_idx]
    m1 = np.asarray(model.m1_levels)[m1_idx]

    if model.k == 1:
        mean = model._y[a_idx, m1_idx]
        outcome = mean + rng.normal(size=n) * noise_sd
        return Dataset(exposure=exposure, m1=m1, outcome=outcome)

    k1, k2 = model._p2.shape[1:]
    m2_idx = _sample_rows(rng, model._p2.reshape(-1, k2), a_idx * k1 + m1_idx)
    m2 = np.asarray(model.m2_levels)[m2_idx]
    mean = model._y[a_idx, m1_idx, m2_idx]
    outcome = mean + rng.normal(size=n) * noise_sd
    return Dataset(exposure=exposure, m1=m1, outcome=outcome, m2=m2)


# ---------------------------------------------------------------------------
# plug-in construction


def _check_categorical(name: str, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reject a non-categorical column; return its distinct values and row inverse."""
    if np.issubdtype(col.dtype, np.floating):
        finite = np.isfinite(col)
        if not finite.all() or not np.equal(np.mod(col, 1), 0).all():
            raise NonCategoricalColumn(
                f"column {name!r} holds non-integer reals; bin it before plug-in use"
            )
    distinct, inverse = np.unique(col, return_inverse=True)
    if len(distinct) > _MAX_SUPPORT:
        raise NonCategoricalColumn(
            f"column {name!r} has {len(distinct)} distinct values; not categorical"
        )
    return distinct, inverse


def _codes(distinct: np.ndarray, inverse: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Levels and per-row level positions: the sorted distinct values as
    Python scalars, and the row inverse of `np.unique`, which indexes them."""
    return tuple(v.item() if hasattr(v, "item") else v for v in distinct), inverse


def _encode(data: Dataset, scenario: Scenario) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Levels per role, each row's cell code on the level grid, and float y.

    The code is the row-major position of the row's (a, m1(, m2)) cell.  A
    non-finite outcome raises, naming its rows.
    """
    if scenario.k > 2:
        raise ValueError("plug-in models support at most two mediators")
    a_enc = _check_categorical("exposure", data.exposure)
    m1_enc = _check_categorical("m1", data.m1)
    a_levels, a_codes = _codes(*a_enc)
    l1, c1 = _codes(*m1_enc)
    levels = [a_levels, l1]
    cell = a_codes * len(l1) + c1
    if scenario.k == 2:
        if data.m2 is None:
            raise ValueError("two-mediator scenario requires an m2 column")
        l2, c2 = _codes(*_check_categorical("m2", data.m2))
        levels.append(l2)
        cell = cell * len(l2) + c2
    y = np.asarray(data.outcome, dtype=float)
    bad = np.nonzero(~np.isfinite(y))[0]
    if bad.size:
        raise ValueError(f"column 'outcome' holds non-finite values at rows {_rows_text(bad)}")
    return tuple(levels), cell, y


def _tally(cells: np.ndarray, y: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Row counts and y-sums per cell of the level grid `shape`.

    A 2-D `cells` (with `y` alongside) holds one replicate per row and gives
    tables with a leading replicate axis: each replicate's codes are offset
    into a grid of their own, so one `bincount` tallies them all, and each
    y-sum adds its rows in the same order as a tally of that replicate alone.
    """
    size = int(np.prod(shape))
    lead = cells.shape[:-1]
    if lead:
        cells = cells + (np.arange(lead[0]) * size)[:, None]
    total = size * (lead[0] if lead else 1)
    counts = np.bincount(cells.ravel(), minlength=total).reshape(lead + shape)
    ysum = np.bincount(cells.ravel(), weights=y.ravel(), minlength=total)
    return counts, ysum.reshape(lead + shape)


def _tables(
    scenario: Scenario, counts: np.ndarray, ysum: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Plug-in ``p1``, ``p2`` and ``ymean`` of non-empty cell tables.

    The tables are shaped ``[..., a, m1(, m2)]``; leading replicate axes pass
    through.
    """
    n_am1 = counts if scenario.k == 1 else counts.sum(axis=-1)
    n_a = n_am1.sum(axis=-1)[..., None]
    if scenario.k == 1:
        p2 = None
    elif scenario.kind is ScenarioKind.NONSEQ:
        p2 = np.repeat((counts.sum(axis=-2) / n_a)[..., None, :], counts.shape[-2], axis=-2)
    else:
        p2 = counts / n_am1[..., None]
    return n_am1 / n_a, p2, ysum / counts


def from_dataset(data: Dataset, scenario: Scenario) -> DiscreteScm:
    """Empirical plug-in model: conditional frequencies and cell means.

    Each role's support is its observed distinct values, in sorted order,
    and the model binds no treatment or reference level: a query binds
    ``a`` and ``a*``.  Any required cell without observations raises
    `EmptyCell` naming every offending cell — empty cells are never imputed.
    """
    levels, cell, y = _encode(data, scenario)
    counts, ysum = _tally(cell, y, tuple(len(lv) for lv in levels))
    if not counts.all():
        raise EmptyCell(_empty_cells(counts, levels))
    tables = _tables(scenario, counts, ysum)
    return DiscreteScm._from_arrays(scenario, levels + (None,) * (2 - scenario.k), *tables)


def _empty_cells(counts: np.ndarray, levels: Sequence[tuple]) -> list:
    """Cells without rows, as `EmptyCell` lists them: per exposure level
    each empty (A, M1) cell, else its empty (A, M1, M2) cells.  Every
    observed exposure level has rows."""
    by_a = counts.reshape(len(levels[0]), len(levels[1]), -1)
    empty: list = []
    for (i, j), n_am1 in np.ndenumerate(by_a.sum(axis=2)):
        cell = (("A", levels[0][i]), ("M1", levels[1][j]))
        if n_am1 == 0:
            empty.append(cell)
        elif len(levels) == 3:
            empty.extend(cell + (("M2", v),) for v, n in zip(levels[2], by_a[i, j]) if n == 0)
    return empty


# ---------------------------------------------------------------------------
# model files


def model_to_json(model: DiscreteScm) -> dict:
    """Plain-JSON shape of a model; all levels rendered as strings."""
    s = str
    exposure, m1, m2 = model.exposure_levels, model.m1_levels, model.m2_levels
    levels: dict[str, Any] = {
        role: [s(v) for v in support]
        for role, support in (("exposure", exposure), ("m1", m1), ("m2", m2))
        if support is not None
    }
    if model.treatment is not None:
        levels["treatment"] = s(model.treatment)
    if model.reference is not None:
        levels["reference"] = s(model.reference)
    doc: dict[str, Any] = {
        "scenario": model.scenario.id,
        "levels": levels,
        "pm1": _nested(model._p1, (exposure, m1), s),
    }
    if model.k == 2:
        if model.scenario.kind is ScenarioKind.NONSEQ:
            doc["pm2"] = _nested(model._p2[:, 0, :], (exposure, m2), s)
        else:
            doc["pm2"] = _nested(model._p2, (exposure, m1, m2), s)
    doc["ymean"] = _nested(model._y, (exposure, m1, m2)[: model.k + 1], s)
    return doc


def _json_object(value: Any, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _str_keys(table: Any, what: str) -> dict:
    """The nested JSON table `what` with string keys and float leaves."""
    out = {}
    for k, v in _json_object(table, what).items():
        key = f"{what}[{str(k)!r}]"
        out[str(k)] = _str_keys(v, key) if isinstance(v, Mapping) else _float(v, key)
    return out


def model_from_json(doc: Any) -> DiscreteScm:
    """Inverse of `model_to_json`; levels are strings throughout."""
    scenario_id = _json_object(doc, "model document")["scenario"]
    if not isinstance(scenario_id, str):
        raise ValueError(f"scenario must be a JSON string, got {type(scenario_id).__name__}")
    scenario = Scenario.from_id(scenario_id)
    levels = _json_object(doc.get("levels", {}), "levels")
    kwargs: dict[str, Any] = {
        "treatment": levels.get("treatment"),
        "reference": levels.get("reference"),
    }
    roles = ("exposure", "m1") if scenario.k == 1 else ("exposure", "m1", "m2")
    for role in roles:
        if role in levels:
            support = levels[role]
            if not isinstance(support, list):
                raise ValueError(f"levels[{role!r}] must be a JSON list, "
                                 f"got {type(support).__name__}")
            kwargs[f"{role}_levels"] = tuple(str(v) for v in support)
    pm1, ymean = _str_keys(doc["pm1"], "pm1"), _str_keys(doc["ymean"], "ymean")
    if scenario.k == 1:
        return DiscreteScm(scenario, pm1=pm1, ymean=ymean, **kwargs)
    pm2 = _str_keys(doc["pm2"], "pm2")
    if isinstance(_first(*_first(pm2, "pm2"))[0], Mapping):
        return DiscreteScm(scenario, pm1=pm1, pm2=pm2, ymean=ymean, **kwargs)
    if scenario.kind is not ScenarioKind.NONSEQ:
        raise ValueError(
            "sequential model files need the full pm2[a][m1][m2] table; "
            "the flat pm2[a][m2] shape is only valid for nonseq scenarios"
        )
    return DiscreteScm.nonseq2(pm1, pm2, ymean, **kwargs)


def load_model(path: str) -> DiscreteScm:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def save_model(model: DiscreteScm, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")
