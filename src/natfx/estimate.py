"""Estimators for mediation components.

Two routes to the seq2 decomposition, both evaluations of the one seq2
component catalog in :mod:`natfx.decomp`:

* ``plugin_seq2`` prices its formulas on the probability tables and cell
  means of a categorical model;
* ``linear_components`` prices them in closed form under a Gaussian-linear
  sequential model whose coefficients come from three least-squares
  regressions fitted by ``fit_linear_system``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .cfexpr import Scenario, ScenarioKind
from .decomp import (
    DecompositionResult,
    Query,
    _assemble,
    _catalog,
    _check_requires,
    _evaluate,
)
from .scm import Dataset, DiscreteScm, _rows_text

__all__ = [
    "Assumption",
    "AssumptionLedger",
    "CovariateProfile",
    "LinearEstimator",
    "LinearFit",
    "LinearParams",
    "LogDomainError",
    "RankDeficient",
    "fit_linear_system",
    "fit_ols",
    "linear_components",
    "plugin_seq2",
]

_PIVOT_TOL = 1e-10
# rows of [X | y] factored per step of `_triangle`: memory stays at one
# block beside the running triangle, whatever the sample size
_QR_BLOCK_ROWS = 8192


class RankDeficient(ValueError):
    """The design matrix has a column explained by the columns pivoted before
    it.  Of exactly dependent columns, the one named is the one pivoting
    reaches last; rounding orders those of equal norm."""

    def __init__(self, column: str, index: int, pivot: float = 0.0):
        self.column = column
        self.index = index
        self.pivot = pivot
        super().__init__(
            f"design is rank deficient: column {column!r} (index {index}) is "
            f"linearly dependent on the others (pivot {pivot:.3e})"
        )


class LogDomainError(ValueError):
    """A log transform met non-positive values."""

    def __init__(self, column: str, rows: Sequence[int]):
        self.column = column
        self.rows = tuple(int(r) for r in rows)
        super().__init__(
            f"log transform of column {column!r} undefined: non-positive "
            f"values at rows {_rows_text(self.rows)}"
        )


# ---------------------------------------------------------------------------
# parameter containers


def _floats(name: str, raw: Any) -> tuple[float, ...]:
    """A list of numbers as floats; anything else (digit strings too) raises `ValueError`."""
    if not isinstance(raw, (str, Mapping)):
        try:
            return tuple(float(v) for v in raw)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a list of numbers, got {raw!r}")


@dataclass(frozen=True)
class LinearParams:
    """Coefficients of the three-equation Gaussian chain model.

    ``theta`` holds the outcome regression in the order (intercept, A, M1,
    M2, A·M1, A·M2, M1·M2, A·M1·M2); ``beta`` the M2 regression (intercept,
    A, M1, A·M1); ``gamma`` the M1 regression (intercept, A).  The ``_c``
    vectors are covariate coefficients and must share one length across the
    three equations.  ``sigma2_m1`` is the residual variance of the M1
    regression; it enters the closed forms through E[M1^2].
    """

    theta: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    theta_c: tuple[float, ...] = ()
    beta_c: tuple[float, ...] = ()
    gamma_c: tuple[float, ...] = ()
    sigma2_m1: float = 0.0

    def __post_init__(self) -> None:
        for _, name, regressors in _EQUATIONS:
            vals = _floats(name, getattr(self, name))
            if len(vals) != len(regressors):
                raise ValueError(f"{name} needs {len(regressors)} coefficients, got {len(vals)}")
            object.__setattr__(self, name, vals)
        for name in ("theta_c", "beta_c", "gamma_c"):
            object.__setattr__(self, name, _floats(name, getattr(self, name)))
        lengths = {len(self.theta_c), len(self.beta_c), len(self.gamma_c)}
        if len(lengths) > 1:
            raise ValueError("covariate coefficient vectors must share one length, "
                             f"got {sorted(lengths)}")
        try:
            object.__setattr__(self, "sigma2_m1", float(self.sigma2_m1))
        except (TypeError, ValueError):
            raise ValueError(f"sigma2_m1 must be a number, got {self.sigma2_m1!r}") from None
        if not self.sigma2_m1 >= 0.0:
            raise ValueError(f"sigma2_m1 must be >= 0, got {self.sigma2_m1}")
        for name in ("theta", "beta", "gamma", "theta_c", "beta_c", "gamma_c"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name} contains a non-finite coefficient")
        if not math.isfinite(self.sigma2_m1):
            raise ValueError("sigma2_m1 is not finite")

    @property
    def n_covariates(self) -> int:
        return len(self.theta_c)

    def to_dict(self) -> dict[str, Any]:
        names = ("theta", "theta_c", "beta", "beta_c", "gamma", "gamma_c")
        return {**{name: list(getattr(self, name)) for name in names}, "sigma2_m1": self.sigma2_m1}

    @staticmethod
    def from_dict(doc: Any) -> "LinearParams":
        if not isinstance(doc, Mapping):
            raise ValueError(f"parameter document must be a JSON object, got {type(doc).__name__}")
        try:
            return LinearParams(
                **{name: doc[name] for name in ("theta", "beta", "gamma")},
                **{name: doc.get(name, ()) for name in ("theta_c", "beta_c", "gamma_c")},
                sigma2_m1=doc.get("sigma2_m1", 0.0),
            )
        except KeyError as err:
            raise ValueError(f"parameter document is missing key {err}") from None


@dataclass(frozen=True)
class CovariateProfile:
    """A covariate value vector the components are reported conditional on.

    No marginalization happens anywhere: every closed form is evaluated at
    exactly these values (e.g. one sex, the mean age).
    """

    values: tuple[float, ...] = ()
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != len(self.values):
                raise ValueError(f"{len(names)} covariate names for {len(self.values)} values")
            object.__setattr__(self, "names", names)


def _covariate_vector(
    k: int, c: CovariateProfile | Sequence[float] | None
) -> tuple[float, ...]:
    """The profile's values, checked against a model with `k` covariates."""
    if c is None:
        return (0.0,) * k
    values = c.values if isinstance(c, CovariateProfile) else tuple(float(v) for v in c)
    if len(values) != k:
        raise ValueError(f"covariate profile has {len(values)} values; the model has {k} "
                         "covariate coefficients")
    return values


def _dot(coefs: tuple[float, ...], values: tuple[float, ...]) -> float:
    return sum(a * b for a, b in zip(coefs, values))


# ---------------------------------------------------------------------------
# assumption ledger


@dataclass(frozen=True)
class Assumption:
    id: str
    prose: str
    acknowledged: bool = False


_SINGLE_ASSUMPTIONS: tuple[tuple[str, str], ...] = (
    ("A'1", "no unmeasured exposure-outcome confounding given the covariates"),
    (
        "A'2",
        "no unmeasured mediator-outcome confounding given exposure and covariates",
    ),
    ("A'3", "no unmeasured exposure-mediator confounding given the covariates"),
    (
        "A'4",
        "no mediator-outcome confounder is itself affected by the exposure "
        "(outcome counterfactuals are independent of the mediator's "
        "counterfactual under the other exposure level)",
    ),
)

_TWO_MEDIATOR_ASSUMPTIONS: tuple[tuple[str, str], ...] = (
    ("A1", "no unmeasured exposure-outcome confounding given the covariates"),
    (
        "A2",
        "no unmeasured confounding of the outcome and the mediator set given "
        "exposure and covariates",
    ),
    ("A3", "no unmeasured exposure-mediator confounding given the covariates"),
    (
        "A4",
        "no mediator-outcome confounder is itself affected by the exposure "
        "(outcome counterfactuals are independent of the mediator "
        "counterfactuals under other exposure levels)",
    ),
    (
        "A5",
        "no unmeasured confounding between the two mediators given exposure "
        "and covariates",
    ),
    (
        "A6",
        "no confounder of the mediator pair is itself affected by the "
        "exposure (M2's counterfactual is independent of M1's counterfactual "
        "under the other exposure level)",
    ),
)


@dataclass(frozen=True)
class AssumptionLedger:
    """The no-unmeasured-confounding conditions an estimate leans on.

    None of them is testable from the data, so estimation proceeds either
    way; reports embed the ledger so the reliance stays visible, and the
    ``acknowledged`` flags record that a user has read them.
    """

    scenario: Scenario
    assumptions: tuple[Assumption, ...]

    @staticmethod
    def for_scenario(scenario: Scenario, acknowledged: bool = False) -> "AssumptionLedger":
        table = (
            _SINGLE_ASSUMPTIONS
            if scenario.kind is ScenarioKind.SINGLE
            else _TWO_MEDIATOR_ASSUMPTIONS
        )
        return AssumptionLedger(
            scenario=scenario,
            assumptions=tuple(
                Assumption(aid, prose, acknowledged) for aid, prose in table
            ),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.id,
            "assumptions": [
                {"id": a.id, "prose": a.prose, "acknowledged": a.acknowledged}
                for a in self.assumptions
            ],
        }


# ---------------------------------------------------------------------------
# least squares


def _pivoted_qr(
    r0: np.ndarray, names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``r0[:, pivots] = q1 @ r`` by Businger-Golub column-pivoted Householder
    QR of the small square triangle of ``X = Q0 R0``, so ``X[:, pivots] =
    (Q0 q1) r`` with the pivots of a pivoted QR of X itself; plus the pivot
    ratio ``min|r_kk| / |r_11|``.  Raises :class:`RankDeficient` at the
    first pivot at or below `_PIVOT_TOL` of the leading one."""
    p = r0.shape[1]
    r, qt, pivots = np.array(r0, dtype=float), np.eye(p), np.arange(p)
    for k in range(p):
        # the remaining column of largest norm, the first on a tie
        j = k + int(np.argmax(np.square(r[k:, k:]).sum(axis=0)))
        r[:, [k, j]], pivots[[k, j]] = r[:, [j, k]], pivots[[j, k]]
        v = r[k:, k].copy()
        v[0] += math.copysign(math.hypot(*v), v[0])
        if not v.any():
            break  # every remaining column is zero
        v /= math.hypot(*v)
        r[k:, k:] -= np.outer(2.0 * v, v @ r[k:, k:])
        qt[k:] -= np.outer(2.0 * v, v @ qt[k:])  # the same reflections give q1ᵀ
    r = np.triu(r)
    diag = np.abs(np.diag(r))
    lead = float(diag[0]) if diag.size else 0.0
    small = np.nonzero(diag <= _PIVOT_TOL * lead)[0]
    if small.size:
        k = int(small[0])
        j = int(pivots[k])
        raise RankDeficient(str(names[j]), j, float(diag[k]))
    ratio = float(diag[-1]) / lead if diag.size else 1.0
    return qt.T, r, pivots, ratio


def _triangle(rows_of: Callable[[slice], np.ndarray], n: int, width: int) -> np.ndarray:
    """The `width`-square R of ``rows_of(slice(0, n))`` by R-only QR of `_QR_BLOCK_ROWS` rows at
    a time, each block stacked under the triangle so far and zero rows padding fewer rows.  A
    block with a non-finite entry raises ValueError."""
    r0 = np.empty((0, width))
    for lo in range(0, n, _QR_BLOCK_ROWS):
        block = rows_of(slice(lo, lo + _QR_BLOCK_ROWS))
        if not np.isfinite(block).all():
            raise ValueError("design and response must be finite")
        r0 = np.linalg.qr(np.concatenate([r0, block]), mode="r")
    return np.concatenate([r0, np.zeros((width - len(r0), width))])


def _least_squares(t: np.ndarray, n: int, pivoted: tuple) -> tuple[np.ndarray, float, float]:
    """`fit_ols`'s result from the (p+1)-square triangle T of ``[X | y]`` and `pivoted`,
    `_pivoted_qr` of its leading p-square.  The RSS is the corner ``T[p, p]`` squared."""
    q1, r, pivots, ratio = pivoted
    p = len(pivots)
    coef = np.empty(p)
    coef[pivots] = np.linalg.solve(r, q1.T @ t[:p, p])
    return coef, float(t[p, p]) ** 2 / (n - p) if n > p else 0.0, ratio


def fit_ols(
    design: np.ndarray, response: np.ndarray, names: Sequence[str] | None = None
) -> tuple[np.ndarray, float, float]:
    """Least squares with a rank guard.

    Returns ``(coefficients, residual_variance, pivot_ratio)``.  The
    variance is RSS/(n - p), or 0.0 when n == p.  ``[X | y]`` is factored
    by `_triangle`, `_QR_BLOCK_ROWS` rows at a time, into one (p+1)-square
    triangle T, and T's leading p-square by `_pivoted_qr`: any pivot below
    1e-10 of the leading one raises :class:`RankDeficient` naming the
    dependent column instead of returning a garbage solution (of exactly
    dependent columns, the one pivoting reaches last; rounding orders those
    of equal norm).  The RSS is T's corner squared, with no pass over the
    residuals.  The pivot ratio, ``min|r_kk| / |r_11|``, is a cheap gauge
    of how close the design came to that guard.
    """
    x, y = np.asarray(design, dtype=float), np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"design must be a 2-d matrix, got shape {x.shape}")
    if y.ndim != 1:
        raise ValueError(f"response must be a 1-d vector, got shape {y.shape}")
    n, p = x.shape
    if y.shape[0] != n:
        raise ValueError(f"response has {y.shape[0]} rows, design has {n}")
    if n < p:
        raise ValueError(f"{n} rows cannot support {p} regressors")
    if names is None:
        names = tuple(f"column {j}" for j in range(p))
    elif len(names) != p:
        raise ValueError(f"{len(names)} names for {p} columns")
    t = _triangle(lambda rows: np.column_stack([x[rows], y[rows]]), n, p + 1)
    return _least_squares(t, n, _pivoted_qr(t[:p, :p], names))


@dataclass(frozen=True)
class LinearFit:
    """A fitted three-equation system plus its audit trail.

    ``params`` is what the closed forms consume.  ``sigma2_y`` and
    ``sigma2_m2`` appear in no component formula and are carried as fit
    diagnostics only.  ``sample_means`` holds column means on the fitted scale
    (used e.g. to resolve a fixed mediator level given as "mean"), and
    ``tables`` the per-equation coefficient tables for reporting.
    ``pivot_ratio`` and ``residual_dof`` (rows less regressors) are
    per-equation diagnostics kept out of the fit document.
    """

    params: LinearParams
    sigma2_y: float
    sigma2_m2: float
    n_used: int
    n_dropped: int
    covariate_names: tuple[str, ...]
    sample_means: dict[str, float]
    tables: dict[str, dict[str, float]]
    pivot_ratio: dict[str, float] = field(default_factory=dict)
    residual_dof: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "params": self.params.to_dict(),
            "covariates": list(self.covariate_names),
            "sigma2_y": self.sigma2_y,
            "sigma2_m2": self.sigma2_m2,
            "n_used": self.n_used,
            "n_dropped": self.n_dropped,
            "sample_means": dict(self.sample_means),
            "tables": {k: dict(v) for k, v in self.tables.items()},
        }


def _numeric_column(values: np.ndarray, role: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"column for role {role!r} is not numeric") from None


# The three equations in fitting order: (response role, `LinearParams`
# field, regressor names before the covariates).
_EQUATIONS = (
    ("outcome", "theta", ("intercept", "A", "M1", "M2", "A:M1", "A:M2", "M1:M2", "A:M1:M2")),
    ("m2", "beta", ("intercept", "A", "M1", "A:M1")),
    ("m1", "gamma", ("intercept", "A")),
)


def _split_coefficients(coefs: Sequence[Any]) -> dict[str, Any]:
    """Each `_EQUATIONS` equation's coefficients, covariates last along the
    first axis, as the `LinearParams` fields ``theta`` .. ``gamma_c``."""
    fields = {}
    for (_, name, regressors), coef in zip(_EQUATIONS, coefs):
        fields[name], fields[f"{name}_c"] = coef[: len(regressors)], coef[len(regressors):]
    return fields


def _outcome_rows(
    columns: Mapping[str, np.ndarray], cov_names: tuple[str, ...], rows: slice
) -> np.ndarray:
    """Rows `rows` of ``[X | y]``, X the outcome equation's design, whose columns hold every
    regressor of the three equations and both mediator responses."""
    a, m1, m2, y = (columns[role][rows] for role in ("exposure", "m1", "m2", "outcome"))
    covs = [columns[name][rows] for name in cov_names]
    with np.errstate(over="ignore", invalid="ignore"):  # `_triangle` refuses what is not finite
        a_m1 = a * m1
        return np.column_stack([np.ones_like(a), a, m1, m2, a_m1, a * m2, m1 * m2, a_m1 * m2, *covs, y])


def _factored(data: Dataset, log_m2: bool) -> tuple:
    """``(columns, kept, cov_names, r0, factors)``: the fit's columns by role, once rows with a
    non-finite entry are dropped (`kept` indexes `data`) and M2 is logged if `log_m2`, which act
    row by row, so a resample's columns are the resampled rows of these (with no row dropped, a
    float column is `data`'s own array, to be read only); the (p+1)-square
    triangle R0 of ``[X | y]`` by `_triangle`, its blocks built by `_outcome_rows`; and each
    `_EQUATIONS` equation's ``(role, names, response, u0, t, pivoted)``: its columns of R0,
    response (column ``response``) last, factored ``U0 T`` by QR, and T's regressor square
    `pivoted` by `_pivoted_qr`, which raises :class:`RankDeficient`."""
    if data.m2 is None:
        raise ValueError("two-mediator dataset required: the m2 role is missing")
    roles = ("exposure", "m1", "m2", "outcome")
    columns = {role: _numeric_column(getattr(data, role), role) for role in roles}
    cov_names = tuple(data.covariates.keys())
    for name in cov_names:
        if name in columns:
            raise ValueError(f"covariate name {name!r} collides with a role name")
        columns[name] = _numeric_column(data.covariates[name], name)

    mask = np.ones(data.n, dtype=bool)
    for col in columns.values():
        mask &= np.isfinite(col)
    kept = np.nonzero(mask)[0]
    if kept.size == 0:
        raise ValueError("no complete rows left after dropping missing values")
    if kept.size < data.n:
        columns = {name: col[kept] for name, col in columns.items()}
    if log_m2:
        bad = np.nonzero(columns["m2"] <= 0.0)[0]
        if bad.size:
            raise LogDomainError("m2", kept[bad])
        columns["m2"] = np.log(columns["m2"])

    fixed = _EQUATIONS[0][2]
    n, p = int(kept.size), len(fixed) + len(cov_names)
    if n < p:
        raise ValueError(f"{n} rows cannot support {p} regressors")
    r0 = _triangle(lambda rows: _outcome_rows(columns, cov_names, rows), n, p + 1)
    covs = list(range(len(fixed), p))  # a covariate may be named "A"
    factors = []
    for role, _, regressors in _EQUATIONS:
        names = regressors + cov_names
        response = p if role == "outcome" else fixed.index(role.upper())
        u0, t = np.linalg.qr(r0[:, [fixed.index(name) for name in regressors] + covs + [response]])
        factors.append((role, names, response, u0, t, _pivoted_qr(t[:-1, :-1], names)))
    return columns, kept, cov_names, r0, factors


def fit_linear_system(data: Dataset, *, log_m2: bool = False) -> LinearFit:
    """Fit the three-equation chain model by least squares.

    Regressor sets are fixed: Y on (A, M1, M2, A·M1, A·M2, M1·M2, A·M1·M2,
    C), M2 on (A, M1, A·M1, C), M1 on (A, C), each with an intercept.
    Column roles are carried by the Dataset.  With `log_m2` the second
    mediator enters on the log scale; a non-positive value raises
    :class:`LogDomainError` naming its rows.  Rows with non-finite values
    in any used column are dropped and counted.

    One triangle of ``[X | y]``, its row blocks built as they are factored, gives every equation
    (`_factored`, shared with `_LinearChunkPricer`): no n x p design is held; each RSS is a corner.
    """
    columns, kept, cov_names, _, factors = _factored(data, log_m2)
    n_used = int(kept.size)
    fits = [_least_squares(t, n_used, pivoted) for *_, t, pivoted in factors]
    (_, sigma2_y, _), (_, sigma2_m2, _), (_, sigma2_m1, _) = fits

    params = LinearParams(**_split_coefficients([coef for coef, _, _ in fits]), sigma2_m1=sigma2_m1)
    sample_means = {name: float(np.mean(col)) for name, col in columns.items()}
    tables = {role: {} for role, _, _ in _EQUATIONS}
    for (role, names, *_), (coef, _, _) in zip(factors, fits):
        for name, value in zip(names, coef.tolist()):
            while name in tables[role]:  # a covariate named like a fixed regressor, "A" say
                name = f"covariate {name}"
            tables[role][name] = value
    return LinearFit(
        params=params,
        sigma2_y=sigma2_y,
        sigma2_m2=sigma2_m2,
        n_used=n_used,
        n_dropped=data.n_dropped + (data.n - n_used),
        covariate_names=cov_names,
        sample_means=sample_means,
        tables=tables,
        pivot_ratio={role: ratio for (role, *_), (_, _, ratio) in zip(factors, fits)},
        residual_dof={role: n_used - len(names) for role, names, *_ in factors},
    )


# ---------------------------------------------------------------------------
# linear pricing

_SEQ2 = Scenario.chain(2)

def _linear_pricer(
    params: LinearParams, cvec: tuple[float, ...], level: Mapping[str, float]
) -> Callable[[tuple], tuple[float, ...]]:
    """Price compiled seq2 formulas under the Gaussian-linear chain model.

    Integrating the outcome equation over M2 then M1 leaves a polynomial in
    the mean of M1 and its second moment.  A fixed M1 has mean m1* and
    variance 0; a fixed M2 has base m2* and slope 0 on M1.  A formula's
    expectation is returned as its monomial addends, with the sigma2_m1 term
    in its own addend, so that terms which cancel within a component cancel
    exactly when the component is summed.

    ``params`` is a `LinearParams`, or any object with its coefficient
    fields in which each coefficient is an array over replicates; the
    addends are then arrays over the same replicates.
    """
    t, b, g = params.theta, params.beta, params.gamma
    t_c, b_c, g_c = (_dot(v, cvec) for v in (params.theta_c, params.beta_c, params.gamma_c))

    def addends(formula: tuple) -> tuple[float, ...]:
        e_y = level[formula[0]]
        (fixed1, s1), (fixed2, s2) = formula[1], formula[2]
        if fixed1:
            mu1, var1 = level[s1], 0.0
        else:
            mu1, var1 = g[0] + g[1] * level[s1] + g_c, params.sigma2_m1
        if fixed2:
            base2, slope2 = level[s2], 0.0
        else:
            e_m2 = level[s2]
            base2, slope2 = b[0] + b[1] * e_m2 + b_c, b[2] + b[3] * e_m2
        on_m2 = t[3] + t[5] * e_y
        on_m1 = t[2] + t[4] * e_y
        on_m1m2 = t[6] + t[7] * e_y
        return (
            t[0],
            t[1] * e_y,
            t_c,
            on_m2 * base2,
            on_m1 * mu1,
            on_m1m2 * base2 * mu1,
            on_m2 * slope2 * mu1,
            on_m1m2 * slope2 * mu1 * mu1,
            on_m1m2 * slope2 * var1,
        )

    return addends


def _linear_addends(params: Any, cvec: tuple[float, ...], level: Mapping[str, float]) -> np.ndarray:
    """`_linear_pricer`'s addends of the seq2 catalog, ``[formula, addend(, replicate)]``."""
    price = _linear_pricer(params, cvec, level)
    rows = [price(f) for f in _catalog(_SEQ2).formulas]
    if np.ndim(params.sigma2_m1):  # over replicates, the `t_c` of no covariates is still 0
        rows = [np.broadcast_arrays(*row) for row in rows]
    return np.array(rows, dtype=float)


def _linear_levels(q: Query) -> dict[str, float]:
    """The query's levels as the reals the seq2 linear pricer binds."""
    _check_requires(_catalog(_SEQ2).requires, q)
    symbols = {"a": q.a, "a*": q.a_star, "m1*": q.m1_star, "m2*": q.m2_star}
    try:
        return {symbol: float(v) for symbol, v in symbols.items()}
    except (TypeError, ValueError):
        got = ", ".join(f"{symbol}={v!r}" for symbol, v in symbols.items())
        raise ValueError(
            f"linear decomposition needs numeric exposure and fixed mediator levels, got {got}"
        ) from None


def linear_components(
    params: LinearParams,
    q: Query,
    c: CovariateProfile | Sequence[float] | None = None,
) -> DecompositionResult:
    """Decomposition under the Gaussian-linear chain model.

    The seq2 component catalog priced in closed form: every formula of the
    catalog is integrated over the model's Gaussian mediators, and each
    component is the exact sum of its formulas' signed monomials.  TE comes
    from its own two corner worlds, so ``sum_gap`` audits the telescoping
    identity.  Exposure levels may be any reals; a == a* collapses
    everything to zero.
    """
    level = _linear_levels(q)
    addends = _linear_addends(params, _covariate_vector(params.n_covariates, c), level)
    return _assemble(_catalog(_SEQ2), addends)


@dataclass(frozen=True)
class LinearEstimator:
    """The linear estimator ``linear_components(fit.params, q, profile)``
    with ``fit = fit_linear_system(data, log_m2=log_m2)``.

    Called on a dataset it is exactly that.  `infer.bootstrap` prices its resamples in
    chunks from the full data's one triangle of ``[X | y]`` (`_LinearChunkPricer`), to
    roundoff of the same values.
    """

    q: Query
    profile: CovariateProfile | Sequence[float] | None = None
    log_m2: bool = False

    def __call__(self, data: Dataset) -> DecompositionResult:
        fit = fit_linear_system(data, log_m2=self.log_m2)
        return linear_components(fit.params, self.q, self.profile)


# Added to the reciprocal condition number a replicate's Gram matrix must
# exceed; see `_LinearChunkPricer`.
_RCOND_SLACK = math.sqrt(np.finfo(float).eps)

# Replicates per gemm, and rows of K per block; see `_LinearChunkPricer`.
_GRAM_ROWS = 4
_GRAM_BLOCK = 512


class _Equation(NamedTuple):
    """An equation ``x[:, piv] = (Q t) r`` on the basis ``Q = X R_X⁻¹`` of the outcome design."""

    t: np.ndarray  # p x p_e, orthonormal columns
    resp: np.ndarray | None  # the response's column of R_X; None for the outcome
    piv: np.ndarray
    r_inv: np.ndarray
    min_rcond: float  # the line a replicate's Gram matrix must clear


class _LinearChunkPricer:
    """A `LinearEstimator`'s resamples fitted and priced a chunk at a time, for `infer.bootstrap`.

    A resample is a vector w of row multiplicities, so its least-squares fit
    is the fit weighted by w on the full data's design.  The finiteness mask
    and the log of M2 act row by row and are applied once.  The regressors
    of all three equations, and the responses M2 and M1, are columns of the
    outcome design X, so the triangle R0 of ``[X | y]`` that `_factored` gives
    `fit_linear_system` serves here too.  With R_X its leading p-square, the
    triangle of X, the basis is ``Q = X R_X⁻¹``, formed a block of rows at a
    time as K is filled and never held whole.  An equation's columns of R0,
    its response last, are ``U0 S`` by QR, and `_pivoted_qr` of S's regressor
    square is ``U1 R``, so ``X_e[:, piv] = (Q T) R`` with ``T = U0[:p, :p_e]
    U1``: the row of U0 left out is zero, as R0's regressor columns are zero
    in its last row.  With ``G = Qᵀ W Q``, W = diag(w), the equation's Gram
    matrix is ``G_e = Tᵀ G T`` and its coefficients are ``b[piv] = R⁻¹ G_e⁻¹
    Tᵀ Qᵀ W y``, where a mediator response's ``Qᵀ W y`` is G times its column
    of R_X, ``resp``.  For M1, with z its solve, y - X b is Q c for ``c = resp
    - T z``, so ``sigma2_m1 = Σ w (y - X b)² / (n_w - p)`` takes ``cᵀ G c``:
    like the residuals, and unlike ``respᵀ G resp - (Tᵀ G resp)ᵀ z``, it is
    stationary at the solve, so z's rounding enters only at second order.
    The weights average 1 and Q's columns are orthonormal to about kappa(R_X)
    eps, so G_e stays near the identity and X_e's conditioning is carried by
    R alone, as in `fit_linear_system`.

    G and ``Qᵀ W y`` are the rows of ``W K``, K = ``[Q_i Q_j, i <= j | Q_i
    y]`` formed once, p(p+1)/2 + p columns: its width grows as p squared (65
    columns, 520 B per kept row, at two covariates; 135 at seven).  W K is
    a run of gemms of one fixed shape, `_GRAM_ROWS` replicates by
    `_GRAM_BLOCK` rows of K, zero-padded and summed over the blocks in
    order: BLAS picks kernels and threads by shape, and one product over a
    chunk gave bits that moved with its height and the thread count.  A
    chunk holds a group at least (`least_chunk`), so at large n only the
    last group is padded.  Batched `solve` and `eigvalsh` factor each small
    system on its own.

    A replicate is not priced when it keeps no more rows than an equation
    has regressors ("rows") or a G_e falls below the line ("conditioning");
    ``extras["min_gram_rcond"]`` is the least rcond of a G_e checked.

    The line.  `fit_linear_system` rejects a design A when its pivoted QR has
    ``min|r_kk| <= tau |r_11|``, tau = `_PIVOT_TOL`, so ``kappa(A) >=
    1/tau``: a triangle's diagonal holds its eigenvalues, which lie between
    its extreme singular values.  A replicate's design, rows repeated by
    multiplicity, has the singular values of ``diag(sqrt w) X_e``, whose
    permuted columns are ``diag(sqrt w) Q T R``, and ``(diag(sqrt w) Q T)ᵀ
    (diag(sqrt w) Q T) = G_e``, so ``kappa(A) <= sqrt(kappa(G_e)) kappa(R)``.
    That needs only ``X_e[:, piv] = Q T R``, which ``Q = X R_X⁻¹`` gives by
    construction, not an orthonormal Q.  A replicate `fit_linear_system`
    would reject has ``rcond(G_e) <= (tau kappa(R))^2``.  The line doubles tau, for the
    rounding in the fit's own QRs, and adds `_RCOND_SLACK` = sqrt(eps), for
    the rounding in forming G_e and its eigenvalues (about p n eps of its
    largest eigenvalue, below sqrt(eps) for p n up to 6.7e7), so nothing
    kept above it in every equation is `RankDeficient` to the fit.  kappa(R)
    comes from R's singular values; the pivot ratio fixes it only to ~2^p.
    """

    reasons = ("rows", "conditioning")
    least_chunk = _GRAM_ROWS

    def __init__(self, data: Dataset, estimator: LinearEstimator) -> None:
        columns, self._kept, cov_names, r0, factors = _factored(data, estimator.log_m2)
        p = len(r0) - 1
        self._equations = []
        for role, _, col, u0, _, (u1, r, piv, _) in factors:
            sigma = np.linalg.svd(r, compute_uv=False)
            line = (2.0 * _PIVOT_TOL * sigma[0] / sigma[-1]) ** 2 + _RCOND_SLACK
            resp = None if role == "outcome" else r0[:p, col]
            self._equations.append(_Equation(u0[:p, :len(piv)] @ u1, resp, piv, np.linalg.inv(r), line))
        r_inv, n = np.linalg.inv(r0[:p, :p]), len(self._kept)
        self._pairs = np.triu_indices(p)
        self._k = np.zeros((-(-n // _GRAM_BLOCK), _GRAM_BLOCK, len(self._pairs[0]) + p))
        for lo in range(0, n, _QR_BLOCK_ROWS):  # Q = X R_X⁻¹, a block of rows at a time
            xy = _outcome_rows(columns, cov_names, slice(lo, lo + _QR_BLOCK_ROWS))
            q, rows = xy[:, :p] @ r_inv, self._k.reshape(-1, self._k.shape[2])[lo:lo + len(xy)]
            # the pairs (a, b >= a) are adjacent columns of K, from where `triu_indices` reaches a
            for a, start in enumerate(np.searchsorted(self._pairs[0], range(p))):
                np.multiply(q[:, a:], q[:, a, None], out=rows[:, start:start + p - a])
            np.multiply(q, xy[:, p:], out=rows[:, -p:])
        self._max_p = max(len(eq.piv) for eq in self._equations)
        self.catalog = _catalog(_SEQ2)
        self._level = _linear_levels(estimator.q)
        self._cvec = _covariate_vector(len(cov_names), estimator.profile)
        self.extras = {"min_gram_rcond": None}

    def _systems(self, counts: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """G, and each equation's G_e and ``(Q T)ᵀ W y``, one per row of `counts`."""
        blocks, height, width = self._k.shape
        w = np.zeros((-(-len(counts) // _GRAM_ROWS) * _GRAM_ROWS, blocks * height))
        w[:len(counts), :counts.shape[1]] = counts
        w = w.reshape(-1, _GRAM_ROWS, blocks, height).transpose(0, 2, 1, 3)
        sums = np.matmul(w, self._k).sum(axis=1).reshape(-1, width)[:len(counts)]
        (i, j), p = self._pairs, len(self._equations[0].t)
        g = np.empty((len(counts), p, p))
        g[:, i, j] = g[:, j, i] = sums[:, :len(i)]
        return g, [(eq.t.T @ g @ eq.t, eq.t.T @ (sums[:, len(i):] if eq.resp is None else g @ eq.resp)[..., None])
                for eq in self._equations]

    def __call__(self, idx: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        m, n = idx.shape
        counts = np.bincount((idx + n * np.arange(m)[:, None]).ravel(), minlength=m * n)
        counts = counts.reshape(m, n)
        if len(self._kept) < n:
            counts = counts[:, self._kept]
        rows = counts.sum(axis=1)
        reason = np.full(m, "", dtype=object)
        reason[rows <= self._max_p] = "rows"
        live = np.nonzero(rows > self._max_p)[0]
        g, systems = self._systems(counts)
        systems = [(gram[live], rhs[live]) for gram, rhs in systems]
        for eq, (gram, _) in zip(self._equations, systems):
            eig = np.linalg.eigvalsh(gram)
            rcond = eig[:, 0] / eig[:, -1]
            reason[live[~(rcond > eq.min_rcond)]] = "conditioning"
            if rcond.size:
                seen = self.extras["min_gram_rcond"]
                self.extras["min_gram_rcond"] = min(float(rcond.min()), math.inf if seen is None else seen)

        good = reason[live] == ""
        solves = [np.linalg.solve(gram[good], rhs[good]) for gram, rhs in systems]
        coefs = []
        for eq, z in zip(self._equations, solves):
            coef = np.empty((int(good.sum()), len(eq.piv)))
            coef[:, eq.piv] = (eq.r_inv @ z)[..., 0]
            coefs.append(coef)
        m1, z = self._equations[-1], solves[-1]
        c = m1.resp[:, None] - m1.t @ z  # y - X b is Q c
        rss = (np.swapaxes(c, 1, 2) @ g[live[good]] @ c)[:, 0, 0]
        sigma2_m1 = rss / (rows[live[good]] - len(m1.piv))
        return reason, [*coefs, sigma2_m1]

    def addends(self, parts: list[list[np.ndarray]]) -> np.ndarray:
        *coefs, sigma2_m1 = (np.concatenate(column) for column in zip(*parts))
        params = SimpleNamespace(**_split_coefficients([c.T for c in coefs]), sigma2_m1=sigma2_m1)
        return _linear_addends(params, self._cvec, self._level)


# ---------------------------------------------------------------------------
# plug-in tables


def plugin_seq2(model: DiscreteScm, q: Query) -> DecompositionResult:
    """Plug-in decomposition from categorical mediator tables.

    The seq2 component catalog priced on the model's tables: each component
    is a signed sum of outcome cell means against the mediator probability
    rows, and TE comes from its own two-world sum, so ``sum_gap`` measures
    the telescoping identity instead of restating it.  A non-sequential
    two-mediator model runs through the same catalog, its conditional M2
    table being constant in m1.
    """
    if model.k != 2:
        raise ValueError(
            f"two-mediator model required for the plug-in sums, got {model.scenario.id}"
        )
    return _evaluate(model, _catalog(_SEQ2), q)
