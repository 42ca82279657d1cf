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
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .cfexpr import Scenario, ScenarioKind
from .decomp import (
    DecompositionResult,
    Query,
    _assemble,
    _catalog,
    _check_requires,
    _evaluate,
    _worlds,
)
from .scm import Dataset, DiscreteScm, _compile_formula, _rows_text

__all__ = [
    "Assumption",
    "AssumptionLedger",
    "CovariateProfile",
    "LinearFit",
    "LinearParams",
    "LogDomainError",
    "RankDeficient",
    "expectation_w",
    "fit_linear_system",
    "fit_ols",
    "linear_components",
    "plugin_seq2",
]

_PIVOT_TOL = 1e-10
# rows of [X | y] factored per step of fit_ols: memory stays at one block
# beside the running triangle, whatever the sample size
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
            raise ValueError(
                "covariate coefficient vectors must share one length, got "
                f"{sorted(lengths)}"
            )
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
        return {
            "theta": list(self.theta),
            "theta_c": list(self.theta_c),
            "beta": list(self.beta),
            "beta_c": list(self.beta_c),
            "gamma": list(self.gamma),
            "gamma_c": list(self.gamma_c),
            "sigma2_m1": self.sigma2_m1,
        }

    @staticmethod
    def from_dict(doc: Any) -> "LinearParams":
        if not isinstance(doc, Mapping):
            raise ValueError(f"parameter document must be a JSON object, got {type(doc).__name__}")
        try:
            return LinearParams(
                theta=doc["theta"],
                beta=doc["beta"],
                gamma=doc["gamma"],
                theta_c=doc.get("theta_c", ()),
                beta_c=doc.get("beta_c", ()),
                gamma_c=doc.get("gamma_c", ()),
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
                raise ValueError(
                    f"{len(names)} covariate names for {len(self.values)} values"
                )
            object.__setattr__(self, "names", names)


def _covariate_vector(
    k: int, c: CovariateProfile | Sequence[float] | None
) -> tuple[float, ...]:
    """The profile's values, checked against a model with `k` covariates."""
    if c is None:
        return (0.0,) * k
    values = c.values if isinstance(c, CovariateProfile) else tuple(float(v) for v in c)
    if len(values) != k:
        raise ValueError(
            f"covariate profile has {len(values)} values; the model has {k} "
            "covariate coefficients"
        )
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


def fit_ols(
    design: np.ndarray,
    response: np.ndarray,
    names: Sequence[str] | None = None,
) -> tuple[np.ndarray, float, float]:
    """Least squares with a rank guard.

    Returns ``(coefficients, residual_variance, pivot_ratio)``.  The
    variance is RSS/(n - p), or 0.0 when n == p.  ``[X | y]`` is factored
    by unpivoted R-only QR, never forming Q, one block of `_QR_BLOCK_ROWS`
    rows at a time stacked under the triangle of the rows before it, and
    the final R0 pivoted by `_pivoted_qr`: any pivot below 1e-10 of the
    leading one raises :class:`RankDeficient` naming the dependent column
    instead of returning a garbage solution (of exactly dependent columns,
    the one pivoting reaches last; rounding orders those of equal norm).
    The pivot ratio is the smallest pivot over the leading one,
    ``min|r_kk| / |r_11|``, a cheap gauge of how close the design came to
    that guard.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
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
    r0 = np.empty((0, p + 1))
    for lo in range(0, n, _QR_BLOCK_ROWS):
        block = np.column_stack([x[lo:lo + _QR_BLOCK_ROWS], y[lo:lo + _QR_BLOCK_ROWS]])
        if not np.isfinite(block).all():
            raise ValueError("design and response must be finite")
        r0 = np.linalg.qr(np.concatenate([r0, block]) if lo else block, mode="r")
    q1, r, pivots, ratio = _pivoted_qr(r0[:p, :p], names)
    coef = np.empty(p)
    coef[pivots] = np.linalg.solve(r, q1.T @ r0[:p, p])
    resid = y - x @ coef
    sigma2 = float(resid @ resid) / (n - p) if n > p else 0.0
    return coef, sigma2, ratio


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


def _prepared_columns(
    data: Dataset, log_m2: bool
) -> tuple[dict[str, np.ndarray], np.ndarray, tuple[str, ...]]:
    """The fit's columns by role: rows with a non-finite value in any used
    column dropped, then M2 taken on the log scale if `log_m2` is set.

    Returns the columns, the kept row indices into `data`, and the
    covariate names.  The mask and the log act row by row, so the columns
    of a resample are the resampled rows of these.
    """
    if data.m2 is None:
        raise ValueError("two-mediator dataset required: the m2 role is missing")
    columns: dict[str, np.ndarray] = {
        "exposure": _numeric_column(data.exposure, "exposure"),
        "m1": _numeric_column(data.m1, "m1"),
        "m2": _numeric_column(data.m2, "m2"),
        "outcome": _numeric_column(data.outcome, "outcome"),
    }
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
    columns = {name: col[kept] for name, col in columns.items()}

    if log_m2:
        bad = np.nonzero(columns["m2"] <= 0.0)[0]
        if bad.size:
            raise LogDomainError("m2", kept[bad])
        columns["m2"] = np.log(columns["m2"])
    return columns, kept, cov_names


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


def _designs(
    columns: Mapping[str, np.ndarray], cov_names: tuple[str, ...]
) -> list[tuple[np.ndarray, np.ndarray, tuple[str, ...]]]:
    """(design, response, column names) of each equation in `_EQUATIONS`."""
    a = columns["exposure"]
    m1 = columns["m1"]
    m2 = columns["m2"]
    covs = [columns[name] for name in cov_names]
    ones = np.ones_like(a)
    # one design at a time, so only one equation's product columns are alive
    designs = (
        np.column_stack([ones, a, m1, m2, a * m1, a * m2, m1 * m2, a * m1 * m2, *covs]),
        np.column_stack([ones, a, m1, a * m1, *covs]),
        np.column_stack([ones, a, *covs]),
    )
    return [
        (x, columns[role], names + cov_names)
        for x, (role, _, names) in zip(designs, _EQUATIONS)
    ]


def fit_linear_system(data: Dataset, *, log_m2: bool = False) -> LinearFit:
    """Fit the three-equation chain model by least squares.

    Regressor sets are fixed: Y on (A, M1, M2, A·M1, A·M2, M1·M2, A·M1·M2,
    C), M2 on (A, M1, A·M1, C), M1 on (A, C), each with an intercept.
    Column roles are carried by the Dataset.  With `log_m2` the second
    mediator enters on the log scale; a non-positive value raises
    :class:`LogDomainError` naming its rows.  Rows with non-finite values
    in any used column are dropped and counted.
    """
    columns, kept, cov_names = _prepared_columns(data, log_m2)
    n_used = int(kept.size)
    designs = _designs(columns, cov_names)
    fits = [fit_ols(x, y, names) for x, y, names in designs]
    (_, sigma2_y, _), (_, sigma2_m2, _), (_, sigma2_m1, _) = fits

    params = LinearParams(**_split_coefficients([coef for coef, _, _ in fits]), sigma2_m1=sigma2_m1)
    sample_means = {name: float(np.mean(col)) for name, col in columns.items()}
    tables = {
        role: dict(zip(names, (float(v) for v in coef)))
        for (role, _, _), (_, _, names), (coef, _, _) in zip(_EQUATIONS, designs, fits)
    }
    return LinearFit(
        params=params,
        sigma2_y=sigma2_y,
        sigma2_m2=sigma2_m2,
        n_used=n_used,
        n_dropped=data.n_dropped + (data.n - n_used),
        covariate_names=cov_names,
        sample_means=sample_means,
        tables=tables,
        pivot_ratio={role: ratio for (role, _, _), (_, _, ratio) in zip(_EQUATIONS, fits)},
        residual_dof={role: n_used - x.shape[1] for (role, _, _), (x, _, _) in zip(_EQUATIONS, designs)},
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


def expectation_w(
    params: LinearParams,
    which: str | int,
    a: float,
    a_star: float,
    c: CovariateProfile | Sequence[float] | None = None,
) -> float:
    """Closed-form expectation of one of the eight one-path worlds.

    ``which`` is "W1".."W8" (or the bare index 1..8).  W1 is the all-treated
    world; W8 is W1 with a replaced by a* throughout; the rest mix levels
    across the outcome, M2, and M1 exposure slots.
    """
    worlds = {f"W{i}": world for i, world in enumerate(_worlds(_SEQ2), 1)}
    key = f"W{which}" if isinstance(which, int) else str(which).upper()
    if key not in worlds:
        raise ValueError(f"which must be one of W1..W8, got {which!r}")
    level = {"a": float(a), "a*": float(a_star)}
    price = _linear_pricer(params, _covariate_vector(params.n_covariates, c), level)
    return math.fsum(price(_compile_formula(worlds[key], _SEQ2)))


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
    catalog = _catalog(_SEQ2)
    level = _linear_levels(q)
    price = _linear_pricer(params, _covariate_vector(params.n_covariates, c), level)
    return _assemble(catalog, [price(formula) for formula in catalog.formulas])


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
