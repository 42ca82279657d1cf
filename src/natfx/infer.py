"""Percentile bootstrap intervals for decomposition estimators.

Works with any estimator mapping a Dataset to a DecompositionResult; such a
callable runs once per resample.  The two named estimators are priced in
chunks instead, by a pricer that only prepares and prices: for a
`PluginEstimator` the data is encoded once, a chunk of resamples is
tabulated with one offset `bincount`, and the compiled catalog is priced
over the chunk; for a `LinearEstimator` each equation's design is factored
once, a chunk of resamples is fitted by small weighted Gram systems on that
factor, and the fits of all chunks are priced together.  A pricer names the
draws it cannot price, and `bootstrap` alone sends those to the estimator,
sums the addends of all priced draws into rows at once (`decomp._totals`,
exact sums equal to `math.fsum`) and counts the routes.  Each replicate
draws its random numbers from a stream split off the master seed by
replicate index, and each chunked replicate is computed on its own, so the
output depends only on (seed, replicates, data, estimator) and never on
chunk size or worker count.  The plug-in chunks reproduce the per-resample
values bit for bit, the linear chunks to roundoff.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cfexpr import Scenario
from .decomp import DecompositionResult, Query, _catalog, _totals, decompose
from .estimate import (
    _PIVOT_TOL,
    _SEQ2,
    CovariateProfile,
    _covariate_vector,
    _designs,
    _linear_levels,
    _linear_pricer,
    _pivoted_qr,
    _prepared_columns,
    _split_coefficients,
    fit_linear_system,
    linear_components,
)
from .scm import Dataset, _encode, _formula_rows, _price_tables, _tables, _tally, from_dataset

__all__ = [
    "BootstrapConfig",
    "LinearEstimator",
    "PluginEstimator",
    "TooManyFailedReplicates",
    "bootstrap",
]


class TooManyFailedReplicates(RuntimeError):
    """More resamples failed than the configured tolerance allows."""

    def __init__(self, failed: int, replicates: int, max_fail: float, last_error: Exception):
        self.failed = failed
        self.replicates = replicates
        self.max_fail = max_fail
        self.last_error = last_error
        super().__init__(
            f"{failed} of {replicates} bootstrap replicates failed, above the "
            f"tolerated fraction {max_fail:g}; last failure: {last_error}"
        )


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    level: float = 0.95
    seed: int = 0
    max_fail: float = 0.01

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie strictly between 0 and 1, got {self.level}")
        if not 0.0 <= self.max_fail < 1.0:
            raise ValueError(f"max_fail must lie in [0, 1), got {self.max_fail}")


Estimator = Callable[[Dataset], DecompositionResult]

# Failure modes a resample can legitimately trigger: an exposure or mediator
# level missing from the draw, a design turned singular, and the like.  All
# estimator errors in this package are ValueError subclasses.
_REPLICATE_ERRORS = (ValueError, np.linalg.LinAlgError, ZeroDivisionError)

# Resample indices drawn and held at once: a chunk is as many replicates as
# fit, and at least one.
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class PluginEstimator:
    """The plug-in estimator ``decompose(from_dataset(data, scenario), q)``.

    Called on a dataset it is exactly that.  `bootstrap` prices its
    resamples in chunks from one encoding of the data, with the same values.
    """

    scenario: Scenario
    q: Query

    def __call__(self, data: Dataset) -> DecompositionResult:
        return decompose(from_dataset(data, self.scenario), self.q)


@dataclass(frozen=True)
class LinearEstimator:
    """The linear estimator ``linear_components(fit.params, q, profile)``
    with ``fit = fit_linear_system(data, log_m2=log_m2)``.

    Called on a dataset it is exactly that.  `bootstrap` prices its
    resamples in chunks from one factorization of the full data's designs,
    to roundoff of the same values.
    """

    q: Query
    profile: CovariateProfile | Sequence[float] | None = None
    log_m2: bool = False

    def __call__(self, data: Dataset) -> DecompositionResult:
        fit = fit_linear_system(data, log_m2=self.log_m2)
        return linear_components(fit.params, self.q, self.profile)


def _non_finite(rows: Iterable[tuple[str, float]]) -> FloatingPointError | None:
    bad = [f"{name}={value}" for name, value in rows if not math.isfinite(value)]
    return FloatingPointError(f"non-finite component(s) {', '.join(bad)}") if bad else None


# A chunk pricer is built from (data, estimator) and called on a chunk's
# stacked draws, an m x n index matrix.  It returns one reason per draw, ""
# for a draw it priced and otherwise one of its `reasons`, together with a
# part for its `addends`.  Handed the parts of every chunk, `addends` returns
# one float array ``[formula, addend, replicate]`` over all priced draws, in
# draw order, for `bootstrap` to sum into the rows of its `catalog` at once.
# `extras` holds the pricer's own route diagnostics.


class _PluginChunkPricer:
    """A `PluginEstimator`'s resamples priced a chunk at a time.

    The data is encoded once on the full data's level grid.  A chunk's
    resamples are tabulated together (`scm._tally`), turned into tables
    together (`scm._tables`), and the catalog's formulas are priced over all
    of them in one contraction.  A resample with an empty cell on the full
    grid is not priced ("empty_cell"): on its own, its support may shrink or
    its estimate fail.
    """

    reasons = ("empty_cell",)

    def __init__(self, data: Dataset, estimator: PluginEstimator) -> None:
        self._scenario = estimator.scenario
        self.catalog = _catalog(estimator.scenario)
        levels, self._cell, self._y = _encode(data, estimator.scenario)
        self._shape = tuple(len(lv) for lv in levels)
        self._rows = _formula_rows(self.catalog.formulas, estimator.q.to_binding(), levels)
        self.extras: dict = {}

    def __call__(self, idx: np.ndarray) -> tuple[list[str], np.ndarray]:
        counts, ysum = _tally(self._cell[idx], self._y[idx], self._shape)
        full = counts.reshape(len(idx), -1).all(axis=1)
        tables = _tables(self._scenario, counts[full], ysum[full])
        reasons = ["" if ok else "empty_cell" for ok in full.tolist()]
        return reasons, _price_tables(*tables, self._rows)

    def addends(self, parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts).T[:, None]


# Added to the reciprocal condition number a replicate's Gram matrix must
# exceed; see `_LinearChunkPricer`.
_RCOND_SLACK = math.sqrt(np.finfo(float).eps)


class _Equation(NamedTuple):
    """One equation of the linear system, factored once on the full data as
    ``x[:, piv] = q @ r``."""

    qt: np.ndarray  # q transposed, one row per column of q
    y: np.ndarray  # response, kept rows only
    piv: np.ndarray
    r_inv: np.ndarray
    min_rcond: float  # the line a replicate's Gram matrix must clear


class _LinearChunkPricer:
    """A `LinearEstimator`'s resamples fitted and priced a chunk at a time.

    A resample is a vector w of row multiplicities, so its least-squares fit
    is the fit weighted by w on the full data's design.  The finiteness mask
    and the log of M2 act row by row and are applied once.  Each equation's
    design is factored once, ``X[:, piv] = Q R`` with ``Q = Q0 Q1`` from an
    unpivoted QR ``X = Q0 R0`` and `_pivoted_qr` of R0, and R inverted once.
    With ``G = Qᵀ diag(w) Q`` a replicate's coefficients are
    ``b[piv] = R⁻¹ G⁻¹ Qᵀ W y``, and ``sigma2_m1 = Σ w (y - X b)² /
    (n_w - p)`` comes from the weighted residuals themselves.  The weights
    average 1, so G stays near the identity and the conditioning of X is
    carried by R alone, as in `fit_ols`.  G and ``Qᵀ W y`` are formed one
    replicate at a time from ``Qᵀ diag(w)``, a p x n product, which holds
    far less memory than Q's n x p(p+1)/2 column-pair products would and
    costs about as much; the small systems are then solved for the whole
    chunk with batched `solve` and `eigvalsh`, which factor each matrix on
    its own.  So a replicate's value does not depend on the chunk it is
    fitted in.  The coefficients of every chunk are priced together, by one
    `_linear_pricer` over all fitted replicates.

    A replicate is not priced when it keeps no more rows than an equation
    has regressors ("rows"), or when one of its G falls below the line
    derived below ("conditioning").  ``extras["min_gram_rcond"]`` records
    the smallest reciprocal condition number of G over the replicates that
    reached the check.

    The line.  `fit_ols` rejects a design A when its pivoted QR has
    ``min|r_kk| <= tau |r_11|``, tau = `_PIVOT_TOL`.  The diagonal of a
    triangular matrix holds its eigenvalues, which lie between its smallest
    and largest singular values, so a rejection means
    ``sigma_min(A) <= tau sigma_max(A)``, i.e. ``kappa(A) >= 1/tau``.  A
    replicate's design, rows repeated by multiplicity, has the singular
    values of ``diag(sqrt w) X``, whose permuted columns are
    ``diag(sqrt w) Q R``; hence ``kappa(A) <= kappa(diag(sqrt w) Q)
    kappa(R) = sqrt(kappa(G)) kappa(R)``.  So a replicate `fit_ols` would
    reject has ``rcond(G) = 1/kappa(G) <= (tau kappa(R))^2``.  The line
    doubles tau, which covers the rounding in `fit_ols`'s own QR, and adds
    `_RCOND_SLACK` = sqrt(eps), which covers the rounding in forming G and
    its eigenvalues (at most about p n eps of its largest eigenvalue, below
    sqrt(eps) for p n up to 6.7e7).  A replicate is kept only above the line
    in every equation, so none that `fit_ols` would reject as
    `RankDeficient` is kept.  The full data's pivot ratio rho =
    ``min|r_kk| / |r_11|`` bounds kappa(R) from below by 1/rho and, with
    column pivoting, from above by ``sqrt(p (4^p + 6p - 1)) / (3 rho)``;
    that bound would serve too but grows as 2^p, so kappa(R) is taken from
    R's singular values instead.
    """

    reasons = ("rows", "conditioning")

    def __init__(self, data: Dataset, estimator: LinearEstimator) -> None:
        columns, self._kept, cov_names = _prepared_columns(data, estimator.log_m2)
        self._equations = []
        for x, y, names in _designs(columns, cov_names):
            q0, r0 = np.linalg.qr(x)
            q1, r, piv, _ = _pivoted_qr(r0, names)
            sigma = np.linalg.svd(r, compute_uv=False)
            self._equations.append(_Equation(
                q1.T @ q0.T, y, piv, np.linalg.inv(r),
                (2.0 * _PIVOT_TOL * sigma[0] / sigma[-1]) ** 2 + _RCOND_SLACK,
            ))
        self._m1_design = x  # the M1 equation comes last; its residuals give sigma2_m1
        self._max_p = max(len(eq.piv) for eq in self._equations)
        self.catalog = _catalog(_SEQ2)
        self._level = _linear_levels(estimator.q)
        self._cvec = _covariate_vector(len(cov_names), estimator.profile)
        self.extras = {"min_gram_rcond": None}

    def __call__(self, idx: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        m, n = idx.shape
        counts = np.bincount((idx + n * np.arange(m)[:, None]).ravel(), minlength=m * n)
        counts = counts.reshape(m, n)[:, self._kept]
        rows = counts.sum(axis=1)
        reason = np.full(m, "", dtype=object)
        reason[rows <= self._max_p] = "rows"
        live = np.nonzero(rows > self._max_p)[0]

        grams = [np.empty((len(live), len(eq.piv), len(eq.piv))) for eq in self._equations]
        rhs = [np.empty((len(live), len(eq.piv), 1)) for eq in self._equations]
        for j, r in enumerate(live):
            w = counts[r].astype(float)
            for eq, gram, qwy in zip(self._equations, grams, rhs):
                qw = eq.qt * w
                gram[j] = qw @ eq.qt.T
                qwy[j, :, 0] = qw @ eq.y
        for eq, gram in zip(self._equations, grams):
            eig = np.linalg.eigvalsh(gram)
            rcond = eig[:, 0] / eig[:, -1]
            reason[live[~(rcond > eq.min_rcond)]] = "conditioning"
            if rcond.size:
                seen = self.extras["min_gram_rcond"]
                self.extras["min_gram_rcond"] = min(float(rcond.min()), math.inf if seen is None else seen)

        good = reason[live] == ""
        coefs = []
        for eq, gram, qwy in zip(self._equations, grams, rhs):
            coef = np.empty((int(good.sum()), len(eq.piv)))
            coef[:, eq.piv] = (eq.r_inv @ np.linalg.solve(gram[good], qwy[good]))[..., 0]
            coefs.append(coef)
        m1 = self._equations[-1]
        rss = [counts[r].astype(float) @ np.square(m1.y - self._m1_design @ b)
               for r, b in zip(live[good], coefs[-1])]
        sigma2_m1 = np.array(rss) / (rows[live[good]] - len(m1.piv))
        return reason, [*coefs, sigma2_m1]

    def addends(self, parts: list[list[np.ndarray]]) -> np.ndarray:
        *coefs, sigma2_m1 = (np.concatenate(column) for column in zip(*parts))
        params = SimpleNamespace(**_split_coefficients([c.T for c in coefs]), sigma2_m1=sigma2_m1)
        price = _linear_pricer(params, self._cvec, self._level)
        return np.stack([np.stack(np.broadcast_arrays(*price(f))) for f in self.catalog.formulas])


# The estimators `bootstrap` prices in chunks, each with its pricer.
_CHUNK_PRICERS = {PluginEstimator: _PluginChunkPricer, LinearEstimator: _LinearChunkPricer}


def bootstrap(
    data: Dataset,
    estimator: Estimator,
    cfg: BootstrapConfig | None = None,
    *,
    workers: int = 1,
    point: DecompositionResult | None = None,
) -> DecompositionResult:
    """Attach percentile confidence intervals to `estimator`'s point estimate.

    Rows are the resampling unit.  A failure on the full data propagates,
    and a non-finite component of the point estimate raises `ValueError`;
    failures on resamples are dropped until they exceed `cfg.max_fail` as a
    fraction of `cfg.replicates`.  A resample whose estimate has a
    non-finite component fails too, as a `FloatingPointError`.  The result's
    ``diagnostics`` count the kept and failed replicates, group the failures
    by exception class, each with its first message, and give the worst
    ``sum_gap`` over the kept replicates as ``max_sum_gap``.

    A `PluginEstimator` or `LinearEstimator` is priced a chunk of resamples
    at a time; a resample its pricer turns down runs through the estimator
    itself, in draw order, and ``diagnostics["routes"]`` counts the
    replicates priced in the batch, those that fell back, by reason, and
    the priced sums left to `math.fsum` (``fsum_rows``).  Any other
    estimator runs once per resample, on `workers` threads.  `point` is
    ``estimator(data)`` when the caller already holds it; it is then not
    computed again.
    """
    if cfg is None:
        cfg = BootstrapConfig()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if point is None:
        point = estimator(data)
    bad = _non_finite((c.name, c.value) for c in point.components)
    if bad is not None:
        raise ValueError(f"point estimate: {bad}")
    names = [row.name for row in point.components]

    n = data.n
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    pricer_type = _CHUNK_PRICERS.get(type(estimator))
    pricer = None if pricer_type is None else pricer_type(data, estimator)
    values, gaps = np.empty((cfg.replicates, len(names))), np.empty(cfg.replicates)
    failures: dict[int, Exception] = {}

    def replicate(i: int, indices: np.ndarray) -> None:
        try:
            result = estimator(data.take(indices))
        except _REPLICATE_ERRORS as err:
            failures[i] = err
        else:
            values[i], gaps[i] = [result[name] for name in names], result.sum_gap

    tally = dict.fromkeys(("", *(pricer.reasons if pricer else ())), 0)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 and pricer is None else None
    size = max(1, _CHUNK_ENTRIES // n)
    batched: list[int] = []
    parts = []
    try:
        for start in range(0, cfg.replicates, size):
            chunk = range(start, min(start + size, cfg.replicates))
            idx = np.stack([np.random.default_rng(streams[i]).integers(0, n, size=n)
                            for i in chunk])
            if pricer is None:
                list((map if pool is None else pool.map)(replicate, chunk, idx))
                continue
            reasons, part = pricer(idx)
            parts.append(part)
            for i, draw, why in zip(chunk, idx, reasons):
                tally[why] += 1
                if why:
                    replicate(i, draw)
                else:
                    batched.append(i)
    finally:
        if pool is not None:
            pool.shutdown()
    if pricer is not None:
        priced, _, gaps[batched], failed, fsum_rows = _totals(pricer.catalog, pricer.addends(parts))
        values[batched] = priced.T
        failures.update((batched[j], err) for j, err in failed.items())
    for i in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
        failures.setdefault(i, _non_finite(zip(names, values[i].tolist())))

    errors = [failures[i] for i in sorted(failures)]
    failed_by_error: dict[str, dict] = {}
    for err in errors:
        entry = failed_by_error.setdefault(type(err).__name__, {"count": 0, "first": str(err)})
        entry["count"] += 1
    if len(errors) > cfg.max_fail * cfg.replicates:
        raise TooManyFailedReplicates(len(errors), cfg.replicates, cfg.max_fail, errors[-1])

    kept = np.ones(cfg.replicates, dtype=bool)
    kept[list(failures)] = False
    alpha = (1.0 - cfg.level) / 2.0
    ends = np.quantile(values[kept], [alpha, 1.0 - alpha], axis=0, method="linear")
    with_ci = [replace(row, ci=(float(lo), float(hi)))
               for row, lo, hi in zip(point.components, *ends)]
    diagnostics = {
        "kept": int(kept.sum()),
        "failed": len(errors),
        "failed_by_error": failed_by_error,
        "max_sum_gap": float(max(gaps[kept].tolist())),
    }
    if pricer is not None:
        diagnostics["routes"] = {"batched": tally.pop(""), "fallback": tally,
                                 "fsum_rows": fsum_rows, **pricer.extras}
    return DecompositionResult(
        components=tuple(with_ci),
        te=point.te,
        sum_gap=point.sum_gap,
        diagnostics=diagnostics,
    )
