"""Percentile bootstrap intervals for decomposition estimators.

Works with any estimator mapping a Dataset to a DecompositionResult; such a
callable runs once per resample.  A `PluginEstimator` is priced in chunks
instead: the data is encoded once, a chunk of resamples is tabulated with
one offset `bincount`, and the compiled catalog is priced over the chunk.
Each replicate draws its random numbers from a stream split off the master
seed by replicate index, and the chunked path reproduces the per-resample
values bit for bit, so the output depends only on (seed, replicates, data,
estimator) and never on chunk size or worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .cfexpr import Scenario
from .decomp import DecompositionResult, Query, _catalog, _totals, decompose
from .scm import Dataset, _encode, _formula_rows, _price_tables, _tables, _tally, from_dataset

__all__ = [
    "BootstrapConfig",
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

# A replicate's component values (in the point estimate's row order) and its
# sum_gap, or the error that dropped it.
_Outcome = tuple[list[float], float] | Exception


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


def _non_finite(rows: Iterable[tuple[str, float]]) -> FloatingPointError | None:
    bad = [f"{name}={value}" for name, value in rows if not math.isfinite(value)]
    return FloatingPointError(f"non-finite component(s) {', '.join(bad)}") if bad else None


class _ChunkPricer:
    """A `PluginEstimator`'s resamples priced a chunk at a time.

    The data is encoded once on the full data's level grid.  A chunk's
    resamples are tabulated together (`scm._tally`), turned into tables
    together (`scm._tables`), and the catalog's formulas are priced over all
    of them in one contraction; each row is then the `math.fsum` of its
    signed terms, as `decompose` computes it.  A resample with an empty cell
    on the full grid goes to `fallback` instead: on its own, its support may
    shrink or its estimate fail, and the fallback gives that value or error.
    """

    def __init__(
        self,
        data: Dataset,
        estimator: PluginEstimator,
        fallback: Callable[[np.ndarray], _Outcome],
    ) -> None:
        self._scenario = estimator.scenario
        self._catalog = _catalog(estimator.scenario)
        self._names = [spec.name for spec in self._catalog.specs]
        self._fallback = fallback
        levels, self._cell, self._y = _encode(data, estimator.scenario)
        self._shape = tuple(len(lv) for lv in levels)
        self._rows = _formula_rows(self._catalog.formulas, estimator.q.to_binding(), levels)

    def __call__(self, draws: Sequence[np.ndarray]) -> list[_Outcome]:
        idx = np.stack(draws)
        counts, ysum = _tally(self._cell[idx], self._y[idx], self._shape)
        full = counts.reshape(len(idx), -1).all(axis=1)
        tables = _tables(self._scenario, counts[full], ysum[full])
        priced = iter(_price_tables(*tables, self._rows)[..., None].tolist())
        outcomes = []
        for draw, ok in zip(draws, full.tolist()):
            if not ok:
                outcomes.append(self._fallback(draw))
                continue
            try:
                values, _, sum_gap = _totals(self._catalog, next(priced))
            except _REPLICATE_ERRORS as err:  # fsum of inf - inf, as in `decompose`
                outcomes.append(err)
                continue
            outcomes.append(_non_finite(zip(self._names, values)) or (values, sum_gap))
        return outcomes


def bootstrap(
    data: Dataset,
    estimator: Estimator,
    cfg: BootstrapConfig | None = None,
    *,
    workers: int = 1,
) -> DecompositionResult:
    """Attach percentile confidence intervals to `estimator`'s point estimate.

    Rows are the resampling unit.  A failure on the full data propagates;
    failures on resamples are dropped until they exceed `cfg.max_fail` as a
    fraction of `cfg.replicates`.  A resample whose estimate has a
    non-finite component fails too, as a `FloatingPointError`.  The result's
    ``diagnostics`` count the kept and failed replicates, group the failures
    by exception class, each with its first message, and give the worst
    ``sum_gap`` over the kept replicates as ``max_sum_gap``.

    A `PluginEstimator` is priced a chunk of resamples at a time; any other
    estimator runs once per resample, on `workers` threads.
    """
    if cfg is None:
        cfg = BootstrapConfig()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    point = estimator(data)
    names = [row.name for row in point.components]

    n = data.n
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)

    def replicate(indices: np.ndarray) -> _Outcome:
        try:
            result = estimator(data.take(indices))
        except _REPLICATE_ERRORS as err:
            return err
        bad = _non_finite((c.name, c.value) for c in result.components)
        return bad or ([result[name] for name in names], result.sum_gap)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    if isinstance(estimator, PluginEstimator):
        price = _ChunkPricer(data, estimator, replicate)
    elif pool is None:
        price = lambda draws: [replicate(d) for d in draws]  # noqa: E731
    else:
        price = lambda draws: list(pool.map(replicate, draws))  # noqa: E731
    size = max(1, _CHUNK_ENTRIES // n)
    outcomes: list[_Outcome] = []
    try:
        for start in range(0, cfg.replicates, size):
            chunk = range(start, min(start + size, cfg.replicates))
            outcomes += price([np.random.default_rng(streams[i]).integers(0, n, size=n)
                               for i in chunk])
    finally:
        if pool is not None:
            pool.shutdown()

    kept = [o for o in outcomes if not isinstance(o, Exception)]
    errors = [o for o in outcomes if isinstance(o, Exception)]
    failed_by_error: dict[str, dict] = {}
    for err in errors:
        entry = failed_by_error.setdefault(type(err).__name__, {"count": 0, "first": str(err)})
        entry["count"] += 1
    if len(errors) > cfg.max_fail * cfg.replicates:
        raise TooManyFailedReplicates(len(errors), cfg.replicates, cfg.max_fail, errors[-1])

    alpha = (1.0 - cfg.level) / 2.0
    values = np.array([v for v, _ in kept])
    with_ci = []
    for j, row in enumerate(point.components):
        lo, hi = np.quantile(values[:, j], [alpha, 1.0 - alpha], method="linear")
        with_ci.append(replace(row, ci=(float(lo), float(hi))))
    diagnostics = {
        "kept": len(kept),
        "failed": len(errors),
        "failed_by_error": failed_by_error,
        "max_sum_gap": float(max(gap for _, gap in kept)),
    }
    return DecompositionResult(
        components=tuple(with_ci),
        te=point.te,
        sum_gap=point.sum_gap,
        diagnostics=diagnostics,
    )
