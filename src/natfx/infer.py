"""Percentile bootstrap intervals for decomposition estimators.

Works with any estimator mapping a Dataset to a DecompositionResult.
Each replicate draws its random numbers from a stream split off the
master seed by replicate index, so the output depends only on (seed,
replicates, data, estimator) and never on how the work is scheduled.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .decomp import ComponentValue, DecompositionResult
from .scm import Dataset

__all__ = [
    "BootstrapConfig",
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
    ``diagnostics`` count the kept and failed replicates and group the
    failures by exception class, each with its first message.
    """
    if cfg is None:
        cfg = BootstrapConfig()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    point = estimator(data)

    n = data.n
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)

    def one(index: int):
        rng = np.random.default_rng(streams[index])
        draw = data.take(rng.integers(0, n, size=n))
        try:
            result = estimator(draw)
        except _REPLICATE_ERRORS as err:
            return None, err
        bad = [f"{c.name}={c.value}" for c in result.components if not math.isfinite(c.value)]
        if bad:
            return None, FloatingPointError(f"non-finite component(s) {', '.join(bad)}")
        return result, None

    if workers == 1:
        outcomes = [one(i) for i in range(cfg.replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, range(cfg.replicates)))

    kept = [result for result, err in outcomes if err is None]
    errors = [err for _, err in outcomes if err is not None]
    failed_by_error: dict[str, dict] = {}
    for err in errors:
        entry = failed_by_error.setdefault(type(err).__name__, {"count": 0, "first": str(err)})
        entry["count"] += 1
    if len(errors) > cfg.max_fail * cfg.replicates:
        raise TooManyFailedReplicates(len(errors), cfg.replicates, cfg.max_fail, errors[-1])

    alpha = (1.0 - cfg.level) / 2.0
    with_ci = []
    for row in point.components:
        values = np.array([r[row.name] for r in kept])
        lo, hi = np.quantile(values, [alpha, 1.0 - alpha], method="linear")
        with_ci.append(replace(row, ci=(float(lo), float(hi))))
    diagnostics = {"kept": len(kept), "failed": len(errors), "failed_by_error": failed_by_error}
    return DecompositionResult(
        components=tuple(with_ci),
        te=point.te,
        sum_gap=point.sum_gap,
        diagnostics=diagnostics,
    )
