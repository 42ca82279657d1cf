"""Percentile bootstrap intervals for decomposition estimators.

Works with any estimator mapping a Dataset to a DecompositionResult; such a
callable runs once per resample.  The two named estimators are priced in chunks
instead, by a pricer that lives beside the engine it batches and only prepares
and prices (`decomp._PluginChunkPricer`, `estimate._LinearChunkPricer`); every
chunk is drawn here, into arrays allocated once per call.  A pricer names the
draws it cannot price, and `bootstrap` alone sends those to the estimator, sums
the addends of all priced draws into rows at once (`decomp._totals`, exact sums
equal to `math.fsum`) and counts the routes.  Replicate i draws its resample
from ``default_rng(SeedSequence(seed).spawn(replicates)[i])``, the stream it
always drew from, but its PCG64 seed words are hashed for all replicates in one
numpy pass (`_spawned_states`), and numpy makes only its raw words, turned into
indices a chunk at a time (`_draws`).  Each chunked replicate is computed on its
own, so the output depends only on (seed, replicates, data, estimator) and never
on chunk size or worker count.  The plug-in chunks reproduce the per-resample
values bit for bit, the linear chunks to roundoff.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .decomp import DecompositionResult, PluginEstimator, _PluginChunkPricer, _totals
from .estimate import LinearEstimator, _LinearChunkPricer
from .scm import Dataset

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
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
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

# Resample indices drawn and held at once: a chunk is as many whole
# `least_chunk`s of its pricer as fit (whole gemm groups), and at least one.
_CHUNK_ENTRIES = 1 << 16


def _non_finite(rows: Iterable[tuple[str, float]]) -> FloatingPointError | None:
    bad = [f"{name}={value}" for name, value in rows if not math.isfinite(value)]
    return FloatingPointError(f"non-finite component(s) {', '.join(bad)}") if bad else None


# A chunk pricer is built from (data, estimator) and called on a chunk's
# draws, an m x n index matrix that `bootstrap` overwrites with the next
# chunk: a pricer neither keeps nor writes it.  It returns one reason per
# draw, "" for a draw it priced and otherwise one of its `reasons`, together
# with a part for its `addends`.  Handed the parts of every chunk, `addends`
# returns one float array ``[formula, addend, replicate]`` over all priced
# draws, in draw order, for `bootstrap` to sum into the rows of its
# `catalog` at once.  `extras` holds the pricer's own route diagnostics, and
# only a last chunk holds fewer than `least_chunk` draws.


_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _spawned_states(seed: int, count: int) -> np.ndarray:
    """Row i is ``SeedSequence(seed).spawn(count)[i].generate_state(4, np.uint64)``:
    numpy's hash (O'Neill's seed_seq_fe, a pool of four words) on uint32 arrays,
    which wrap as its C does.  Only the last entropy word, i, differs by child."""
    const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value, const = value ^ const, const * mult & 0xFFFFFFFF
        return (value := value * const) ^ value >> 16

    # the seed's words, zero-padded to the pool's four as a spawned child's are
    shifts = range(0, max(seed.bit_length(), 128), 32)
    entropy = [np.array([seed >> s & 0xFFFFFFFF], np.uint32) for s in shifts]
    pool = [hashmix(w) for w in entropy[:4]]
    # numpy's mix: each pool word into every other, then each later word into all
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = (r := _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])) ^ r >> 16
    for word, dst in itertools.product([*entropy[4:], np.arange(count, dtype=np.uint32)], range(4)):
        pool[dst] = (r := _MIX_L * pool[dst] - _MIX_R * hashmix(word)) ^ r >> 16
    const, mult = _INIT_B, _MULT_B  # generate_state: the same hash, twice round the pool
    half = [hashmix(p).astype(np.uint64) for p in pool * 2]
    return np.stack([lo | hi << 32 for lo, hi in zip(half[::2], half[1::2])], axis=1)


class _GivenState(NamedTuple):
    """Hands PCG64 the seed `words` it asks for; `bootstrap` registers it as an ISeedSequence."""
    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _draws(seed: int, replicates: int, n: int, size: int) -> Iterator[tuple[range, np.ndarray]]:
    """Each chunk of `size` replicates and its resamples, drawn into arrays allocated once.

    numpy's `integers(0, n)` maps a 32-bit half h of PCG64's words, low half first, to ``(h n)
    >> 32``, passing over h when ``(h n) mod 2^32 < 2^32 mod n`` (Lemire 2019).  numpy makes
    only the raw words here; that step is replayed on a chunk at once, and numpy redraws a row
    that passes over one of its first n halves, or all rows where a row expects one or more.
    """
    np.random.bit_generator.ISeedSequence.register(_GivenState)  # loads numpy.random: 11-27 ms
    states = _spawned_states(seed, replicates)
    reject, rows = (1 << 32) % n, np.empty((min(size, replicates), n), dtype=np.int64)
    words = np.empty((len(rows), -(-n // 2)), "<u8") if n * reject < 1 << 32 else None
    for start in range(0, replicates, size):
        chunk = range(start, min(start + size, replicates))
        idx, redraw = rows[:len(chunk)], chunk
        if words is not None:
            for row, i in zip(words, chunk):
                row[:] = np.random.PCG64(_GivenState(states[i])).random_raw(len(row))
            halves = words[:len(chunk)].view("<u4")[:, :n]  # low half first
            wide = np.multiply(halves, n, out=idx.view(np.uint64), dtype=np.uint64)
            np.right_shift(wide, 32, out=wide)
            low = np.multiply(halves, n, out=halves)  # (h n) mod 2^32
            redraw = [chunk[r] for r in np.flatnonzero(low.min(axis=1) < reject).tolist()]
        for i in redraw:
            bits = np.random.PCG64(_GivenState(states[i]))
            idx[i - start] = np.random.Generator(bits).integers(0, n, size=n)
        yield chunk, idx


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
    pool = None
    if workers > 1 and pricer is None:
        from concurrent.futures import ThreadPoolExecutor  # imports logging: ~9 ms at start-up
        pool = ThreadPoolExecutor(max_workers=workers)
    size = max(least := pricer.least_chunk if pricer else 1, _CHUNK_ENTRIES // data.n // least * least)
    batched: list[int] = []
    parts = []
    try:
        for chunk, idx in _draws(int(cfg.seed), cfg.replicates, data.n, size):
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
