"""Percentile bootstrap intervals for decomposition estimators.

Works with any estimator mapping a Dataset to a DecompositionResult; such a
callable runs once per resample.  The two named estimators are priced in
chunks instead, by a pricer that only prepares and prices (see
`_PluginChunkPricer` and `_LinearChunkPricer`); every chunk is drawn and
gathered into arrays allocated once per call.  A pricer names the draws it
cannot price, and `bootstrap` alone sends those to the estimator, sums the
addends of all priced draws into rows at once (`decomp._totals`, exact sums
equal to `math.fsum`) and counts the routes.  Replicate i draws its
resample from ``default_rng(SeedSequence(seed).spawn(replicates)[i])``, the
stream it always drew from, but its PCG64 seed words are hashed for all
replicates in one numpy pass (`_spawned_states`), and numpy makes only its
raw words, turned into indices a chunk at a time (`_draws`).  Each
chunked replicate is computed on its own, so the output depends only on
(seed, replicates, data, estimator) and never on chunk size or worker
count.  The plug-in chunks reproduce the per-resample values bit for bit,
the linear chunks to roundoff.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cfexpr import Scenario
from .decomp import DecompositionResult, Query, _catalog, _totals, decompose
from .estimate import (
    _PIVOT_TOL,
    _QR_BLOCK_ROWS,
    _SEQ2,
    CovariateProfile,
    _covariate_vector,
    _factored,
    _linear_levels,
    _linear_pricer,
    _outcome_rows,
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
    resamples in chunks from the full data's one triangle of ``[X | y]``,
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
# draws, an m x n index matrix that `bootstrap` overwrites with the next
# chunk: a pricer neither keeps nor writes it.  It returns one reason per
# draw, "" for a draw it priced and otherwise one of its `reasons`, together
# with a part for its `addends`.  Handed the parts of every chunk, `addends`
# returns one float array ``[formula, addend, replicate]`` over all priced
# draws, in draw order, for `bootstrap` to sum into the rows of its
# `catalog` at once.  `extras` holds the pricer's own route diagnostics, and
# only a last chunk holds fewer than `least_chunk` draws.


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
    """A `LinearEstimator`'s resamples fitted and priced a chunk at a time.

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
        counts = counts.reshape(m, n)[:, self._kept]
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
        price = _linear_pricer(params, self._cvec, self._level)
        return np.stack([np.stack(np.broadcast_arrays(*price(f))) for f in self.catalog.formulas])


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
