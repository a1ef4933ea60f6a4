"""Reproducible Monte Carlo estimation of triangle-class probabilities.

One engine, ``_count_strata``, runs every Monte Carlo path in obtri.  A run
is split into shards of ``shard_size`` triples.  Shard ``i`` draws all of
its randomness from a substream seeded by ``(master_seed, i)``, so the
counts are bit-identical for a fixed (draw, samples, seed, shard_size) no
matter how many workers process the shards.  Reduction is exact integer
addition and therefore order-independent.

The draw contract: a caller supplies ``draw(rng, shard, n, count)``, which
draws the shard's ``n`` triples from ``rng`` and hands them to ``count`` as
an iterable of chunks ``(points, stratum)``: the ``3m`` points of ``m``
triples, shape ``(3m, dim)``, and each triple's stratum in ``[0, S)`` (an
array of length ``m``, or one int for the whole chunk), in any order; a
whole draw is one chunk, ``count([(points, stratum)])``.  ``count``
classifies each chunk as it arrives, inside the draw's call.  The engine
returns an ``S x 4`` int64 matrix: row ``s`` holds the class counts, in
``CLASS_ORDER``, of the triples in stratum ``s``.  ``estimate`` uses one
stratum; the self-similar report stratifies by the number of points at a
triple's shallowest level, and the arc-pattern report gives each of its
patterns a shard and a stratum.  A failure of the draw or of its chunks'
iteration is re-raised as ``SamplerError`` with the shard's position; a
failure while a chunk is classified passes through.

Chunks and blocks: ``estimate`` and the self-similar report draw a shard in
chunks of ``_BLOCK`` triples from the samplers' ``sample_chunks`` streams,
which draw each chunk into buffers the shard reuses, so no (shard, dim)
array of points exists.  Each chunk is classified ``_BLOCK`` triples at a
time through ``_blockwise``, the loop that the samplers' per-point formulas
also run through, so a shard's temporaries are O(_BLOCK * dim) and stay in
cache.  Each block goes to ``classify_batch`` as one C-contiguous
(_BLOCK, 3, dim) array (its block form), read as three vertex views like
the vertex form: in R^2 and R^3 their edges go into a coordinate-major
buffer, so every later pass is a contiguous loop over the block's
triples; in other dimensions one subtraction over the block's flat
buffer, each vertex row minus the one before, writes every b - a and
c - b, and c - a goes into each triple's third slot.
A stream draws from the shard's generator in the same order as one whole
draw, and every element is computed by the same operations, so counts and
sampled points are bit-identical to unchunked, unblocked evaluation.

Any object with a ``dim`` attribute and a ``sample(rng, n) -> (n, dim)``
method can be estimated; the distribution constructions in
:mod:`obtri.constructions` all qualify.  One that also has
``sample_chunks(rng, n, rows)``, yielding the points of ``sample(rng, n)``
in chunks of at most ``rows`` rows, is streamed; its ``sample(rng, n,
consume=f)`` must return ``f(sample_chunks(rng, n, 3 * _BLOCK))``.  Either
way a shard is one ``sample`` call, which is the call ``perfbench``'s
tracer times as a shard's sampling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from obtri.bounds import _int_at_least, _real_in
from obtri.geometry import DEFAULT_TOL, TriangleClass, class_counts, classify_batch

DEFAULT_SHARD_SIZE = 1 << 16

# Rows per block of every loop over a shard: points in the samplers'
# element-wise formulas, triples in classification and in a streamed
# shard's chunks.  Large enough that the loop over blocks costs nothing,
# small enough that a block's temporaries stay in cache, so a streamed
# shard's peak memory is O(_BLOCK * dim).
_BLOCK = 1 << 12


def _blockwise(fn, out: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """Fill ``out`` block by block: out[i:j] = fn(a[i:j] for each of arrays)."""
    for lo in range(0, out.shape[0], _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        out[rows] = fn(*(a[rows] for a in arrays))
    return out


def _chunk_bounds(n: int, rows: int) -> list[tuple[int, int]]:
    """(lo, hi) of the consecutive chunks of at most ``rows`` of n rows; one
    (0, 0) chunk when n is 0, so that a one-chunk stream yields its chunk."""
    n, rows = _int_at_least("n", n, 0), _int_at_least("chunk rows", rows, 1)
    return [(lo, min(lo + rows, n)) for lo in range(0, max(n, 1), rows)]


class SamplerError(RuntimeError):
    """A sampler failed while producing points; records where."""

    def __init__(self, message: str, *, shard: int, sample_offset: int):
        super().__init__(message)
        self.shard = shard
        self.sample_offset = sample_offset


@dataclass(frozen=True)
class SeedPolicy:
    """Substream-per-shard seeding: sample i belongs to shard i // shard_size."""

    master_seed: int
    shard_size: int = DEFAULT_SHARD_SIZE

    def __post_init__(self):
        object.__setattr__(self, "shard_size", _int_at_least("shard_size", self.shard_size, 1))
        # No floor here: the range check below keeps its own message.
        seed = _int_at_least("master seed", self.master_seed, -math.inf)
        if not (0 <= seed < 2 ** 64):
            raise ValueError("master seed must fit in 64 bits")
        object.__setattr__(self, "master_seed", seed)

    def rng_for_shard(self, shard: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.master_seed, shard))))


# sqrt(2) * erfinv(0.95), 2 ulp below the correctly rounded 1.9599639845400543:
# the value the pinned ci95 fixtures were computed with.
_Z95 = 1.9599639845400538


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials, successes = _int_at_least("trials", trials, 1), _int_at_least("successes", successes, 0)
    if successes > trials:
        raise ValueError(f"successes must be in [0, trials], got {successes}/{trials}")
    z = _Z95
    n = float(trials)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # The score interval hits the boundary exactly at p = 0 and p = 1;
    # keep it there against rounding.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result for one distribution.

    ``p_hat`` is the obtuse fraction; ``ci95`` is its Wilson interval.
    """

    samples: int
    counts: dict
    p_hat: float
    ci95: tuple[float, float]
    seed: int
    shard_size: int
    tol: float
    spec: dict | None = None

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.samples:
            raise ValueError(f"class counts sum to {total}, expected {self.samples}")

    def to_dict(self) -> dict:
        return asdict(self)


def _count_strata(draw, dim: int, strata: int, samples: int, policy: SeedPolicy, tol: float,
                  workers: int = 1) -> np.ndarray:
    """The ``strata x 4`` class counts of the caller's checked ``samples``
    triples from ``draw`` (see the module docstring for the contract)."""
    workers = _int_at_least("workers", workers, 1)
    shard_size = policy.shard_size
    n_shards = (samples + shard_size - 1) // shard_size

    def classify(tri: np.ndarray) -> np.ndarray:
        return classify_batch(tri, tol=tol)

    def count_shard(shard: int) -> np.ndarray:
        offset = shard * shard_size
        n = min(shard_size, samples - offset)
        rng = policy.rng_for_shard(shard)
        table = np.zeros(4 * strata, dtype=np.int64)
        left = n  # triples not yet counted
        counting = False  # while a chunk is classified and tallied

        def failure(message: str) -> SamplerError:
            return SamplerError(f"sampler failed in shard {shard} (triples {offset}..): {message}",
                                shard=shard, sample_offset=offset)

        def count(chunks) -> None:
            nonlocal counting, left, table
            for pts, stratum in chunks:
                pts = np.asarray(pts, dtype=float)
                m = len(pts) // 3 if pts.ndim == 2 else 0
                if pts.shape != (3 * m, dim) or m > left:
                    raise failure(f"chunk of shape {pts.shape}, expected (3m, {dim}) with m <= {left}")
                counting = True
                codes = _blockwise(classify, np.empty(m, dtype=np.int8), pts.reshape(m, 3, dim))
                table += np.bincount(4 * np.asarray(stratum, dtype=np.intp) + codes, minlength=4 * strata)
                counting = False
                left -= m

        try:
            draw(rng, shard, n, count)
            if left:
                raise failure(f"chunks hold {n - left} triples, expected {n}")
        except Exception as exc:  # re-raise the draw's own errors with position information
            if counting or isinstance(exc, SamplerError):
                raise
            raise failure(str(exc)) from exc
        return table

    if workers == 1:
        parts = [count_shard(i) for i in range(n_shards)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(count_shard, range(n_shards)))
    return np.sum(np.stack(parts), axis=0).reshape(strata, 4)


def estimate(sampler, samples: int, seed: int, tol: float = DEFAULT_TOL, *,
             workers: int = 1, shard_size: int = DEFAULT_SHARD_SIZE,
             spec: dict | None = None) -> Estimate:
    """Estimate triangle-class probabilities for a point sampler.

    Bit-identical results for fixed (sampler, samples, seed, shard_size)
    regardless of ``workers``.  The report holds ``samples``, ``seed`` and
    ``shard_size`` as the checked Python ints and ``tol`` as the checked
    float, so it serializes to JSON whatever numeric types they were given as.
    """
    samples = _int_at_least("samples", samples, 1)
    tol = _real_in("tol", tol, 0.0, math.inf, closed=0.0)
    policy = SeedPolicy(master_seed=seed, shard_size=shard_size)
    streamed = hasattr(sampler, "sample_chunks")

    def draw(rng, shard, n, count):
        if streamed:
            sampler.sample(rng, 3 * n, consume=lambda chunks: count((pts, 0) for pts in chunks))
        else:
            count([(sampler.sample(rng, 3 * n), 0)])

    table = _count_strata(draw, sampler.dim, 1, samples, policy, tol, workers)
    counts = class_counts(table[0])
    obtuse = counts[TriangleClass.OBTUSE]
    lo, hi = wilson_interval(obtuse, samples)
    return Estimate(
        samples=samples,
        counts=counts,
        p_hat=obtuse / samples,
        ci95=(lo, hi),
        seed=policy.master_seed,
        shard_size=policy.shard_size,
        tol=tol,
        spec=spec,
    )
