"""Obtuse probability for three uniform points on the unit (d-1)-sphere.

Condition on the angle theta between two of the points.  The third point
lands in an obtuse-forcing region consisting of three spherical caps whose
total mass is

    P(theta, d) = 1/2 * I_{sin^2(theta/2)}((d-1)/2, 1/2)
                  + I_{cos^2(theta/2)}((d-1)/2, 1/2),

where I is the regularized incomplete beta function.  The angle itself has
density proportional to sin^{d-2}(theta) on (0, pi), so the obtuse
probability is the quadrature of P against that density.  At d = 3 the
integral is exactly 1/2; at d = 2 (uniform on a circle) the density is flat
and the classic value 3/4 drops out.

For large d the angle density concentrates at pi/2, suggesting the
plug-in value (3/2) * I_{1/2}((d-1)/2, 1/2); both it and the quadrature
are exposed so the quality of that approximation can be measured.  The
plug-in value is not the size of the result: the integrand peaks at
theta* = 2 arctan(1/sqrt 2) and at pi - theta*, and Laplace's method there
gives 81/(8 sqrt(6 pi)) d^(-1/2) (4/(3 sqrt 3))^d, which the quadrature
approaches at relative rate O(1/d).  That Laplace value scales the
quadrature's tolerance, so a single adaptive Gauss-Kronrod pass over
[0, pi] converges at every d.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from obtri.bounds import _int_at_least, _real_in
from obtri.mc import _blockwise, _chunk_bounds
from obtri.specfun import QuadratureResult, betainc, integrate, log_gamma_half_ratio


def _three_caps(theta: float, d: int, lbeta: float) -> float:
    """Cap-mass sum, continuous extension to the closed interval [0, pi].

    ``lbeta`` is ``_log_sin_power_norm(d)`` = log B((d - 1) / 2, 1/2), shared
    by both caps.
    """
    a = (d - 1) / 2.0
    s = math.sin(theta / 2.0) ** 2
    c = math.cos(theta / 2.0) ** 2
    return 0.5 * betainc(s, a, 0.5, lbeta) + betainc(c, a, 0.5, lbeta)


def obtuse_given_angle(theta: float, d: int) -> float:
    """Three-cap probability that the third point makes the triangle obtuse."""
    d, theta = _int_at_least("dimension", d, 2), _real_in("theta", theta, 0.0, math.pi)
    return _three_caps(theta, d, _log_sin_power_norm(d))


_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _log_sin_power_norm(d: int) -> float:
    """log of the angle density's normalizer, the integral of sin^{d-2} over
    (0, pi): by Wallis sqrt(pi) Gamma((d-1)/2) / Gamma(d/2), which is also
    B((d-1)/2, 1/2), the caps' incomplete-beta normalizer.

    Taken as log Gamma(1/2) minus ``log_gamma_half_ratio``: a difference of
    two log-gammas of about a log a each would lose up to 1.7e-12 absolute
    at large d, and this log becomes the quadrature's relative error.
    """
    return _HALF_LOG_PI - log_gamma_half_ratio((d - 1) / 2.0)


def obtuse_prob_sphere(d: int, tol: float = 1e-10) -> float:
    """Quadrature of the three-cap probability against the angle density.

    ``tol``, checked as given, is then taken relative to the size of the
    result, which ``laplace_sphere(d)`` sets (capped at 1), so small
    high-dimension probabilities come back with full relative accuracy.
    """
    d, tol = _int_at_least("dimension", d, 2), _real_in("tol", tol, 0.0, math.inf)
    lbeta = _log_sin_power_norm(d)
    p = d - 2

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        if p > 0 and s <= 0.0:
            return 0.0
        log_w = p * math.log(s) - lbeta if p > 0 else -lbeta
        return _three_caps(theta, d, lbeta) * math.exp(log_w)

    scale = max(laplace_sphere(d), 1e-300)
    result: QuadratureResult = integrate(integrand, 0.0, math.pi, tol * min(1.0, scale))
    return result.value


_LAPLACE_CONSTANT = 81.0 / (8.0 * math.sqrt(6.0 * math.pi))
_LAPLACE_BASE = 4.0 / (3.0 * math.sqrt(3.0))


def laplace_sphere(d: int) -> float:
    """Laplace asymptotic of the quadrature: 81/(8 sqrt(6 pi)) d^(-1/2) (4/(3 sqrt 3))^d.

    The integrand peaks at theta* = 2 arctan(1/sqrt 2) (cos cap) and at
    pi - theta* (sin cap, half the weight); expanding both peaks gives this
    leading term, which the quadrature approaches with relative error O(1/d).
    """
    d = _int_at_least("dimension", d, 2)
    return _LAPLACE_CONSTANT * math.exp(d * math.log(_LAPLACE_BASE) - 0.5 * math.log(d))


def asymptotic_sphere(d: int) -> float:
    """Plug-in value at theta = pi/2: (3/2) * I_{1/2}((d-1)/2, 1/2)."""
    d = _int_at_least("dimension", d, 2)
    return 1.5 * betainc(0.5, (d - 1) / 2.0, 0.5, _log_sin_power_norm(d))


def sample_sphere(d: int, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n uniform points on the unit sphere S^{d-1}, shape (n, d): the one
    chunk of ``sphere_chunks(d, rng, n, n)``.

    Normalized standard normal deviates, drawn as one (n, d) array; the
    measure-zero zero-norm draw is redrawn once all n are drawn.
    """
    n = _int_at_least("n", n, 1)
    return next(sphere_chunks(d, rng, n, n))


def sphere_chunks(d: int, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
    """n uniform points on S^{d-1}, in order, in chunks of at most ``rows``
    rows; ``sample_sphere(d, rng, n)`` is its one chunk (rows >= n).

    Each chunk's rows are drawn, then divided in place by their norms.  With
    one chunk it is a fresh array; otherwise every chunk is drawn into one
    buffer that the next overwrites, so a chunk is valid until the next is
    requested.  A chunk redraws its rows of zero norm, in row order until
    none is zero, before the next chunk is drawn.  Only that makes a stream
    differ from one whole draw, which redraws after all n rows; a standard
    normal is exactly 0.0 with probability about 2^-52.  Arguments are
    checked at the call.
    """
    d = _int_at_least("dimension", d, 2)
    bounds = _chunk_bounds(n, rows)

    def stream() -> Iterator[np.ndarray]:
        buf = np.empty((rows, d)) if rows < n else None
        for lo, hi in bounds:
            m = hi - lo
            pts = rng.standard_normal((m, d)) if buf is None else rng.standard_normal(out=buf[:m])
            bad = np.flatnonzero(_blockwise(_normalize, np.empty(m, dtype=bool), pts))
            while bad.size:
                redraw = rng.standard_normal((bad.size, d))
                zero = _normalize(redraw)
                pts[bad] = redraw
                bad = bad[zero]
            yield pts

    return stream()


def _normalize(x: np.ndarray) -> np.ndarray:
    """Divide the rows of x in place by their norms; returns the mask of the
    zero-norm rows, which are left as they are."""
    norms = _row_norms(x)
    zero = norms == 0.0
    norms[zero] = 1.0
    x /= norms[:, None]
    return zero


# numpy's pairwise summation adds runs shorter than this one term at a time
# and longer ones in this many interleaved partial sums.
_PAIRWISE_BLOCK = 8


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` for real x, bit for bit, without the
    conjugate copy and square that it allocates on the way.

    That norm is the square root of ``np.add.reduce(x * x, axis=1)``, which
    runs one loop of d elements per row.  While a row holds at most one
    block of eight partial sums (d < 16), the squares are summed column by
    column in numpy's pairwise order instead, each step one loop over all
    rows: a row of fewer than 8 terms left to right; from 8 terms on, the
    eight partial sums, here the first eight squares, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then the rest one
    at a time.  At most four (m,) rows are live.  Longer rows keep numpy's
    reduction: the column form of its whole order (partial sums over several
    blocks, halves above 128 terms) is bit-identical too, but each column
    pass reads a cache line per row, and from d = 32 on it took 1.3 to 5
    times as long.
    """
    m, d = x.shape
    if d >= 2 * _PAIRWISE_BLOCK:
        return np.sqrt(np.add.reduce(x * x, axis=1))
    square = np.empty(m)

    def run(lo: int, hi: int) -> np.ndarray:
        """The squares of columns lo..hi-1 added left to right, in a fresh row."""
        total = np.multiply(x[:, lo], x[:, lo])
        for j in range(lo + 1, hi):
            total += np.multiply(x[:, j], x[:, j], out=square)
        return total

    if d < _PAIRWISE_BLOCK:
        total = run(0, d)
    else:
        total = run(0, 2)
        total += run(2, 4)
        high = run(4, 6)
        high += run(6, 8)
        total += high
        for j in range(_PAIRWISE_BLOCK, d):
            total += np.multiply(x[:, j], x[:, j], out=square)
    return np.sqrt(total, out=total)
