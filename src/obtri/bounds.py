"""Exact lower bounds on the obtuse-triangle probability via counting.

Everything in this module is integer or rational arithmetic; floats appear
only as derived renderings.  The driving identity is the recursion

    t_{n+1} = ceil(t_n * (n+1) / (n-2)),

seeded at the smallest point count that forces an obtuse triangle in the
given dimension (4 points in the plane, 6 in R^3, 2^d for d >= 4).  The
ratio t_n / C(n,3) is then a non-decreasing lower bound on the probability
that three independently drawn points form an obtuse triangle, and its
value at large n is the reported bound.

Closed forms exist in 2-D and 3-D:

    t_n = (C(n,3) - floor(n/3)) / 3            (n >= 4, planar)
    t_n = (C(n,3) - 2n + k[n mod 11]) / 11     (n >= 6, in R^3)

and for large dimension the whole recursion collapses onto the telescoping
sum of 1/C(k,3), giving the closed form 3 / ((2^d - 1)(2^d - 2)).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

# k[n mod 11] completing the 3-D closed form; the offsets make
# C(n,3) - 2n + k divisible by 11 for every n >= 6.
K_TABLE = (0, 2, 4, 5, 4, 0, 3, 1, 4, 0, -1)

# Smallest point count with a guaranteed obtuse triangle, per dimension.
BASE_2D = 4
BASE_3D = 6

# Trajectory checkpoints ``limit_bound`` keeps between the base case and n_max.
RECORD_COUNT = 200


def base_case(d: int) -> int:
    """Recursion start N_d: 4 for d=2, 6 for d=3, 2^d for d >= 4."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if d == 2:
        return BASE_2D
    if d == 3:
        return BASE_3D
    return 2 ** d


def binom3(n: int) -> int:
    """C(n, 3) exactly."""
    return n * (n - 1) * (n - 2) // 6


def recursion_step(t: int, n: int) -> int:
    """One step of the counting recursion: ceil(t * (n+1) / (n-2)).

    Pure integer arithmetic (ceiling division); no floating point.
    """
    if n <= 2:
        raise ValueError(f"recursion_step needs n >= 3, got {n}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    num = t * (n + 1)
    den = n - 2
    return -(-num // den)


def closed_form_2d(n: int) -> int:
    """Minimum obtuse-triangle count among n planar points: (C(n,3) - floor(n/3)) / 3."""
    if n < 4:
        raise ValueError(f"closed_form_2d needs n >= 4, got {n}")
    num = binom3(n) - n // 3
    q, r = divmod(num, 3)
    if r != 0:
        raise ArithmeticError(f"C({n},3) - floor({n}/3) not divisible by 3; broken invariant")
    return q


def closed_form_3d(n: int) -> int:
    """Minimum obtuse-triangle count among n points in R^3: (C(n,3) - 2n + k) / 11."""
    if n < 6:
        raise ValueError(f"closed_form_3d needs n >= 6, got {n}")
    num = binom3(n) - 2 * n + K_TABLE[n % 11]
    q, r = divmod(num, 11)
    if r != 0:
        raise ArithmeticError(f"C({n},3) - 2n + k not divisible by 11 at n={n}; broken invariant")
    return q


@dataclass(frozen=True)
class BoundRecord:
    """One row of a bound trajectory: dimension, n, t_n and the exact ratio."""

    d: int
    n: int
    t_n: int
    ratio: Fraction

    @property
    def ratio_float(self) -> float:
        return self.ratio.numerator / self.ratio.denominator


@dataclass(frozen=True)
class LimitBoundResult:
    """Trajectory and summary of one recursion run from the base case to n_max."""

    d: int
    base_n: int
    n_max: int
    records: tuple[BoundRecord, ...]
    lower_bound: Fraction          # ratio at n_max; monotone lower bound
    upper_envelope: Fraction       # lower_bound + remaining tail of sum 1/C(k,3)
    monotone: bool                 # ratio non-decreasing across the checkpoints

    @property
    def final(self) -> BoundRecord:
        return self.records[-1]

    def summary(self) -> dict:
        return {
            "d": self.d,
            "base_n": self.base_n,
            "n_max": self.n_max,
            "lower_bound": self.lower_bound.numerator / self.lower_bound.denominator,
            "upper_envelope": self.upper_envelope.numerator / self.upper_envelope.denominator,
            "asymptotic": float(asymptotic_bound(self.d)),
            "naive": (float(naive_bound(self.d)) if self.d >= 4 else None),
            "monotone": self.monotone,
        }


def limit_bound(d: int, n_max: int) -> LimitBoundResult:
    """Run the recursion from (t=1, n=base_case(d)) up to n_max.

    About ``RECORD_COUNT`` trajectory checkpoints are retained: every
    ``stride``-th n from the base case, plus the final row at n_max.
    Between checkpoints the loop is bare integer arithmetic; records and
    their exact ratios are built only at checkpoints.

    The ratio t_n / C(n,3) is non-decreasing at every step by construction:
    t_{n+1} = ceil(t_n (n+1)/(n-2)) >= t_n (n+1)/(n-2), and
    C(n+1,3) = C(n,3) (n+1)/(n-2).  ``monotone`` reports an exact check of
    that fact on consecutive checkpoint ratios (rational comparison, i.e.
    cross-multiplication), so the flag stays truthful.
    """
    start = base_case(d)
    if n_max < start:
        raise ValueError(f"n_max={n_max} is below the base case {start} for d={d}")
    stride = max(1, (n_max - start) // RECORD_COUNT)
    t = 1
    n = start
    records = []
    for stop in [*range(start, n_max, stride), n_max]:
        # With k = n - 2: ceil(t (k+3)/k) = t + ceil(3t/k) = t - floor(-3t/k).
        for k in range(n - 2, stop - 2):
            t -= -3 * t // k
        n = stop
        records.append(BoundRecord(d, n, t, Fraction(t, binom3(n))))
    lower = records[-1].ratio
    envelope = lower + Fraction(3, (n_max - 1) * (n_max - 2))
    return LimitBoundResult(
        d=d,
        base_n=start,
        n_max=n_max,
        records=tuple(records),
        lower_bound=lower,
        upper_envelope=envelope,
        monotone=all(a.ratio <= b.ratio for a, b in zip(records, records[1:])),
    )


def asymptotic_bound(d: int) -> Fraction:
    """Large-d closed form 3 / (2^{2d} - 3*2^d + 2) = 3 / ((2^d - 1)(2^d - 2))."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    m = 2 ** d
    return Fraction(3, (m - 1) * (m - 2))


def naive_bound(d: int) -> Fraction:
    """Single-group bound 1 / C(2^d, 3) for d >= 4."""
    if d < 4:
        raise ValueError(f"naive_bound is defined for d >= 4, got {d}")
    return Fraction(1, binom3(2 ** d))


def tail_sum(m: int, M: int) -> Fraction:
    """Exact partial sum of 6 / (k(k-1)(k-2)) for k = m..M (telescoping check)."""
    if m < 3 or M < m:
        raise ValueError(f"need 3 <= m <= M, got m={m}, M={M}")
    # 6/(k(k-1)(k-2)) = 3*[1/((k-1)(k-2)) - 1/(k(k-1))], so the sum telescopes.
    return Fraction(3, (m - 1) * (m - 2)) - Fraction(3, M * (M - 1))


def records_to_csv(records: list[BoundRecord] | tuple[BoundRecord, ...]) -> str:
    """CSV rendering: d, n, t_n, exact ratio numerator/denominator, float ratio."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["d", "n", "t_n", "ratio_exact_num", "ratio_exact_den", "ratio_float"])
    for rec in records:
        writer.writerow([rec.d, rec.n, rec.t_n, rec.ratio.numerator, rec.ratio.denominator,
                         repr(rec.ratio_float)])
    return buf.getvalue()
