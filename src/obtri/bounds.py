"""Exact lower bounds on the obtuse-triangle probability via counting.

Everything in this module is integer or rational arithmetic; the only floats
are the conversions in ``LimitBoundResult.summary()`` and ``_real_in``, and
text output is left to the command line.  The driving identity is the recursion

    t_{n+1} = ceil(t_n * (n+1) / (n-2)),

seeded at the smallest point count that forces an obtuse triangle in the
given dimension (4 points in the plane, 6 in R^3, 2^d for d >= 4).  The
ratio t_n / C(n,3) is then a non-decreasing lower bound on the probability
that three independently drawn points form an obtuse triangle, and its
value at large n is the reported bound.

Closed forms exist in 2-D and 3-D:

    t_n = (C(n,3) - floor(n/3)) / 3            (n >= 4, planar)
    t_n = (C(n,3) - 2n + k[n mod 11]) / 11     (n >= 6, in R^3)

and both solve the recursion exactly for every n (``tests/test_bounds.py``
proves it residue class by residue class), so ``limit_bound`` reads t_n for
d = 2, 3 straight from them, in O(1) per checkpoint at any n_max.  No closed
form is known for d >= 4, where the recursion runs step by step.  With
k = n - 2 a step is t -> t - floor(-3t/k), and ``limit_bound`` carries
u = -3t as a quotient and remainder, u = q k + r with 0 <= r < k: the step
adds 3q to u, so u becomes q (k+1) + (2q + r), and one division of 2q + r by
k + 1 gives the next pair.  As long as |q| fits one CPython digit, every
operation of a step works on one-digit ints, which CPython runs on its fast
paths, while t itself outgrows one digit near n = 10^4 at d = 4.  Reading
t = -u / 3 back is exact, since u = -3t.

``asymptotic_bound(d)`` = 3 / ((2^d - 1)(2^d - 2)) is the telescoping sum of
1/C(k,3) from k = 2^d: the ratio the recursion would reach from t = 1 at
n = 2^d if every ceiling added a full 1.  Each ceiling adds less, so it is a
ceiling on what the recursion can give, not its limit (about pi/6 of it at
large d).
"""

from __future__ import annotations

import numbers
import operator
import os
import pickle
import sys
import threading
from collections.abc import Callable
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

# Magnitudes below this fit one digit of a CPython int, where its arithmetic
# takes the small-int fast paths; ``limit_bound`` steps d >= 4 on its
# one-digit quotient form while the quotient stays below it.
DIGIT_BOUND = 1 << sys.int_info.bits_per_digit


def _int_at_least(name: str, value: int, low: int) -> int:
    """``value`` as a Python int of at least ``low``, the one check of every
    count and dimension: a numpy integer becomes an int, so exact arithmetic
    on it cannot wrap; a float or a bool raises TypeError and a smaller value
    ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _real_in(name: str, value: float, low: float, high: float, *,
             closed: float | None = None) -> float:
    """``value`` as a Python float in (low, high), or with its finite end
    ``closed`` included: the one check of every real parameter.  A numpy float
    becomes a float, so reports holding it serialize; a bool or a non-real
    raises TypeError, and NaN, an infinity or a value outside ValueError."""
    x = value
    if type(x) is not float:  # the common case skips the type tests
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        try:
            x = float(x)
        except OverflowError:  # an int beyond the float range lies in no interval
            x = float("nan")
    if low < x < high or x == closed:
        return x
    ends = "[("[closed != low] + f"{low}, {high}" + "])"[closed != high]
    raise ValueError(f"{name} must be finite and lie in {ends}, got {value!r}")


def base_case(d: int) -> int:
    """Recursion start N_d: 4 for d=2, 6 for d=3, 2^d for d >= 4."""
    d = _int_at_least("dimension", d, 2)
    if d == 2:
        return BASE_2D
    if d == 3:
        return BASE_3D
    return 2 ** d


def _checked_base_case(d: int, n_max: int) -> int:
    """``base_case(d)``, refusing an n_max below it or not an integer."""
    start = base_case(d)
    if _int_at_least("n_max", n_max, 0) < start:
        raise ValueError(f"n_max={n_max} is below the base case {start} for d={d}")
    return start


def binom3(n: int) -> int:
    """C(n, 3) exactly."""
    return n * (n - 1) * (n - 2) // 6


def recursion_step(t: int, n: int) -> int:
    """One step of the counting recursion: ceil(t * (n+1) / (n-2)).

    Pure integer arithmetic (ceiling division); no floating point.
    """
    t, n = _int_at_least("t", t, 0), _int_at_least("n", n, 3)
    num = t * (n + 1)
    den = n - 2
    return -(-num // den)


def closed_form_2d(n: int) -> int:
    """Minimum obtuse-triangle count among n planar points: (C(n,3) - floor(n/3)) / 3."""
    n = _int_at_least("n", n, BASE_2D)
    num = binom3(n) - n // 3
    q, r = divmod(num, 3)
    if r != 0:
        raise ArithmeticError(f"C({n},3) - floor({n}/3) not divisible by 3; broken invariant")
    return q


def closed_form_3d(n: int) -> int:
    """Minimum obtuse-triangle count among n points in R^3: (C(n,3) - 2n + k) / 11."""
    n = _int_at_least("n", n, BASE_3D)
    num = binom3(n) - 2 * n + K_TABLE[n % 11]
    q, r = divmod(num, 11)
    if r != 0:
        raise ArithmeticError(f"C({n},3) - 2n + k not divisible by 11 at n={n}; broken invariant")
    return q


def closed_form(d: int) -> Callable[[int], int] | None:
    """The exact t_n of dimension d as a function of n >= base_case(d):
    ``closed_form_2d`` or ``closed_form_3d``, or None for d >= 4, where only
    the recursion gives t_n."""
    return {2: closed_form_2d, 3: closed_form_3d}.get(d)


@dataclass(frozen=True)
class BoundRecord:
    """One row of a bound trajectory: dimension, n, t_n and the exact ratio."""

    d: int
    n: int
    t_n: int
    ratio: Fraction


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
            "lower_bound": float(self.lower_bound),
            "upper_envelope": float(self.upper_envelope),
            "asymptotic": float(asymptotic_bound(self.d)),
            "naive": (float(naive_bound(self.d)) if self.d >= 4 else None),
            "monotone": self.monotone,
        }


def limit_bound(d: int, n_max: int) -> LimitBoundResult:
    """t_n from (t=1, n=base_case(d)) up to n_max, at about ``RECORD_COUNT``
    trajectory checkpoints: every ``stride``-th n from the base case, plus
    the final row at n_max.

    For d = 2, 3 each checkpoint's t_n comes straight from ``closed_form(d)``,
    which solves the recursion exactly, so the work is O(RECORD_COUNT) at any
    n_max.  For d >= 4 the recursion runs from the base case: between
    checkpoints the loop is bare integer arithmetic, and records and their
    exact ratios are built only at checkpoints.  The loop steps the pair
    (q, r) with -3 t_n = q (n-2) + r and 0 <= r < n - 2 (see the module
    docstring), and each checkpoint reads t_n = -(q (n-2) + r) // 3, exact
    because the numerator is -3 t_n.  At the first checkpoint where |q|
    reaches ``DIGIT_BOUND`` (for d = 4 near n = 5.2e5) the pair has left one
    digit and is slower than t itself, so from there on the loop steps t
    directly.  Both forms give the same t_n at every n.

    The ratio t_n / C(n,3) is non-decreasing at every step by construction:
    t_{n+1} = ceil(t_n (n+1)/(n-2)) >= t_n (n+1)/(n-2), and
    C(n+1,3) = C(n,3) (n+1)/(n-2).  ``monotone`` reports an exact check of
    that fact on consecutive checkpoint ratios (rational comparison, i.e.
    cross-multiplication), so the flag stays truthful.
    """
    d, n_max = _int_at_least("dimension", d, 2), _int_at_least("n_max", n_max, 0)
    start = _checked_base_case(d, n_max)
    stride = max(1, (n_max - start) // RECORD_COUNT)
    form = closed_form(d)
    t = 1
    n = start
    q, r = divmod(-3, start - 2)  # -3t = q k + r, 0 <= r < k, with k = n - 2
    records = []
    for stop in [*range(start, n_max, stride), n_max]:
        if form is not None:
            t = form(stop)
        elif abs(q) < DIGIT_BOUND:
            # One step takes -3t to -3t + 3q = q (k+1) + (2q + r); m = k + 1.
            for m in range(n - 1, stop - 1):
                w = q + q + r
                q += w // m
                r = w % m
            t = -(q * (stop - 2) + r) // 3
        else:
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


def lower_bounds(dims: list[int] | range, n_max: int) -> list[Fraction]:
    """``limit_bound(d, n_max).lower_bound`` for each d of ``dims``, the
    dimensions run side by side.

    Every base case is checked first, so a too-small n_max raises
    ``limit_bound``'s error for the first failing d before any work starts.
    The dimensions are then dealt out in turn to one process per usable CPU,
    at most one per dimension: this process runs the first share, and forked
    children run the others, each sending back only its bounds, pickled,
    through a pipe.  No child outlives the call, whether it returns or
    raises.  Without ``os.fork``, with one CPU, or when the process already
    has other threads (forking those is unsafe), all of it runs here.
    """
    dims = list(dims)
    for d in dims:
        _checked_base_case(d, n_max)
    workers = min(len(dims), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [limit_bound(d, n_max).lower_bound for d in dims]
    children = []  # (pid, read end of its pipe) of every child not yet reaped
    try:
        for i in range(1, workers):
            children.append(_fork_share(dims[i::workers], n_max))
        out = [None] * len(dims)
        out[::workers] = [limit_bound(d, n_max).lower_bound for d in dims[::workers]]
        for i in range(1, workers):
            out[i::workers] = _receive(*children.pop(0))
        return out
    finally:
        for pid, fd in children:
            os.close(fd)  # a child still writing gets a broken pipe and leaves
            os.waitpid(pid, 0)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_share(share: list[int], n_max: int) -> tuple[int, int]:
    """Fork a child that pickles the bounds of ``share`` (or the exception
    computing them raised) into a pipe; returns its pid and the read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:  # os._exit skips the parent's exit handlers and buffered output
            os.close(read_fd)
            try:
                payload = [limit_bound(d, n_max).lower_bound for d in share]
            except Exception as exc:
                payload = exc
            with open(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _receive(pid: int, read_fd: int) -> list[Fraction]:
    """Read a child's bounds to the end of its pipe, then reap it."""
    try:
        with open(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"a lower_bounds child exited with wait status {status}")
    payload = pickle.loads(data)
    if isinstance(payload, Exception):
        raise payload
    return payload


def asymptotic_bound(d: int) -> Fraction:
    """3 / ((2^d - 1)(2^d - 2)), the sum of 1/C(k,3) over k >= 2^d: a
    ceiling on the recursion's ratio from the base case 2^d, not its limit
    (see the module docstring)."""
    m = 2 ** _int_at_least("dimension", d, 2)
    return Fraction(3, (m - 1) * (m - 2))


def naive_bound(d: int) -> Fraction:
    """Single-group bound 1 / C(2^d, 3) for d >= 4."""
    return Fraction(1, binom3(2 ** _int_at_least("dimension", d, 4)))


def tail_sum(m: int, M: int) -> Fraction:
    """Exact partial sum of 6 / (k(k-1)(k-2)) for k = m..M (telescoping check)."""
    m = _int_at_least("m", m, 3)
    M = _int_at_least("M", M, m)
    # 6/(k(k-1)(k-2)) = 3*[1/((k-1)(k-2)) - 1/(k(k-1))], so the sum telescopes.
    return Fraction(3, (m - 1) * (m - 2)) - Fraction(3, M * (M - 1))

