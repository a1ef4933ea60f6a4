import os
import threading
from fractions import Fraction

import numpy as np
import pytest

from obtri import bounds
from obtri.bounds import (
    BoundRecord,
    asymptotic_bound,
    base_case,
    binom3,
    closed_form,
    closed_form_2d,
    closed_form_3d,
    K_TABLE,
    limit_bound,
    lower_bounds,
    naive_bound,
    recursion_step,
    tail_sum,
)


class TestRecursionStep:
    def test_first_planar_step(self):
        # five points guarantee ceil(5/2) = 3 obtuse triangles
        assert recursion_step(1, 4) == 3

    def test_matches_2d_closed_form_step(self):
        assert recursion_step(3, 5) == 6 == closed_form_2d(6)

    def test_matches_3d_closed_form_step(self):
        assert recursion_step(1, 6) == 2 == closed_form_3d(7)

    def test_exact_ceiling(self):
        # ceil(7 * 11 / 8) = ceil(9.625) = 10, no float involved
        assert recursion_step(7, 10) == 10

    @pytest.mark.parametrize("n", [2, 1, 0, -5])
    def test_small_n_rejected(self, n):
        with pytest.raises(ValueError):
            recursion_step(1, n)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            recursion_step(-1, 5)


class TestClosedForms:
    def test_2d_values(self):
        assert closed_form_2d(4) == 1
        assert closed_form_2d(5) == 3
        # iterating the recursion from t_4 = 1 gives 1, 3, 6, 11
        assert closed_form_2d(7) == 11

    def test_3d_values(self):
        assert closed_form_3d(6) == 1     # (20 - 12 + 3) / 11
        assert closed_form_3d(7) == 2     # (35 - 14 + 1) / 11
        assert closed_form_3d(17) == 59   # (680 - 34 + 3) / 11, k for 17 mod 11 = 6

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_2d(3)
        with pytest.raises(ValueError):
            closed_form_3d(5)

    def test_k_table_values(self):
        assert K_TABLE == (0, 2, 4, 5, 4, 0, 3, 1, 4, 0, -1)

    def test_k_table_divisibility(self):
        for n in range(6, 4000):
            assert (binom3(n) - 2 * n + K_TABLE[n % 11]) % 11 == 0

    def test_2d_satisfies_recursion(self):
        t = closed_form_2d(4)
        for n in range(4, 3000):
            t = recursion_step(t, n)
            assert t == closed_form_2d(n + 1)

    def test_3d_satisfies_recursion(self):
        t = closed_form_3d(6)
        for n in range(6, 3000):
            t = recursion_step(t, n)
            assert t == closed_form_3d(n + 1)

    def test_mod3_divisibility_identity(self):
        for n in range(4, 20000):
            assert binom3(n) % 3 == (n // 3) % 3

    def test_binomial_ratio_identity(self):
        # C(n,3) (n+1)/(n-2) = C(n+1,3), exactly
        for n in range(3, 20000):
            assert binom3(n) * (n + 1) == binom3(n + 1) * (n - 2)


class TestClosedFormsSolveTheRecursion:
    """Proof that ``closed_form(d)`` equals the recursion's t_n for every n.

    Write c = closed_form(d) and g(n) = c(n+1)(n-2) - c(n)(n+1).  For an
    integer c(n), ceil(c(n)(n+1)/(n-2)) = c(n+1) exactly when
    0 <= g(n) < n - 2.  On a residue class n = r (mod m), with m = 3 in 2-D
    and 11 in 3-D, floor(n/3), floor((n+1)/3) and k[n mod 11], k[(n+1) mod 11]
    are linear or constant in n, so c(n) and c(n+1) are cubics in n.  Their
    cubic parts cancel in g, as C(n+1,3)(n-2) = C(n,3)(n+1), so g has degree
    at most 2 there, and three equally spaced values on a line make it linear.
    With slope s in [0, 1) and 0 <= g(n0) < n0 - 2 at the class's first
    n0 >= base_case(d), g(n) = g(n0) + s(n - n0) stays in [0, n - 2) at every
    later n of the class.  Integrality: n(n-1)(n-2) mod 6m, hence C(n,3)
    mod m, depends only on n mod 6m, and so do floor(n/3) mod 3 and
    2n - k[n mod 11] mod 11, so 6m consecutive n where c(n) does not raise
    cover every n.  With c(base_case(d)) = 1, the recursion's start,
    induction gives t_n = c(n) for all n >= base_case(d).
    """

    @pytest.mark.parametrize("d, m, slopes", [
        (2, 3, {Fraction(0), Fraction(1, 3)}),
        (3, 11, {Fraction(k, 11) for k in (0, 2, 3, 5, 6, 7)}),
    ])
    def test_gap_is_linear_and_in_range_on_every_residue_class(self, d, m, slopes):
        form = closed_form(d)
        base = base_case(d)
        assert form(base) == 1
        for n in range(base, base + 6 * m):
            form(n)  # raises ArithmeticError on a numerator not divisible by m

        def gap(n):
            return form(n + 1) * (n - 2) - form(n) * (n + 1)

        seen = set()
        for n0 in range(base, base + m):
            g0, g1, g2 = gap(n0), gap(n0 + m), gap(n0 + 2 * m)
            assert g2 - g1 == g1 - g0
            slope = Fraction(g1 - g0, m)
            assert 0 <= slope < 1
            assert 0 <= g0 < n0 - 2
            seen.add(slope)
        assert seen == slopes

    def test_no_closed_form_above_three(self):
        assert closed_form(2) is closed_form_2d
        assert closed_form(3) is closed_form_3d
        assert [closed_form(d) for d in (1, 4, 5, 8, 20)] == [None] * 5


class TestBaseCases:
    def test_values(self):
        assert base_case(2) == 4
        assert base_case(3) == 6
        assert base_case(4) == 16
        assert base_case(8) == 256

    def test_domain(self):
        with pytest.raises(ValueError):
            base_case(1)

    def test_float_dimension_refused(self):
        # a float d was raised to the float count 16.0
        with pytest.raises(TypeError):
            base_case(4.0)

    def test_integer_like_dimension_accepted(self):
        assert type(base_case(np.int64(4))) is int


class TestLimitBound:
    def test_planar_matches_closed_form(self):
        res = limit_bound(2, 2000)
        assert res.final.t_n == closed_form_2d(2000)
        assert res.lower_bound == Fraction(closed_form_2d(2000), binom3(2000))

    def test_3d_matches_closed_form(self):
        res = limit_bound(3, 2000)
        assert res.final.t_n == closed_form_3d(2000)

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_form_at_n_max_1e12(self, d):
        res = limit_bound(d, 10 ** 12)
        assert res.final.n == 10 ** 12
        assert res.final.t_n == closed_form(d)(10 ** 12)
        assert res.lower_bound == Fraction(closed_form(d)(10 ** 12), binom3(10 ** 12))
        assert res.monotone is True

    def test_monotone_flag(self):
        assert limit_bound(2, 5000).monotone
        assert limit_bound(4, 5000).monotone

    def test_records_cover_range(self, monkeypatch):
        monkeypatch.setattr(bounds, "RECORD_COUNT", 10)
        res = limit_bound(2, 1000)
        assert res.records[0].n == 4
        assert res.records[-1].n == 1000
        ns = [r.n for r in res.records]
        assert ns == sorted(ns)

    def test_ratio_bounded(self):
        res = limit_bound(5, 3000)
        assert Fraction(0) < res.lower_bound < Fraction(1)
        assert res.lower_bound < res.upper_envelope

    def test_envelope_formula(self):
        res = limit_bound(2, 100)
        assert res.upper_envelope - res.lower_bound == Fraction(3, 99 * 98)

    def test_below_base_case_rejected(self):
        with pytest.raises(ValueError):
            limit_bound(4, 10)

    def test_summary_fields(self):
        s = limit_bound(4, 500).summary()
        assert s["base_n"] == 16
        assert s["naive"] == pytest.approx(1.0 / binom3(16))
        assert s["monotone"] is True

    def test_numpy_n_max_is_exact(self):
        # an int64 n_max overflowed C(n,3) at n = 10^12
        res = limit_bound(np.int64(2), np.int64(10 ** 12))
        assert res.lower_bound == limit_bound(2, 10 ** 12).lower_bound
        assert type(res.n_max) is int and type(res.final.t_n) is int


def reference_limit_bound(d, n_max, record_count):
    """Step-by-step oracle: recursion_step, running C(n,3) and an exact
    cross-multiplied monotonicity check at every single step."""
    start = base_case(d)
    t, n, c3 = 1, start, binom3(start)
    stride = max(1, (n_max - start) // max(1, record_count))
    records = [BoundRecord(d, n, t, Fraction(t, c3))]
    monotone = True
    while n < n_max:
        t_next = recursion_step(t, n)
        c3_next = c3 * (n + 1) // (n - 2)
        monotone = monotone and t_next * c3 >= t * c3_next
        t, c3, n = t_next, c3_next, n + 1
        if (n - start) % stride == 0 and n != n_max:
            records.append(BoundRecord(d, n, t, Fraction(t, c3)))
    if records[-1].n != n_max:
        records.append(BoundRecord(d, n_max, t, Fraction(t, c3)))
    lower = Fraction(t, c3)
    return records, lower, lower + Fraction(3, (n_max - 1) * (n_max - 2)), monotone


class TestLimitBoundEquivalence:
    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("extra", [0, 1, 7, 200, 2500])
    @pytest.mark.parametrize("record_count", [1, 10, 200, 10 ** 6])
    def test_matches_step_by_step_reference(self, d, extra, record_count, monkeypatch):
        n_max = base_case(d) + extra
        records, lower, envelope, monotone = reference_limit_bound(d, n_max, record_count)
        monkeypatch.setattr(bounds, "RECORD_COUNT", record_count)
        res = limit_bound(d, n_max)
        assert list(res.records) == records
        assert res.lower_bound == lower
        assert res.upper_envelope == envelope
        assert res.monotone is monotone is True

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_form_path_at_large_n_max(self, d):
        records, lower, envelope, monotone = reference_limit_bound(d, 200000, bounds.RECORD_COUNT)
        res = limit_bound(d, 200000)
        assert list(res.records) == records
        assert res.lower_bound == lower
        assert res.upper_envelope == envelope
        assert res.monotone is monotone is True


QR_T = [0, 1, 2, 2 ** 29 - 1, 2 ** 29 + 1, 2 ** 30 - 1, 2 ** 30 + 1, 2 ** 60 + 7]
QR_K = [1, 2, 3, 14, 254, 1000, 2 ** 20 + 3, 2 ** 31 + 1]


class TestQuotientRemainderStep:
    """The d >= 4 loop of ``limit_bound`` carries -3t = q k + r, 0 <= r < k."""

    @pytest.mark.parametrize("t", QR_T)
    @pytest.mark.parametrize("k", QR_K)
    def test_one_step_is_recursion_step(self, t, k):
        q, r = divmod(-3 * t, k)
        assert -(q * k + r) // 3 == t
        w = q + q + r
        q, r = q + w // (k + 1), w % (k + 1)
        assert 0 <= r < k + 1
        assert q * (k + 1) + r == -3 * recursion_step(t, k + 2)
        assert -(q * (k + 1) + r) // 3 == recursion_step(t, k + 2)


def t_form_checkpoints(d, ns):
    """t_n at each n of ``ns`` (ascending) by the plain loop t -= -3t // k."""
    t, n, out = 1, base_case(d), []
    for stop in ns:
        for k in range(n - 2, stop - 2):
            t -= -3 * t // k
        n = stop
        out.append(t)
    return out


class TestDigitHandOver:
    @pytest.mark.parametrize("digit_bound", [1, 1 << 2, 1 << 8])
    @pytest.mark.parametrize("d", range(4, 9))
    @pytest.mark.parametrize("extra", [7, 200, 2500])
    @pytest.mark.parametrize("record_count", [10, 200])
    def test_low_bound_matches_reference(self, digit_bound, d, extra, record_count, monkeypatch):
        n_max = base_case(d) + extra
        records, lower, envelope, monotone = reference_limit_bound(d, n_max, record_count)
        if digit_bound == 1 << 8 and extra == 2500 and d < 8:
            # the quotient starts below the bound and reaches it before n_max
            qs = [abs(-3 * rec.t_n // (rec.n - 2)) for rec in records[:-1]]
            assert qs[0] < digit_bound <= max(qs)
        monkeypatch.setattr(bounds, "DIGIT_BOUND", digit_bound)
        monkeypatch.setattr(bounds, "RECORD_COUNT", record_count)
        res = limit_bound(d, n_max)
        assert list(res.records) == records
        assert res.lower_bound == lower
        assert res.upper_envelope == envelope
        assert res.monotone is monotone is True

    def test_real_bound_at_d4(self):
        # d = 4 reaches |q| = 2^30 near n = 5.2e5, so this run hands over
        res = limit_bound(4, 600_000)
        first, last = res.records[0], res.records[-1]
        assert abs(-3 * first.t_n // (first.n - 2)) < bounds.DIGIT_BOUND
        assert abs(-3 * last.t_n // (last.n - 2)) >= bounds.DIGIT_BOUND
        ts = t_form_checkpoints(4, [rec.n for rec in res.records])
        assert [rec.t_n for rec in res.records] == ts
        assert res.lower_bound == Fraction(ts[-1], binom3(600_000))
        assert res.monotone is True


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLowerBounds:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("dims", [range(5, 6), range(4, 6), range(2, 5), range(2, 9)])
    def test_matches_serial_limit_bound(self, cpus, dims, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        assert lower_bounds(dims, 3000) == [limit_bound(d, 3000).lower_bound for d in dims]
        assert len(forks) == min(cpus, len(dims)) - 1
        assert_no_child_left()

    def test_serial_while_other_threads_run(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a second thread"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            assert lower_bounds([4, 5], 500) == [limit_bound(d, 500).lower_bound for d in (4, 5)]
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_first_failing_base_case_raised_before_forking(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before checking"))
        with pytest.raises(ValueError, match="below the base case 128 for d=7"):
            lower_bounds(range(4, 9), 100)

    def test_float_n_max_refused_before_forking(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before checking"))
        with pytest.raises(TypeError):
            lower_bounds(range(4, 9), 1e5)

    def test_child_error_reaches_the_caller(self, monkeypatch):
        def failing(d, n_max):
            if d == 5:
                raise ArithmeticError("d=5 failed")
            return limit_bound(d, n_max)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(bounds, "limit_bound", failing)
        with pytest.raises(ArithmeticError, match="d=5 failed"):
            lower_bounds([4, 5, 6], 500)
        assert_no_child_left()


class TestAsymptoticAndNaive:
    def test_d2_is_half(self):
        assert asymptotic_bound(2) == Fraction(1, 2)

    def test_d8(self):
        assert asymptotic_bound(8) == Fraction(3, 255 * 254)
        assert asymptotic_bound(8) == Fraction(3, 64770)

    def test_factored_equals_expanded(self):
        for d in range(2, 20):
            m = 2 ** d
            assert asymptotic_bound(d) == Fraction(3, m * m - 3 * m + 2)

    def test_naive_d4(self):
        assert naive_bound(4) == Fraction(1, 560)

    def test_naive_d8_magnitude(self):
        assert float(naive_bound(8)) == pytest.approx(3.6186e-7, rel=1e-3)

    def test_naive_domain(self):
        with pytest.raises(ValueError):
            naive_bound(3)

    def test_recursion_vs_naive_factor_67(self):
        res = limit_bound(8, 10 ** 5)
        ratio = float(res.lower_bound) / float(naive_bound(8))
        assert round(ratio) == 67

    def test_tail_sum_telescopes_exactly(self):
        # sum_{k=m}^{M} 6/(k(k-1)(k-2)) = 3/((m-1)(m-2)) - 3/(M(M-1)), exact
        for m, M in [(4, 100), (16, 1000), (64, 5000)]:
            brute = sum(Fraction(6, k * (k - 1) * (k - 2)) for k in range(m, M + 1))
            assert brute == tail_sum(m, M)
            assert brute == Fraction(3, (m - 1) * (m - 2)) - Fraction(3, M * (M - 1))

    def test_tail_sum_domain(self):
        with pytest.raises(ValueError):
            tail_sum(2, 10)
        with pytest.raises(ValueError):
            tail_sum(10, 5)


class TestSmallCaseRatios:
    def test_four_point_ratio_is_one_quarter(self):
        # one forced obtuse triangle among C(4,3) = 4
        res = limit_bound(2, 4)
        assert res.lower_bound == Fraction(1, 4)

    def test_five_point_ratio_is_three_tenths(self):
        # ceil(5/2) = 3 forced among C(5,3) = 10
        res = limit_bound(2, 5)
        assert res.final.t_n == 3
        assert res.lower_bound == Fraction(3, 10)

    def test_six_points_3d_ratio_is_one_twentieth(self):
        res = limit_bound(3, 6)
        assert res.lower_bound == Fraction(1, 20)
