from fractions import Fraction

import pytest

from obtri import bounds
from obtri.bounds import (
    BoundRecord,
    asymptotic_bound,
    base_case,
    binom3,
    closed_form_2d,
    closed_form_3d,
    K_TABLE,
    limit_bound,
    naive_bound,
    records_to_csv,
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


class TestBaseCases:
    def test_values(self):
        assert base_case(2) == 4
        assert base_case(3) == 6
        assert base_case(4) == 16
        assert base_case(8) == 256

    def test_domain(self):
        with pytest.raises(ValueError):
            base_case(1)


class TestLimitBound:
    def test_planar_matches_closed_form(self):
        res = limit_bound(2, 2000)
        assert res.final.t_n == closed_form_2d(2000)
        assert res.lower_bound == Fraction(closed_form_2d(2000), binom3(2000))

    def test_3d_matches_closed_form(self):
        res = limit_bound(3, 2000)
        assert res.final.t_n == closed_form_3d(2000)

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

    def test_csv_rendering(self, monkeypatch):
        monkeypatch.setattr(bounds, "RECORD_COUNT", 5)
        text = records_to_csv(limit_bound(2, 50).records)
        lines = text.strip().splitlines()
        assert lines[0] == "d,n,t_n,ratio_exact_num,ratio_exact_den,ratio_float"
        assert lines[1].startswith("2,4,1,")


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
