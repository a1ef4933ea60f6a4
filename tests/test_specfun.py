import json
import math

import numpy as np
import pytest

from obtri import specfun
from obtri.specfun import (
    NumericalError,
    betainc,
    integrate,
    log_beta,
    log_gamma,
    log_gamma_half_ratio,
)


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_gamma_five(self):
        # Gamma(5) = 4! = 24
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 40, 120])
    def test_integer_factorials(self, n):
        assert log_gamma(float(n)) == pytest.approx(math.lgamma(n), rel=1e-13)

    def test_recurrence(self, rng):
        # Gamma(x+1) = x Gamma(x), i.e. log identity, across the range used.
        for x in rng.uniform(0.05, 500.0, size=200):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_half_integer_closed_form(self):
        # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
        for n in (1, 2, 5, 10, 30):
            expected = (math.lgamma(2 * n + 1) - n * math.log(4.0)
                        - math.lgamma(n + 1) + 0.5 * math.log(math.pi))
            assert log_gamma(n + 0.5) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    @pytest.mark.parametrize("x", [5e-324, 1e-310])
    def test_subnormal_is_finite(self, x):
        # log Γ(x) ~ -log x near 0; a reflection through π / sin(πx)
        # overflows to inf here.
        assert math.isfinite(log_gamma(x))
        assert log_gamma(x) == math.lgamma(x)

    def test_overflow_is_inf(self):
        assert log_gamma(1.7e308) == math.inf


class TestLogGammaHalfRatio:
    """log(Γ(a + 1/2) / Γ(a)), the sphere normalizers' only a-dependent part."""

    # Quarter steps up to 20 (the series takes over at a = 8), then coarser
    # out to a = 991.5, the d = 1984 sphere.
    GRID = [k / 4 for k in range(1, 81)] + [20.0 + 7.25 * k for k in range(1, 135)]

    def test_series_coefficients_are_sympys(self):
        sp = pytest.importorskip("sympy")
        x = sp.symbols("x", positive=True)
        n = len(specfun._HALF_RATIO_SERIES)
        series = sp.series(sp.loggamma(x + sp.Rational(1, 2)) - sp.loggamma(x) - sp.log(x) / 2,
                           x, sp.oo, 2 * n + 3).removeO()
        coefficients = [float(series.coeff(x, 1 - 2 * k)) for k in range(1, n + 2)]
        assert list(specfun._HALF_RATIO_SERIES) == coefficients[:n]
        # The first omitted term is below one ulp where the series takes over.
        a = specfun._HALF_RATIO_MIN
        assert abs(coefficients[n]) * a ** (-2 * n - 1) < math.ulp(log_gamma_half_ratio(a))

    def test_against_40_digit_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for a in self.GRID:
                ratio = mp.loggamma(mp.mpf(a) + 0.5) - mp.loggamma(a)
                assert abs(log_gamma_half_ratio(a) - ratio) <= 5e-15, a

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma_half_ratio(bad)


class TestRegIncBeta:
    def test_uniform_case(self, rng):
        for z in rng.random(50):
            assert betainc(z, 1.0, 1.0) == pytest.approx(z, abs=1e-14)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.5, 7.0, 40.0])
    def test_symmetric_half(self, a):
        assert betainc(0.5, a, a) == pytest.approx(0.5, abs=1e-13)

    def test_closed_form_a1(self, rng):
        # I_z(1, 1/2) = 1 - sqrt(1 - z)
        for z in rng.random(50):
            assert betainc(z, 1.0, 0.5) == pytest.approx(1.0 - math.sqrt(1.0 - z), abs=1e-13)

    def test_value_at_half_a1_bhalf(self):
        assert betainc(0.5, 1.0, 0.5) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-13)

    def test_endpoints(self):
        assert betainc(0.0, 3.0, 0.5) == 0.0
        assert betainc(1.0, 3.0, 0.5) == 1.0

    def test_reflection_identity(self, rng):
        # I_z(a, b) + I_{1-z}(b, a) = 1
        for _ in range(200):
            z = rng.random()
            a = rng.uniform(0.1, 50.0)
            b = rng.uniform(0.1, 50.0)
            total = betainc(z, a, b) + betainc(1.0 - z, b, a)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_z(self):
        a, b = 3.5, 0.5
        vals = [betainc(z, a, b) for z in np.linspace(0.0, 1.0, 101)]
        assert all(y2 >= y1 - 1e-15 for y1, y2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 5.5])
    def test_against_quadrature_oracle(self, a):
        # Direct numerical integration of the beta density as an
        # implementation-independent oracle.  The substitution t = s**2
        # removes the t^(a-1) endpoint singularity for a < 1.
        b = 0.5
        log_b = log_gamma(a) + log_gamma(b) - log_gamma(a + b)

        def density_subst(s):
            if s <= 0.0:
                # limit of 2 s^(2a-1) (1-s^2)^(b-1) / B as s -> 0
                return 2.0 * math.exp(-log_b) if a == 0.5 else 0.0
            t = s * s
            return 2.0 * math.exp((2.0 * a - 1.0) * math.log(s)
                                  + (b - 1.0) * math.log1p(-t) - log_b)

        z = 0.7
        oracle = integrate(density_subst, 0.0, math.sqrt(z), 1e-11).value
        assert betainc(z, a, b) == pytest.approx(oracle, abs=1e-9)

    def test_clamping_and_validation(self):
        assert betainc(-1e-18, 2.0, 2.0) == 0.0
        assert betainc(1.0 + 1e-16, 2.0, 2.0) == 1.0
        with pytest.raises(ValueError):
            betainc(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            betainc(0.5, 1.0, 0.0)

    def test_subnormal_a(self):
        # I_0.3(a, 1/2) -> 1 as a -> 0; the true value at a = 1e-320 is 1.0.
        assert betainc(0.3, 1e-320, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_precomputed_log_beta_is_bit_identical(self, rng):
        # Both sides of the symmetry switch use log B(a, b) of the caller's (a, b).
        for a in (0.5, 1.5, 39.5):
            lbeta = log_beta(a, 0.5)
            for z in rng.uniform(0.0, 1.0, size=40):
                assert betainc(z, a, 0.5, lbeta) == betainc(z, a, 0.5)

    def test_nonconvergence_reports_arguments(self, monkeypatch):
        monkeypatch.setattr(specfun, "_BETA_MAX_ITER", 1)
        with pytest.raises(NumericalError) as err:
            betainc(0.3, 5.0, 5.0)
        ctx = err.value.context
        assert ctx["a"] == 5.0 and ctx["b"] == 5.0


class TestIntegrate:
    def test_sin(self):
        res = integrate(math.sin, 0.0, math.pi, 1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_sin_squared(self):
        res = integrate(lambda t: math.sin(t) ** 2, 0.0, math.pi, 1e-10)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_wallis_d5(self):
        # integral of sin^3 over (0, pi) = 4/3, the d = 5 angle normalizer
        res = integrate(lambda t: math.sin(t) ** 3, 0.0, math.pi, 1e-11)
        assert res.value == pytest.approx(4.0 / 3.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate(math.sin, 1.0, 1.0).value == 0.0

    def test_error_bound_reported(self):
        res = integrate(lambda t: math.exp(-t * t), 0.0, 3.0, 1e-9)
        assert res.error_bound <= 1e-9
        assert res.evaluations > 0

    def test_deterministic(self):
        f = lambda t: math.cos(3.0 * t) ** 2 + t
        r1 = integrate(f, 0.0, 2.0, 1e-10)
        r2 = integrate(f, 0.0, 2.0, 1e-10)
        assert r1.value == r2.value

    def test_budget_exhaustion_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_DEPTH", 6)
        with pytest.raises(NumericalError) as err:
            integrate(lambda t: abs(t - math.sqrt(0.5)) ** 0.1, 0.0, 1.0, 1e-300)
        assert err.value.best is not None

    def test_evaluation_budget(self, monkeypatch):
        f = lambda t: math.cos(50.0 * t)
        exact = math.sin(200.0) / 50.0
        # Within the default budget: about 2,900 evaluations reach tol.
        res = integrate(f, 0.0, 4.0, 1e-12)
        assert res.evaluations < specfun.MAX_EVALUATIONS
        assert res.value == pytest.approx(exact, abs=1e-10)
        monkeypatch.setattr(specfun, "MAX_EVALUATIONS", 500)
        with pytest.raises(NumericalError) as err:
            integrate(f, 0.0, 4.0, 1e-12)
        # Panels still open when the budget runs out are not refined further:
        # at most one more 15-point panel per level of the open recursion path.
        assert 500 <= err.value.context["evaluations"] <= 500 + 15 * 61
        assert math.isfinite(err.value.best)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, float("inf"), 1e-8)
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, -1.0)
        # NaN fails every comparison, and an infinite tolerance would accept
        # the first panel whatever its error.
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be finite"):
                integrate(math.sin, 0.0, 1.0, tol)


class TestJsonFixtures:
    """Frozen (input, expected, tolerance, note) tables; every expected value
    was derived independently of this implementation (closed forms, exact
    integer factorials, polynomial antiderivatives)."""

    @staticmethod
    def fixtures():
        import pathlib
        path = pathlib.Path(__file__).parent / "data" / "specfun_fixtures.json"
        return json.loads(path.read_text())

    def test_log_gamma_table(self):
        for row in self.fixtures()["log_gamma"]:
            got = log_gamma(row["input"])
            assert got == pytest.approx(row["expected"], abs=row["tol"]), row["note"]

    def test_reg_inc_beta_table(self):
        for row in self.fixtures()["reg_inc_beta"]:
            args = row["input"]
            got = betainc(args["z"], args["a"], args["b"])
            assert got == pytest.approx(row["expected"], abs=row["tol"]), row["note"]

    def test_integrate_table(self):
        functions = {
            "sin": math.sin,
            "sin2": lambda t: math.sin(t) ** 2,
            "sin3": lambda t: math.sin(t) ** 3,
            "poly": lambda t: t ** 3 + 1.0,
        }
        for row in self.fixtures()["integrate"]:
            args = row["input"]
            got = integrate(functions[args["f"]], args["lo"], args["hi"], 1e-11).value
            assert got == pytest.approx(row["expected"], abs=row["tol"]), row["note"]
