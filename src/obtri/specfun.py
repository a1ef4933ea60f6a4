"""Self-contained special functions and 1-D quadrature.

Provides exactly what the spherical-cap model needs and nothing more:
``log_gamma``, the regularized incomplete beta function ``I_z(a, b)``, and an
adaptive Gauss-Kronrod integrator for smooth integrands on a finite interval.
Everything here is plain Python floats; there are no external numerical
dependencies, so results are reproducible bit-for-bit across platforms that
implement IEEE-754 doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NumericalError(RuntimeError):
    """A numerical routine failed to converge within its budget.

    Carries enough context to reproduce the failing call; ``best`` holds the
    last estimate when one exists (quadrature), else ``None``.
    """

    def __init__(self, message: str, *, context: dict | None = None, best: float | None = None):
        super().__init__(message)
        self.context = context or {}
        self.best = best


# Lanczos coefficients, g = 7, n = 9.  Relative error below 1e-15 for x > 0.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Lanczos approximation; relative error is a few ulp over the whole
    positive axis, comfortably below the 1e-13 the beta normalizer needs.

    Raises:
        ValueError: if x <= 0 or x is not finite.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # Reflection keeps the Lanczos series in its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


# log(Γ(a + 1/2) / Γ(a)) ~ (1/2) log a + sum of c_k a^(1 - 2k), k = 1..8: the
# coefficients of sympy's series of that difference at a = oo (the test
# re-derives them).  From _HALF_RATIO_MIN on, the first omitted term is below
# one ulp of the result; below it, the difference of two log_gamma calls is
# accurate to a few 1e-15.
_HALF_RATIO_SERIES = (-1/8, 1/192, -1/640, 17/14336, -31/18432, 691/180224, -5461/425984,
                      929569/15728640)
_HALF_RATIO_MIN = 8.0


def log_gamma_half_ratio(a: float) -> float:
    """log(Γ(a + 1/2) / Γ(a)) for a > 0, within 5e-15 absolute at every a.

    The two log-gammas grow like a log a while their difference grows like
    (1/2) log a, so subtracting them loses digits as a grows (up to 1.7e-12
    for a <= 1000); from ``_HALF_RATIO_MIN`` on the difference is summed
    directly as its asymptotic series in 1/a.
    """
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"log_gamma_half_ratio requires a > 0, got {a!r}")
    if a < _HALF_RATIO_MIN:
        return log_gamma(a + 0.5) - log_gamma(a)
    t = 1.0 / (a * a)
    acc = 0.0
    for c in reversed(_HALF_RATIO_SERIES):
        acc = acc * t + c
    return 0.5 * math.log(a) + acc / a


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Γ(a) + log Γ(b) − log Γ(a+b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


_BETA_EPS = 1e-16
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 500


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge in {_BETA_MAX_ITER} iterations",
        context={"z": x, "a": a, "b": b},
    )


def betainc(z: float, a: float, b: float, lbeta: float | None = None) -> float:
    """Regularized incomplete beta function I_z(a, b) on [0, 1].

    Continued-fraction evaluation with the symmetry switch
    I_z(a, b) = 1 − I_{1−z}(b, a) applied when z > (a+1)/(a+b+2), which keeps
    the fraction in its rapidly-converging regime.  Absolute error is a few
    ulp (well under 1e-12) across the parameter ranges used here.  A caller
    evaluating many z at fixed (a, b) may pass ``lbeta = log_beta(a, b)``
    once instead of having it recomputed on every call.

    Raises:
        ValueError: if a or b is not finite and > 0, or z is not finite.
        NumericalError: if the continued fraction fails to converge; the
            exception context carries (z, a, b).
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"a must be finite and > 0, got {a!r}")
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"b must be finite and > 0, got {b!r}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    # z is clamped to [0, 1]; values outside by rounding error are fine.
    z = min(1.0, max(0.0, z))
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return 1.0
    if lbeta is None:
        lbeta = log_beta(a, b)
    front = math.exp(a * math.log(z) + b * math.log1p(-z) - lbeta)
    if z < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, z) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - z) / b


@dataclass(frozen=True)
class QuadratureResult:
    """Adaptive quadrature output: the estimate and the achieved error bound."""

    value: float
    error_bound: float
    evaluations: int


# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK ``qk15``, Piessens et al.
# 1983).  ``_XGK`` are the Kronrod abscissae from the outermost inwards; the
# odd-indexed ones (0.949..., 0.741..., 0.405..., and the centre) are the
# 7-point Gauss nodes, with weights ``_WG``.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTRE = 0.417959183673469387755102040816327
_GK_NODES = 15


# Integrand evaluations one ``integrate`` call may spend.  A noisy integrand
# can fail both stopping criteria on ever smaller panels, which would
# otherwise bisect for hours.  The sphere quadrature needs 615 evaluations at
# d = 80 and at most 855 for any d <= 1000.
MAX_EVALUATIONS = 250_000
MAX_DEPTH = 60  # bisection levels: a panel 2^-60 of the interval is below double resolution


def integrate(f, lo: float, hi: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Gauss-Kronrod 7-15 integration of ``f`` over [lo, hi].

    Each panel is integrated by the 15-point Kronrod rule and the embedded
    7-point Gauss rule; |K15 - G7| is the panel's error.  A panel is accepted
    when that error is within its local tolerance, or at the roundoff floor
    of the panel's absolute integral; otherwise it is bisected and each half
    gets half the tolerance.  The refinement rule is deterministic, so the
    result does not depend on evaluation order.

    Raises:
        ValueError: on invalid bounds or tolerance.
        NumericalError: if the ``MAX_DEPTH`` or the ``MAX_EVALUATIONS`` budget
            is exhausted before reaching ``tol``; the exception carries the
            best estimate so far (for the evaluation budget, of the whole
            integral: panels still open when the budget runs out keep their
            current estimate).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got [{lo!r}, {hi!r}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0)

    evals = [0]
    exhausted = [False]

    def ev(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"integrand returned non-finite value {y!r} at x={x!r}")
        return y

    def recurse(a: float, b: float, eps: float, depth: int):
        centre = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fc = ev(centre)
        kronrod = _WGK_CENTRE * fc
        gauss = _WG_CENTRE * fc
        absolute = _WGK_CENTRE * abs(fc)
        for j, x in enumerate(_XGK):
            f1 = ev(centre - half * x)
            f2 = ev(centre + half * x)
            kronrod += _WGK[j] * (f1 + f2)
            absolute += _WGK[j] * (abs(f1) + abs(f2))
            if j % 2:
                gauss += _WG[j // 2] * (f1 + f2)
        evals[0] += _GK_NODES
        value = kronrod * half
        err = abs((kronrod - gauss) * half)
        # Second criterion: stop when the error is at the roundoff floor of
        # the panel's absolute integral, where further bisection cannot help.
        floor = 1e-15 * abs(absolute * half) + 1e-300
        if err <= eps or err <= floor:
            return value, err
        if evals[0] >= MAX_EVALUATIONS:
            exhausted[0] = True
            return value, err
        if depth <= 0:
            raise NumericalError(
                "adaptive quadrature depth budget exhausted",
                context={"lo": lo, "hi": hi, "tol": tol, "interval": (a, b)},
                best=value,
            )
        half_eps = 0.5 * eps
        lv, le = recurse(a, centre, half_eps, depth - 1)
        rv, re = recurse(centre, b, half_eps, depth - 1)
        return lv + rv, le + re

    value, err = recurse(lo, hi, tol, MAX_DEPTH)
    if exhausted[0]:
        raise NumericalError(
            f"adaptive quadrature evaluation budget exhausted after {evals[0]} evaluations; "
            f"best estimate {value!r}, error estimate {err:.3g}",
            context={"lo": lo, "hi": hi, "tol": tol, "evaluations": evals[0]},
            best=value,
        )
    return QuadratureResult(value, err, evals[0])
