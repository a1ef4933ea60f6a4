"""Every real parameter of the library goes through one check,
``obtri.bounds._real_in``: a bool, a string or any other non-real raises
TypeError at the call; NaN, an infinity or a value outside the parameter's
interval raises ValueError with one message template; and a numpy float gives
the same result as the equal Python float, stored as that float, so every
report holding it serializes to JSON."""

import json
import math
import re

import numpy as np
import pytest

from obtri import sphere
from obtri.constructions import (
    ArcTripleParams,
    MixtureSampler,
    SelfSimilarParams,
    SingleArcSampler,
    SphereSampler,
    fixed_point_acute,
    mc_self_similar,
)
from obtri.geometry import measure_batch
from obtri.mc import estimate
from obtri.search import SearchParams
from obtri.specfun import betainc, integrate, log_gamma, log_gamma_half_ratio

ARC = {"alpha": 1e-4, "delta": 8e-6, "eps": 0.05}
TRI = np.array([[[0.0, 0.0], [1.0, 0.0], [0.3, 1e-13]], [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]])
INF = math.inf


def arc_params(name):
    return lambda v: getattr(ArcTripleParams(**dict(ARC, **{name: v})), name)


def self_similar_params(name):
    return lambda v: getattr(SelfSimilarParams(**dict({"p": 0.5}, **{name: v})), name)


# name -> (call of the one argument, a valid value, the interval's ends, its
# closed end or None, the argument's name in messages)
SITES = {
    "measure_batch-tol": (lambda t: measure_batch(TRI, tol=t)[0].tolist(), 1e-12, 0.0, INF, 0.0,
                          "tol"),
    "estimate-tol": (lambda t: estimate(SphereSampler(3), 300, seed=1, tol=t).tol, 1e-12, 0.0, INF,
                     0.0, "tol"),
    "mc_self_similar-tol": (lambda t: mc_self_similar(SelfSimilarParams(p=0.5), 300, seed=1,
                                                      tol=t).tol, 1e-15, 0.0, INF, 0.0, "tol"),
    "SearchParams-tol": (lambda t: SearchParams(n=5, d=2, tol=t).tol, 1e-12, 0.0, INF, 0.0, "tol"),
    "log_gamma": (log_gamma, 2.5, 0.0, INF, None, "x"),
    "log_gamma_half_ratio": (log_gamma_half_ratio, 2.5, 0.0, INF, None, "a"),
    "betainc-z": (lambda z: betainc(z, 2.0, 3.0), 0.25, -INF, INF, None, "z"),
    "betainc-a": (lambda a: betainc(0.25, a, 3.0), 2.0, 0.0, INF, None, "a"),
    "betainc-b": (lambda b: betainc(0.25, 2.0, b), 3.0, 0.0, INF, None, "b"),
    "integrate-lo": (lambda lo: integrate(math.cos, lo, 1.0).value, 0.0, -INF, INF, None, "lo"),
    "integrate-hi": (lambda hi: integrate(math.cos, 0.0, hi).value, 1.0, -INF, INF, None, "hi"),
    "integrate-tol": (lambda t: integrate(math.cos, 0.0, 1.0, t).value, 1e-10, 0.0, INF, None,
                      "tol"),
    "obtuse_given_angle-theta": (lambda t: sphere.obtuse_given_angle(t, 3), 1.0, 0.0, math.pi,
                                 None, "theta"),
    # At d = 80 the quadrature scales tol by about 1e-10: the message must
    # still name the value the caller passed.
    "obtuse_prob_sphere-tol": (lambda t: sphere.obtuse_prob_sphere(80, t), 1e-10, 0.0, INF, None,
                               "tol"),
    "ArcTripleParams-alpha": (arc_params("alpha"), 1e-4, 0.0, math.pi / 8.0, None, "alpha"),
    "ArcTripleParams-delta": (arc_params("delta"), 8e-6, 0.0, INF, None, "delta"),
    "ArcTripleParams-eps": (arc_params("eps"), 0.05, 0.0, 1.0, None, "eps"),
    "ArcTripleParams-radius_scale": (arc_params("radius_scale"), 1.0, 0.0, INF, None,
                                     "radius_scale"),
    "fixed_point_acute-p": (fixed_point_acute, 0.8, 0.0, 1.0, None, "p"),
    "SelfSimilarParams-p": (self_similar_params("p"), 0.8, 0.0, 1.0, 1.0, "p"),
    "SelfSimilarParams-rho": (self_similar_params("rho"), 8e-9, 0.0, 1.0, None, "rho"),
    "SelfSimilarParams-cap_half_angle": (self_similar_params("cap_half_angle"), 0.02, 0.0,
                                         math.pi / 4.0, None, "cap_half_angle"),
    "SingleArcSampler-arc_angle": (lambda a: SingleArcSampler(a).arc_angle, 0.5, 0.0, math.pi,
                                   math.pi, "arc_angle"),
    "SingleArcSampler-radius": (lambda r: SingleArcSampler(0.5, r).radius, 2.0, 0.0, INF, None,
                                "radius"),
    "MixtureSampler-weights": (lambda w: MixtureSampler([(w, SingleArcSampler(0.5)),
                                                         (1.0, SingleArcSampler(0.3))]).weights.tolist(),
                               0.25, 0.0, INF, None, "mixture weights"),
}


def message(name, low, high, closed, value):
    ends = f"{'[' if closed == low else '('}{low!r}, {high!r}{']' if closed == high else ')'}"
    return "^" + re.escape(f"{name} must be finite and lie in {ends}, got {value!r}") + "$"


def outside(low, high, closed):
    """The values the check must refuse: NaN, both infinities, each open end
    and the float just beyond a closed end."""
    values = [math.nan, INF, -INF]
    values += [end for end in (low, high) if end != closed and math.isfinite(end)]
    if closed is not None:
        values.append(math.nextafter(closed, -INF if closed == low else INF))
    return values


@pytest.mark.parametrize("call, valid, low, high, closed, name", SITES.values(), ids=SITES)
@pytest.mark.parametrize("value", [True, "0.5", None], ids=repr)
def test_non_real_is_refused(call, valid, low, high, closed, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be a real number, got "):
        call(value)


@pytest.mark.parametrize("call, valid, low, high, closed, name", SITES.values(), ids=SITES)
def test_value_outside_the_interval_is_refused(call, valid, low, high, closed, name):
    for value in outside(low, high, closed):
        with pytest.raises(ValueError, match=message(name, low, high, closed, value)):
            call(value)
    # An int too large for a float lies in no interval.
    with pytest.raises(ValueError, match=message(name, low, high, closed, 10 ** 400)):
        call(10 ** 400)


CLOSED = {site: args for site, args in SITES.items() if args[4] is not None}


@pytest.mark.parametrize("call, valid, low, high, closed, name", CLOSED.values(), ids=CLOSED)
def test_closed_end_is_accepted(call, valid, low, high, closed, name):
    call(closed)  # raises nothing


# (site, a value of another real type): numpy floats everywhere, and a Python
# int where the valid value is integral.
TYPED = [(site, kind(args[1])) for site, args in SITES.items() for kind in (np.float32, np.float64)]
TYPED += [(site, int(args[1])) for site, args in SITES.items() if args[1] == int(args[1])]


@pytest.mark.parametrize("site, value", TYPED, ids=[f"{s}-{type(v).__name__}" for s, v in TYPED])
def test_real_of_any_type_gives_the_float_result(site, value):
    call = SITES[site][0]
    expected = call(float(value))
    got = call(value)
    assert got == expected
    assert type(got) is type(expected)


def test_sphere_tol_error_names_the_callers_value():
    with pytest.raises(ValueError, match=r"^tol must be finite and lie in \(0\.0, inf\), got -1$"):
        sphere.obtuse_prob_sphere(80, tol=-1)


REPORTS = {
    "estimate-tol": lambda f: estimate(SphereSampler(3), 300, seed=1, tol=f(1e-12)).to_dict(),
    "mc_self_similar-p": lambda f: mc_self_similar(SelfSimilarParams(p=f(0.8)), 300,
                                                   seed=1).to_dict(),
    "mc_self_similar-tol": lambda f: mc_self_similar(SelfSimilarParams(p=0.8), 300, seed=1,
                                                     tol=f(1e-15)).to_dict(),
    "ArcTripleParams": lambda f: ArcTripleParams(alpha=f(1e-4), delta=f(8e-6), eps=f(0.05),
                                                 radius_scale=f(1.0)).to_dict(),
    "SelfSimilarParams": lambda f: SelfSimilarParams(p=f(0.8), rho=f(8e-9),
                                                     cap_half_angle=f(0.02)).to_dict(),
    "SearchParams-tol": lambda f: SearchParams(n=5, d=2, tol=f(1e-12)).to_dict(),
}


@pytest.mark.parametrize("report", REPORTS.values(), ids=REPORTS)
@pytest.mark.parametrize("kind", [np.float32, np.float64], ids=["float32", "float64"])
def test_report_of_numpy_floats_is_the_python_report(report, kind):
    # The report holds the checked floats, so it is JSON whatever real type
    # the caller passed, and byte-identical to the report of the equal floats.
    want = json.dumps(report(lambda v: float(kind(v))))
    assert json.dumps(report(kind)) == want
