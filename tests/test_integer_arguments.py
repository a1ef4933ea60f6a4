"""Every count and dimension argument of the library goes through one check,
``obtri.bounds._int_at_least``: a float or a bool raises TypeError at the
call, a value below the argument's floor raises ValueError, and a numpy
integer gives the same value, of the same type, as the equal Python int.
The last point is what keeps the exact bounds exact: int64 arithmetic would
wrap."""

import json

import numpy as np
import pytest

from obtri import sphere
from obtri.bounds import (
    asymptotic_bound,
    base_case,
    closed_form_2d,
    closed_form_3d,
    limit_bound,
    naive_bound,
    recursion_step,
    tail_sum,
)
from obtri.constructions import (
    ArcTripleParams,
    ArcTripleSampler,
    SelfSimilarParams,
    SelfSimilarSampler,
    SphereSampler,
    arc_triple_pattern_report,
    fixed_point_scan,
    mc_self_similar,
)
from obtri.geometry import Configuration
from obtri.mc import SeedPolicy, _chunk_bounds, estimate, wilson_interval
from obtri.search import SearchParams, search_min

DEMO = ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)


def rng():
    return np.random.default_rng(0)


def chunk_lists(stream):
    return [chunk.tolist() for chunk in stream]


# name -> (call of the one argument, a valid value, the argument's floor, its name in messages)
SITES = {
    "base_case": (base_case, 5, 2, "dimension"),
    "recursion_step-t": (lambda t: recursion_step(t, 10 ** 4), 10 ** 15, 0, "t"),
    "recursion_step-n": (lambda n: recursion_step(10 ** 15, n), 10 ** 4, 3, "n"),
    "closed_form_2d": (closed_form_2d, 3 * 10 ** 6, 4, "n"),
    "closed_form_3d": (closed_form_3d, 3 * 10 ** 6, 6, "n"),
    "asymptotic_bound": (asymptotic_bound, 40, 2, "dimension"),
    "naive_bound": (naive_bound, 30, 4, "dimension"),
    "tail_sum-m": (lambda m: tail_sum(m, 4 * 10 ** 9), 3 * 10 ** 9, 3, "m"),
    "tail_sum-M": (lambda M: tail_sum(3 * 10 ** 9, M), 4 * 10 ** 9, 3 * 10 ** 9, "M"),
    "limit_bound-d": (lambda d: limit_bound(d, 300).lower_bound, 5, 2, "dimension"),
    "limit_bound-n_max": (lambda n: limit_bound(5, n).lower_bound, 300, 0, "n_max"),
    "obtuse_given_angle": (lambda d: sphere.obtuse_given_angle(1.0, d), 5, 2, "dimension"),
    "obtuse_prob_sphere": (sphere.obtuse_prob_sphere, 5, 2, "dimension"),
    "laplace_sphere": (sphere.laplace_sphere, 5, 2, "dimension"),
    "asymptotic_sphere": (sphere.asymptotic_sphere, 5, 2, "dimension"),
    "sample_sphere-d": (lambda d: sphere.sample_sphere(d, rng(), 4).tolist(), 3, 2, "dimension"),
    "sample_sphere-n": (lambda n: sphere.sample_sphere(3, rng(), n).tolist(), 4, 1, "n"),
    "sphere_chunks-d": (lambda d: chunk_lists(sphere.sphere_chunks(d, rng(), 5, 2)), 3, 2, "dimension"),
    "sphere_chunks-n": (lambda n: chunk_lists(sphere.sphere_chunks(3, rng(), n, 2)), 5, 0, "n"),
    "sphere_chunks-rows": (lambda r: chunk_lists(sphere.sphere_chunks(3, rng(), 5, r)), 2, 1,
                           "chunk rows"),
    "SphereSampler": (lambda d: SphereSampler(d).dim, 4, 2, "dimension"),
    "SelfSimilarParams.max_depth": (lambda m: SelfSimilarParams(p=0.5, max_depth=m).to_dict(),
                                    12, 0, "max_depth"),
    "arc_triple_pattern_report": (lambda n: arc_triple_pattern_report(DEMO, n, seed=1).to_csv(),
                                  20, 1, "samples_per_pattern"),
    # The scan's p values, with their types: a numpy count once gave np.float64 ones.
    "fixed_point_scan": (lambda n: [(type(p), p) for p, _ in fixed_point_scan(n)], 9, 1,
                         "scan points"),
    "_count_strata-samples": (lambda s: estimate(SphereSampler(3), s, seed=1).counts, 300, 1,
                              "samples"),
    "_count_strata-workers": (lambda w: estimate(SphereSampler(3), 300, seed=1, workers=w,
                                                 shard_size=100).counts, 2, 1, "workers"),
    "SeedPolicy.shard_size": (lambda s: estimate(SphereSampler(3), 300, seed=1,
                                                 shard_size=s).counts, 100, 1, "shard_size"),
    "_chunk_bounds-n": (lambda n: _chunk_bounds(n, 4), 10, 0, "n"),
    "_chunk_bounds-rows": (lambda r: _chunk_bounds(10, r), 4, 1, "chunk rows"),
    "wilson_interval-successes": (lambda s: wilson_interval(s, 10), 3, 0, "successes"),
    "wilson_interval-trials": (lambda t: wilson_interval(3, t), 10, 1, "trials"),
    "SearchParams-n": (lambda n: SearchParams(n=n, d=2).to_dict(), 5, 3, "n"),
    "SearchParams-d": (lambda d: SearchParams(n=5, d=d).to_dict(), 3, 2, "d"),
    "SearchParams-iterations": (lambda i: SearchParams(n=5, d=2, iterations=i).to_dict(), 7, 1,
                                "iterations"),
    "SearchParams-restarts": (lambda r: SearchParams(n=5, d=2, restarts=r).to_dict(), 2, 1,
                              "restarts"),
}


@pytest.mark.parametrize("call, valid, low, name", SITES.values(), ids=SITES)
def test_float_is_refused(call, valid, low, name):
    with pytest.raises(TypeError):
        call(float(valid))


@pytest.mark.parametrize("call, valid, low, name", SITES.values(), ids=SITES)
def test_bool_is_refused(call, valid, low, name):
    # A bool is an int subclass, so operator.index alone would take True as 1.
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got True$"):
        call(True)


@pytest.mark.parametrize("call, valid, low, name", SITES.values(), ids=SITES)
def test_value_below_the_floor_is_refused(call, valid, low, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        call(low - 1)


@pytest.mark.parametrize("call, valid, low, name", SITES.values(), ids=SITES)
def test_numpy_integer_gives_the_python_result(call, valid, low, name):
    expected = call(valid)
    got = call(np.int64(valid))
    assert got == expected
    assert type(got) is type(expected)
    if isinstance(expected, dict):
        assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]


def test_configuration_dimension_floor():
    # A configuration's dimension is its points' column count, so only the floor can fail.
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        Configuration(np.array([[0.0], [1.0], [2.0]]))


STREAMS = {
    "sphere_chunks": lambda g, rows: sphere.sphere_chunks(3, g, 10, rows),
    "ArcTripleSampler.sample_chunks": lambda g, rows: ArcTripleSampler(DEMO).sample_chunks(g, 10, rows),
    "SelfSimilarSampler.sample_chunks":
        lambda g, rows: SelfSimilarSampler(SelfSimilarParams(p=0.5)).sample_chunks(g, 10, rows),
    "SelfSimilarSampler.level_chunks":
        lambda g, rows: SelfSimilarSampler(SelfSimilarParams(p=0.5)).level_chunks(g, 10, rows),
}


@pytest.mark.parametrize("stream", STREAMS.values(), ids=STREAMS)
def test_chunk_streams_check_at_the_call_and_draw_at_next(stream):
    with pytest.raises(ValueError, match="chunk rows"):
        stream(rng(), 0)
    with pytest.raises(TypeError):
        stream(rng(), 2.5)
    g = rng()
    state = g.bit_generator.state
    chunks = stream(g, 4)
    assert g.bit_generator.state == state  # nothing is drawn before the first chunk
    next(chunks)
    assert g.bit_generator.state != state


# A master seed is an integer in [0, 2^64): the Monte Carlo engine's
# SeedPolicy checks it for every seeded entry point and stores it as an int.
SEEDED = {
    "SeedPolicy": lambda s: SeedPolicy(master_seed=s).master_seed,
    "SearchParams": lambda s: SearchParams(n=5, d=2, seed=s).seed,
    "estimate": lambda s: estimate(SphereSampler(3), 300, seed=s).seed,
    "mc_self_similar": lambda s: mc_self_similar(SelfSimilarParams(p=0.5), 300, seed=s).seed,
    "arc_triple_pattern_report": lambda s: arc_triple_pattern_report(DEMO, 20, seed=s).seed,
}


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
def test_float_seed_is_refused_at_the_call(call):
    with pytest.raises(TypeError):
        call(1.5)
    with pytest.raises(TypeError):
        call(7.0)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_is_refused(call, seed):
    with pytest.raises(ValueError, match="^master seed must fit in 64 bits$"):
        call(seed)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.uint64(2 ** 64 - 1)])
def test_numpy_seed_is_stored_as_the_int(call, seed):
    got = call(seed)
    assert got == int(seed) and type(got) is int


def test_numpy_seed_gives_the_python_counts():
    for seed in (np.int64(7), np.uint64(7)):
        assert estimate(SphereSampler(3), 300, seed=seed).counts == \
            estimate(SphereSampler(3), 300, seed=7).counts
        report = mc_self_similar(SelfSimilarParams(p=0.5), 300, seed=seed)
        assert report.to_dict() == mc_self_similar(SelfSimilarParams(p=0.5), 300, seed=7).to_dict()
        found = search_min(SearchParams(n=5, d=2, iterations=50, restarts=2, seed=seed))
        want = search_min(SearchParams(n=5, d=2, iterations=50, restarts=2, seed=7))
        assert found.to_dict() == want.to_dict()
        assert found.best.points.tobytes() == want.best.points.tobytes()


REPORTS = {
    "estimate": lambda n, s, k: estimate(SphereSampler(3), n, seed=s, shard_size=k).to_dict(),
    "mc_self_similar": lambda n, s, k: mc_self_similar(SelfSimilarParams(p=0.5), n, seed=s,
                                                       shard_size=k).to_dict(),
}


@pytest.mark.parametrize("report", REPORTS.values(), ids=REPORTS)
def test_report_of_numpy_integers_is_the_python_report(report):
    # The report holds the checked ints, so it is JSON whatever integer
    # type the caller passed, and byte-identical to the Python-int report.
    want = json.dumps(report(300, 1, 100))
    assert json.dumps(report(np.int64(300), np.uint64(1), np.int64(100))) == want
