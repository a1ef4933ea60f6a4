"""Layer microbenchmarks on fixed inputs, outside the workloads.

``run_suite`` calls each layer once on inputs that depend on neither the
workload nor its seed, and returns the time of each call.  Untraced, its
repetitions give each layer a clean number; traced, one repetition makes
every layer appear in the traced run of every workload.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from obtri import bounds, constructions, geometry, mc, search, sphere

from config import SIZES, build_samplers

SUITE_SEED = 20250826

# Sampler kinds, and the dimension at which each one's shard is classified.
KINDS = {"sphere_d3": 3, "sphere_d10": 10, "arc_triple": 2, "self_similar": None}


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def run_suite(sizing: str) -> dict[str, float]:
    """One pass over every layer; returns seconds per call, keyed by input."""
    size = SIZES[sizing]
    triples = size["suite_triples"]
    times = {}
    for kind, sampler in build_samplers(KINDS).items():
        rng = np.random.Generator(np.random.PCG64(SUITE_SEED))
        times[f"sample.{kind}"], pts = _timed(sampler.sample, rng, 3 * triples)
        dim = KINDS[kind]
        if dim is not None:
            tri = pts.reshape(triples, 3, dim)
            times[f"classify.d{dim}"], codes = _timed(geometry.classify_batch, tri[:, 0], tri[:, 1], tri[:, 2])
            if codes.shape != (triples,):
                raise RuntimeError(f"classify_batch returned shape {codes.shape}")

    times["limit_bound"], res = _timed(bounds.limit_bound, 2, size["suite_n_max"])
    if not res.monotone:
        raise RuntimeError("limit_bound reported a non-monotone trajectory")

    for d in (3, 10, 80):
        times[f"sphere.d{d}"], _ = _timed(sphere.obtuse_prob_sphere, d)

    for n in (7, 20):
        params = search.SearchParams(n=n, d=2, iterations=size["suite_search_iterations"],
                                     restarts=1, seed=SUITE_SEED)
        times[f"search.n{n}"], _ = _timed(search.search_min, params)

    points = np.random.default_rng(SUITE_SEED).standard_normal((size["suite_config_points"], 3))
    times["count_classes"], _ = _timed(geometry.count_classes, geometry.Configuration(points=points))

    sampler = constructions.SphereSampler(3)
    for workers in (1, 2):
        times[f"estimate.w{workers}"], _ = _timed(
            mc.estimate, sampler, size["suite_estimate_samples"], SUITE_SEED,
            workers=workers, shard_size=size["suite_estimate_shard"])
    return times


def suite_metrics(sizing: str, reps: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer rates from the fastest of the untraced suite repetitions."""
    size = SIZES[sizing]
    t = {key: min(r[key] for r in reps) for key in reps[0]}
    triples = size["suite_triples"]
    moves = size["suite_search_iterations"]
    out = {f"constructions.sample.points_per_s.{kind}": 3 * triples / t[f"sample.{kind}"] for kind in KINDS}
    out.update({f"geometry.classify_batch.triples_per_s.d{d}": triples / t[f"classify.d{d}"]
                for d in (2, 3, 10)})
    # The d = 2 recursion starts at n = 4.
    out["bounds.limit_bound.steps_per_s"] = (size["suite_n_max"] - 4) / t["limit_bound"]
    out.update({f"sphere.obtuse_prob_sphere.s.d{d}": t[f"sphere.d{d}"] for d in (3, 10, 80)})
    out.update({f"search.search_min.us_per_move.n{n}": 1e6 * t[f"search.n{n}"] / moves for n in (7, 20)})
    out["mc.estimate.parallel_efficiency"] = t["estimate.w1"] / (2.0 * t["estimate.w2"])
    return out
