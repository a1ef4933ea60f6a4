"""Bit-identity of samplers, the triangle-measure kernel and seeded counts.

``tests/data/sampler_fixtures.json`` holds SHA-256 digests of sampler output
and kernel output, and seeded Monte Carlo results, all taken from the code
before any of the sampling speed-ups; the arc-pattern report entry was
taken before that report moved onto the shard engine of ``obtri.mc``.  A
faster sampler or kernel must reproduce every digest: the same RNG draws, in
the same order, through the same per-element formulas.

Regenerate (only for a deliberate, flagged change of the draw order or of a
formula) with ``PYTHONPATH=src python tests/test_sampler_fixtures.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from obtri.constructions import (
    ArcTripleParams,
    DistributionSpec,
    SelfSimilarParams,
    arc_triple_pattern_report,
    build_sampler,
    mc_self_similar,
)
from obtri.geometry import _coordinate_measures, _triangle_area, measure_batch
from obtri.mc import estimate

FIXTURES = pathlib.Path(__file__).parent / "data" / "sampler_fixtures.json"

METHOD = (
    "Generated by running this file (PYTHONPATH=src python tests/test_sampler_fixtures.py) "
    "on commit e461952, before the samplers gathered per-point arc parameters. "
    "A sampler digest is the SHA-256 of, for each returned array, its dtype string, "
    "its shape and its C-order bytes, followed by the next two raw 64-bit draws of the "
    "generator (so the number of draws is pinned too); the generator is "
    "numpy.random.default_rng(seed). n = 1, 7, 3 * 4099 and 3 * 65536 + 1 points: at "
    "n = 1 two of the three arcs get no point, and the largest n spans several "
    "evaluation blocks of the samplers. measure_batch digests cover codes, min_abs and scale "
    "of random triples plus needle, collinear and coincident ones (tol 1e-12), and "
    "the triangle areas of the same triples. "
    "estimate counts and mc_self_similar(...).to_dict() are stored as plain JSON."
)

ARC_BENCH = {"alpha": 1e-4, "delta": 8e-6, "eps": 0.05}
ARC_PINNED = {"alpha": 1e-2, "delta": 1e-3, "eps": 1e-2}
P_STAR = 0.805187

# (name, spec, method)
SAMPLER_CASES = [
    ("sphere_d2", {"kind": "sphere", "params": {"d": 2}}, "sample"),
    ("sphere_d3", {"kind": "sphere", "params": {"d": 3}}, "sample"),
    ("sphere_d10", {"kind": "sphere", "params": {"d": 10}}, "sample"),
    ("arc_triple_bench", {"kind": "arc_triple", "params": ARC_BENCH}, "sample"),
    ("arc_triple_pinned", {"kind": "arc_triple", "params": ARC_PINNED}, "sample"),
    ("self_similar", {"kind": "self_similar", "params": {"p": P_STAR}}, "sample"),
    ("self_similar_levels", {"kind": "self_similar", "params": {"p": P_STAR}},
     "sample_with_levels"),
    ("single_arc", {"kind": "single_arc", "params": {"arc_angle": 2.5, "radius": 1.5}}, "sample"),
    ("mixture", {"kind": "mixture", "params": {"components": [
        {"weight": 0.3, "spec": {"kind": "arc_triple", "params": ARC_PINNED}},
        {"weight": 0.7, "spec": {"kind": "single_arc", "params": {"arc_angle": 1.0}}},
    ]}}, "sample"),
]
SEEDS = (1, 2)
SIZES = (1, 7, 3 * 4099, 3 * 65536 + 1)

ESTIMATE_CASES = [name for name, _, method in SAMPLER_CASES if method == "sample"]
ESTIMATE_SAMPLES = 3 * 4099
ESTIMATE_SHARD = 4096  # three full shards and a partial one

PATTERN_METHOD = (
    "Generated by running this file (PYTHONPATH=src python tests/test_sampler_fixtures.py) "
    "on commit 33576fc, before the pattern report moved onto the shared shard engine of "
    "obtri.mc; every other entry of the file regenerated unchanged in that run. "
    "Each report is arc_triple_pattern_report(params, samples_per_pattern, seed) at the "
    "default tolerance, stored as the lines of its to_csv() text: a header, then one row "
    "per pattern in pattern order with its weight, samples and four class counts. "
    "Pattern i draws from SeedSequence((seed, i))."
)
PATTERN_PARAMS = {"bench": ARC_BENCH, "pinned": ARC_PINNED}
PATTERN_SIZES = (1, 7, 4099)
PATTERN_CASES = [(name, seed, n) for name in PATTERN_PARAMS for seed in SEEDS for n in PATTERN_SIZES]


def _digest(arrays, rng) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(rng.bit_generator.random_raw(2).tobytes())
    return h.hexdigest()


def sampler_digest(spec: dict, method: str, seed: int, n: int) -> str:
    sampler = build_sampler(DistributionSpec(kind=spec["kind"], params=spec["params"]))
    rng = np.random.default_rng(seed)
    out = getattr(sampler, method)(rng, n)
    return _digest(out if isinstance(out, tuple) else (out,), rng)


# The d = 2 and d = 3 kernel digests were added on commit e0dc4d8, before the
# kernel moved to coordinate-major edges for d <= 3; d = 4 and d = 10 are older.
MEASURE_DIMS = (2, 3, 4, 10)


def measure_triples(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random triples plus needles, collinear and coincident triples in R^d."""
    rng = np.random.default_rng(1000 + d)
    m = 2000
    a = rng.standard_normal((m, d))
    b = rng.standard_normal((m, d))
    c = rng.standard_normal((m, d))
    # Needles: c near the segment ab, off it by 1e-6 .. 1e-15 of its length.
    k = 600
    t = rng.random(k)[:, None]
    off = rng.standard_normal((k, d)) * np.logspace(-6, -15, k)[:, None]
    c[:k] = a[:k] + t * (b[:k] - a[:k]) + off
    # Far from the origin: large common coordinates.
    a[k:2 * k] += 1e6
    b[k:2 * k] += 1e6
    c[k:2 * k] += 1e6
    # Exactly collinear (integer multiples) and coincident points.
    a[2 * k:2 * k + 50] = np.arange(50)[:, None] * np.ones(d)
    b[2 * k:2 * k + 50] = 2.0 * a[2 * k:2 * k + 50]
    c[2 * k:2 * k + 50] = 3.0 * a[2 * k:2 * k + 50]
    c[2 * k + 50:2 * k + 100] = a[2 * k + 50:2 * k + 100]
    return a, b, c


def measure_digest(d: int) -> str:
    a, b, c = measure_triples(d)
    if d in (2, 3):
        area = _coordinate_measures(a, b, c)[1]
    else:
        area = _triangle_area(*(np.einsum("ij,ij->i", x, x) for x in (b - a, c - a, c - b)))
    h = hashlib.sha256()
    for arr in (*measure_batch(a, b, c, 1e-12), area):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def estimate_counts(spec: dict, seed: int) -> dict:
    sampler = build_sampler(DistributionSpec(kind=spec["kind"], params=spec["params"]))
    est = estimate(sampler, ESTIMATE_SAMPLES, seed, shard_size=ESTIMATE_SHARD)
    return {cls.value: cnt for cls, cnt in est.counts.items()}


def self_similar_report(seed: int) -> dict:
    report = mc_self_similar(SelfSimilarParams(p=P_STAR), ESTIMATE_SAMPLES, seed,
                             shard_size=ESTIMATE_SHARD)
    return json.loads(json.dumps(report.to_dict()))


def pattern_rows(name: str, seed: int, n: int) -> list[str]:
    report = arc_triple_pattern_report(ArcTripleParams(**PATTERN_PARAMS[name]), n, seed)
    return report.to_csv().splitlines()


def build_fixtures() -> dict:
    specs = {name: (spec, method) for name, spec, method in SAMPLER_CASES}
    return {
        "method": METHOD,
        "samplers": {
            name: {"spec": spec, "method": method,
                   "digests": {f"seed{s}_n{n}": sampler_digest(spec, method, s, n)
                               for s in SEEDS for n in SIZES}}
            for name, (spec, method) in specs.items()
        },
        "measure_batch": {f"d{d}": measure_digest(d) for d in MEASURE_DIMS},
        "estimate": {
            "samples": ESTIMATE_SAMPLES, "shard_size": ESTIMATE_SHARD,
            "counts": {f"{name}_seed{s}": estimate_counts(specs[name][0], s)
                       for name in ESTIMATE_CASES for s in SEEDS},
        },
        "mc_self_similar": {
            "p": P_STAR, "samples": ESTIMATE_SAMPLES, "shard_size": ESTIMATE_SHARD,
            "reports": {f"seed{s}": self_similar_report(s) for s in SEEDS},
        },
        "arc_triple_pattern_report": {
            "method": PATTERN_METHOD, "params": PATTERN_PARAMS,
            "reports": {f"{name}_seed{s}_n{n}": pattern_rows(name, s, n)
                        for name, s, n in PATTERN_CASES},
        },
    }


SAVED = json.loads(FIXTURES.read_text()) if FIXTURES.exists() else None


@pytest.mark.parametrize("name, spec, method", SAMPLER_CASES, ids=[c[0] for c in SAMPLER_CASES])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_sampler_digest(name, spec, method, seed, n):
    saved = SAVED["samplers"][name]
    assert saved["spec"] == spec and saved["method"] == method
    assert sampler_digest(spec, method, seed, n) == saved["digests"][f"seed{seed}_n{n}"]


@pytest.mark.parametrize("d", MEASURE_DIMS)
def test_measure_batch_digest(d):
    assert measure_digest(d) == SAVED["measure_batch"][f"d{d}"]


def test_measure_triples_include_needles():
    # The needle block must actually reach the area test: some triples are
    # classified Degenerate only because their area is below tol * scale.
    a, b, c = measure_triples(4)
    codes = measure_batch(a, b, c, 1e-12)[0]
    assert int(np.sum(codes[:600] == 3)) > 0
    assert int(np.sum(codes[:600] != 3)) > 0


@pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 10, 40])
def test_measure_block_form_equals_vertex_form(d):
    # The engine's (m, 3, d) block form must reproduce the vertex form bit
    # for bit, at block sizes on either side of the engine's 4,096.
    a, b, c = measure_triples(d)
    tri = np.stack([a, b, c], axis=1)
    for m in (1, 2, 4095, 4096, 4097):
        block = tri[np.arange(m) % len(tri)]
        for tol in (0.0, 1e-12, 1e-15):
            vertex = measure_batch(block[:, 0], block[:, 1], block[:, 2], tol)
            for got, want in zip(measure_batch(block, tol=tol), vertex, strict=True):
                assert got.dtype == want.dtype and got.shape == (m,)
                assert np.array_equal(got, want), (m, tol)


@pytest.mark.parametrize("name", ESTIMATE_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_counts(name, seed):
    spec = next(spec for n, spec, _ in SAMPLER_CASES if n == name)
    assert SAVED["estimate"]["samples"] == ESTIMATE_SAMPLES
    assert estimate_counts(spec, seed) == SAVED["estimate"]["counts"][f"{name}_seed{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_mc_self_similar_report(seed):
    assert self_similar_report(seed) == SAVED["mc_self_similar"]["reports"][f"seed{seed}"]


@pytest.mark.parametrize("name, seed, n", PATTERN_CASES)
def test_arc_triple_pattern_report(name, seed, n):
    saved = SAVED["arc_triple_pattern_report"]
    assert saved["params"][name] == PATTERN_PARAMS[name]
    assert pattern_rows(name, seed, n) == saved["reports"][f"{name}_seed{seed}_n{n}"]


if __name__ == "__main__":
    FIXTURES.write_text(json.dumps(build_fixtures(), indent=1) + "\n")
    print(f"wrote {FIXTURES}")
