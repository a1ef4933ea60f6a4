import json
import math
import tracemalloc

import numpy as np
import pytest

from obtri.constructions import DistributionSpec, SingleArcSampler, SphereSampler, build_sampler
from obtri.geometry import TriangleClass, classify_batch
from obtri.mc import (_BLOCK, _Z95, Estimate, SamplerError, SeedPolicy, _count_strata, estimate,
                      wilson_interval)


class TestWilsonInterval:
    def test_zero_successes_lower_is_zero(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 0.1

    def test_all_successes_upper_is_one(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert 0.9 < lo < 1.0

    def test_half_million_width(self):
        # z = 1.9599639845..., half-width = 0.00097998...
        lo, hi = wilson_interval(500_000, 1_000_000)
        assert (hi - lo) / 2 == pytest.approx(9.79980e-4, abs=1e-8)
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-12)

    def test_z95_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            exact = mp.sqrt(2) * mp.erfinv(mp.mpf("0.95"))
        assert abs(_Z95 - exact) <= 1e-15
        # Not the correctly rounded quantile but 2 ulp below it: the value the
        # pinned ci95 fixtures were computed with, so "correcting" it would
        # move every pinned interval in its last bits.
        assert _Z95 == float(exact) - 2 * math.ulp(float(exact))
        assert _Z95 == 1.9599639845400538

    def test_contains_point_estimate(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10_000))
            k = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestEstimate:
    def test_counts_sum_enforced(self):
        with pytest.raises(ValueError):
            Estimate(samples=10, counts={TriangleClass.ACUTE: 5}, p_hat=0.0,
                     ci95=(0.0, 0.1), seed=1, shard_size=64, tol=0.0)

    def test_single_tiny_arc_always_obtuse(self):
        est = estimate(SingleArcSampler(arc_angle=0.5), 20_000, seed=7)
        assert est.p_hat == 1.0
        assert est.counts[TriangleClass.OBTUSE] == 20_000

    def test_circle_three_quarters(self):
        n = 200_000
        est = estimate(SphereSampler(2), n, seed=11)
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(est.p_hat - 0.75) <= 3.0 * sigma

    def test_s2_half(self):
        n = 200_000
        est = estimate(SphereSampler(3), n, seed=13)
        sigma = math.sqrt(0.25 / n)
        assert abs(est.p_hat - 0.5) <= 3.0 * sigma

    def test_ci_contains_p_hat(self):
        est = estimate(SphereSampler(2), 10_000, seed=3)
        assert est.ci95[0] <= est.p_hat <= est.ci95[1]

    def test_json_roundtrip(self):
        est = estimate(SphereSampler(2), 1000, seed=3, spec={"kind": "sphere", "params": {"d": 2}})
        obj = json.loads(json.dumps(est.to_dict()))
        assert obj["samples"] == 1000
        assert obj["spec"]["kind"] == "sphere"
        assert sum(obj["counts"].values()) == 1000


class TestDeterminism:
    def test_worker_count_invariance(self):
        for workers in (1, 4, 16):
            est = estimate(SphereSampler(3), 150_000, seed=99, workers=workers)
            if workers == 1:
                reference = est.counts
            else:
                assert est.counts == reference

    def test_same_seed_same_counts(self):
        a = estimate(SphereSampler(2), 30_000, seed=123)
        b = estimate(SphereSampler(2), 30_000, seed=123)
        assert a.counts == b.counts

    def test_different_seed_different_counts(self):
        a = estimate(SphereSampler(2), 30_000, seed=123)
        b = estimate(SphereSampler(2), 30_000, seed=124)
        assert a.counts != b.counts

    def test_shard_rng_is_stable(self):
        policy = SeedPolicy(master_seed=42, shard_size=128)
        v1 = policy.rng_for_shard(3).random(4)
        v2 = policy.rng_for_shard(3).random(4)
        assert np.array_equal(v1, v2)


def grid_draw(strata, per_triple):
    """A draw on a 3 x 3 integer grid, so all four classes occur; the stratum
    is one int per shard or one per triple."""
    def draw(rng, shard, n):
        pts = rng.integers(0, 3, size=(3 * n, 2)).astype(float)
        stratum = rng.integers(0, strata, size=n) if per_triple else shard % strata
        return pts, stratum
    return draw


def unblocked_counts(draw, dim, strata, samples, seed, tol, shard_size):
    """The engine's table with each shard classified in one call."""
    policy = SeedPolicy(master_seed=seed, shard_size=shard_size)
    table = np.zeros(4 * strata, dtype=np.int64)
    for shard in range(-(-samples // shard_size)):
        n = min(shard_size, samples - shard * shard_size)
        pts, stratum = draw(policy.rng_for_shard(shard), shard, n)
        tri = pts.reshape(n, 3, dim)
        codes = classify_batch(tri[:, 0], tri[:, 1], tri[:, 2], tol)
        table += np.bincount(4 * np.asarray(stratum) + codes, minlength=4 * strata)
    return table.reshape(strata, 4)


class TestBlockedEngine:
    """``_count_strata`` classifies each shard ``_BLOCK`` triples at a time."""

    # (shard_size, samples): block edges inside a shard, a partial last block
    # and a partial last shard.
    SIZES = [(1, 7), (_BLOCK - 1, 2 * _BLOCK + 5), (_BLOCK, 3 * _BLOCK - 7),
             (_BLOCK + 1, 2 * _BLOCK + 3), (1 << 16, (1 << 16) + 5_000)]

    @pytest.mark.parametrize("per_triple", [False, True], ids=["int-stratum", "array-stratum"])
    @pytest.mark.parametrize("shard_size,samples", SIZES)
    def test_matches_unblocked_oracle(self, shard_size, samples, per_triple):
        draw = grid_draw(3, per_triple)
        got = _count_strata(draw, 2, 3, samples, 5, 1e-12, shard_size)
        expected = unblocked_counts(draw, 2, 3, samples, 5, 1e-12, shard_size)
        assert np.array_equal(got, expected)
        assert got.sum() == samples

    def test_sphere_shards_match_unblocked_oracle(self):
        sampler = SphereSampler(10)

        def draw(rng, shard, n):
            return sampler.sample(rng, 3 * n), 0

        samples = 3 * _BLOCK + 11
        got = _count_strata(draw, 10, 1, samples, 9, 1e-12, 2 * _BLOCK + 1)
        assert np.array_equal(got, unblocked_counts(draw, 10, 1, samples, 9, 1e-12, 2 * _BLOCK + 1))

    def test_shard_memory_is_points_plus_blocks(self):
        # One 65,536-triple shard at d = 40: its points take 63 MB; everything
        # else the shard allocates is a few (block, d) arrays and O(n) vectors,
        # where unblocked temporaries would each be as large as the points.
        d, triples = 40, 1 << 16
        points = 3 * triples * d * 8
        block = _BLOCK * d * 8
        estimate(SphereSampler(d), 1000, seed=3)  # first-call allocations
        tracemalloc.start()
        try:
            estimate(SphereSampler(d), triples, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= points + 6 * block


class TestCoverage:
    def test_wilson_coverage_on_circle(self):
        # 200 independent runs at a known p = 3/4; the 95% interval should
        # cover in at least 180 of them (binomially generous threshold).
        hits = 0
        for rep in range(200):
            est = estimate(SphereSampler(2), 2000, seed=10_000 + rep)
            if est.ci95[0] <= 0.75 <= est.ci95[1]:
                hits += 1
        assert hits >= 180


class TestTolBehaviour:
    def test_right_degenerate_vanish_with_tol(self):
        n = 100_000
        freq = {}
        for tol in (1e-9, 1e-12, 1e-15):
            est = estimate(SphereSampler(2), n, seed=31, tol=tol)
            freq[tol] = (est.counts[TriangleClass.RIGHT]
                         + est.counts[TriangleClass.DEGENERATE]) / n
        assert freq[1e-12] <= freq[1e-9] + 1e-4
        assert freq[1e-15] <= freq[1e-12] + 1e-5
        assert freq[1e-12] <= 1e-4


class TestSamplerErrors:
    def test_error_carries_shard_position(self):
        class Broken:
            dim = 2

            def sample(self, rng, n):
                raise RuntimeError("boom")

        with pytest.raises(SamplerError) as err:
            estimate(Broken(), 100, seed=1)
        assert err.value.shard == 0
        assert err.value.sample_offset == 0

    def test_error_in_later_shard(self):
        class BrokenLater:
            dim = 2

            def __init__(self):
                self.calls = 0

            def sample(self, rng, n):
                self.calls += 1
                if self.calls >= 3:
                    raise RuntimeError("boom")
                return np.zeros((n, 2)) + rng.random((n, 2))

        with pytest.raises(SamplerError) as err:
            estimate(BrokenLater(), 300, seed=1, shard_size=100)
        assert err.value.shard == 2
        assert err.value.sample_offset == 200

    def test_shape_check(self):
        class WrongShape:
            dim = 3

            def sample(self, rng, n):
                return np.zeros((n, 2))

        with pytest.raises(SamplerError):
            estimate(WrongShape(), 10, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate(SphereSampler(2), 0, seed=1)
        with pytest.raises(ValueError):
            estimate(SphereSampler(2), 10, seed=1, workers=0)


class TestSpecsAndMixtures:
    def test_build_all_kinds(self):
        for kind, params in [
            ("sphere", {"d": 4}),
            ("single_arc", {"arc_angle": 1.0}),
            ("arc_triple", {"alpha": 1e-2, "delta": 1e-3, "eps": 1e-2}),
            ("self_similar", {"p": 0.8}),
        ]:
            sampler = build_sampler(DistributionSpec(kind=kind, params=params))
            rng = np.random.default_rng(0)
            pts = sampler.sample(rng, 50)
            assert pts.shape == (50, sampler.dim)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_sampler(DistributionSpec(kind="nope"))

    def test_spec_json_roundtrip(self):
        spec = DistributionSpec(kind="sphere", params={"d": 5})
        again = DistributionSpec.from_json(json.dumps({"kind": spec.kind, "params": spec.params}))
        assert again == spec

    def test_bad_spec_json(self):
        with pytest.raises(ValueError):
            DistributionSpec.from_json('{"params": {}}')

    def test_mixture_dimension_check(self):
        spec = DistributionSpec(kind="mixture", params={"components": [
            {"weight": 1.0, "spec": {"kind": "sphere", "params": {"d": 2}}},
            {"weight": 1.0, "spec": {"kind": "sphere", "params": {"d": 3}}},
        ]})
        with pytest.raises(ValueError):
            build_sampler(spec)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_mixture_nonfinite_weight(self, weight):
        # A NaN weight would make every normalized weight NaN, and every
        # point would then come from the last component.
        spec = DistributionSpec(kind="mixture", params={"components": [
            {"weight": weight, "spec": {"kind": "sphere", "params": {"d": 2}}},
            {"weight": 1.0, "spec": {"kind": "single_arc", "params": {"arc_angle": 0.3}}},
        ]})
        with pytest.raises(ValueError, match="mixture weights must be finite"):
            build_sampler(spec)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_single_arc_nonfinite_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be finite"):
            SingleArcSampler(arc_angle=0.5, radius=radius)

    def test_mixture_of_arcs_still_obtuse(self):
        # two tiny arcs of the same circle, each sub-semicircle, mixed: any
        # triple within one arc is obtuse; cross-arc triples vary.  With one
        # component this reduces to the single-arc case.
        spec = DistributionSpec(kind="mixture", params={"components": [
            {"weight": 0.5, "spec": {"kind": "single_arc", "params": {"arc_angle": 0.3}}},
            {"weight": 0.5, "spec": {"kind": "single_arc", "params": {"arc_angle": 0.3}}},
        ]})
        est = estimate(build_sampler(spec), 5000, seed=17)
        assert est.p_hat == 1.0

