import json
import math
import tracemalloc

import numpy as np
import pytest

from obtri import mc
from obtri.constructions import (ArcTripleParams, ArcTripleSampler, DistributionSpec, SelfSimilarParams,
                                 SelfSimilarSampler, SingleArcSampler, SphereSampler, build_sampler,
                                 mc_self_similar)
from obtri.geometry import TriangleClass, classify_batch
from obtri.mc import (_BLOCK, _Z95, Estimate, SamplerError, SeedPolicy, _chunk_bounds, _count_strata,
                      estimate, wilson_interval)


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


def grid_chunk(strata, per_triple):
    """A shard's triples on a 3 x 3 integer grid, so all four classes occur,
    as one (points, stratum) chunk; the stratum is one int per shard or one
    per triple."""
    def chunk(rng, shard, n):
        pts = rng.integers(0, 3, size=(3 * n, 2)).astype(float)
        stratum = rng.integers(0, strata, size=n) if per_triple else shard % strata
        return pts, stratum
    return chunk


def whole(chunk):
    """The draw that hands ``chunk``'s one chunk to the engine's tally."""
    def draw(rng, shard, n, count):
        count([chunk(rng, shard, n)])
    return draw


def unblocked_counts(chunk, dim, strata, samples, seed, tol, shard_size):
    """The engine's table with each shard classified in one call."""
    policy = SeedPolicy(master_seed=seed, shard_size=shard_size)
    table = np.zeros(4 * strata, dtype=np.int64)
    for shard in range(-(-samples // shard_size)):
        n = min(shard_size, samples - shard * shard_size)
        pts, stratum = chunk(policy.rng_for_shard(shard), shard, n)
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
        chunk = grid_chunk(3, per_triple)
        got = _count_strata(whole(chunk), 2, 3, samples, SeedPolicy(5, shard_size), 1e-12)
        expected = unblocked_counts(chunk, 2, 3, samples, 5, 1e-12, shard_size)
        assert np.array_equal(got, expected)
        assert got.sum() == samples

    def test_sphere_shards_match_unblocked_oracle(self):
        sampler = SphereSampler(10)

        def chunk(rng, shard, n):
            return sampler.sample(rng, 3 * n), 0

        samples = 3 * _BLOCK + 11
        got = _count_strata(whole(chunk), 10, 1, samples, SeedPolicy(9, 2 * _BLOCK + 1), 1e-12)
        assert np.array_equal(got, unblocked_counts(chunk, 10, 1, samples, 9, 1e-12, 2 * _BLOCK + 1))

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


def shard_rng():
    return SeedPolicy(master_seed=2024).rng_for_shard(5)


class TestChunkedDraws:
    """The stream property the chunked samplers rest on: a shard generator
    drawn chunk by chunk, into a buffer each chunk reuses, gives the values
    of one whole draw and ends at the same stream position."""

    # An odd length, so the last chunk is partial at every chunk length.
    N = 6 * _BLOCK + 5
    ROWS = [3 * _BLOCK, 4097, 7]

    @staticmethod
    def same_position(a, b):
        return np.array_equal(a.integers(0, 1 << 62, size=3), b.integers(0, 1 << 62, size=3))

    @pytest.mark.parametrize("rows", ROWS)
    def test_standard_normal_into_a_reused_buffer(self, rows):
        d = 10
        whole_rng, chunk_rng = shard_rng(), shard_rng()
        whole = whole_rng.standard_normal((self.N, d))
        buf, got = np.empty((rows, d)), np.empty((self.N, d))
        for lo, hi in _chunk_bounds(self.N, rows):
            got[lo:hi] = chunk_rng.standard_normal(out=buf[:hi - lo])
        assert np.array_equal(got, whole)
        assert self.same_position(whole_rng, chunk_rng)

    @pytest.mark.parametrize("rows", ROWS)
    def test_random_into_a_reused_buffer(self, rows):
        whole_rng, chunk_rng = shard_rng(), shard_rng()
        whole = whole_rng.random(self.N)
        buf, got = np.empty(rows), np.empty(self.N)
        for lo, hi in _chunk_bounds(self.N, rows):
            got[lo:hi] = chunk_rng.random(out=buf[:hi - lo])
        assert np.array_equal(got, whole)
        assert self.same_position(whole_rng, chunk_rng)

    @pytest.mark.parametrize("rows", ROWS)
    def test_integers(self, rows):
        # Odd chunk lengths leave half of a 64-bit draw over between calls.
        whole_rng, chunk_rng = shard_rng(), shard_rng()
        whole = whole_rng.integers(0, 3, size=self.N)
        got = np.concatenate([chunk_rng.integers(0, 3, size=hi - lo)
                              for lo, hi in _chunk_bounds(self.N, rows)])
        assert np.array_equal(got, whole)
        assert self.same_position(whole_rng, chunk_rng)

    @pytest.mark.parametrize("rows", ROWS)
    def test_self_similar_draw_order(self, rows):
        # Level uniforms, then arc indices, then offsets, each in chunks.
        whole_rng, chunk_rng = shard_rng(), shard_rng()
        whole = [whole_rng.random(self.N), whole_rng.integers(0, 3, size=self.N), whole_rng.random(self.N)]
        bounds = _chunk_bounds(self.N, rows)
        buf, levels, offsets = np.empty(rows), np.empty(self.N), np.empty(self.N)
        for lo, hi in bounds:
            levels[lo:hi] = chunk_rng.random(out=buf[:hi - lo])
        which = np.concatenate([chunk_rng.integers(0, 3, size=hi - lo) for lo, hi in bounds])
        for lo, hi in bounds:
            offsets[lo:hi] = chunk_rng.random(out=buf[:hi - lo])
        for got, want in zip((levels, which, offsets), whole):
            assert np.array_equal(got, want)
        assert self.same_position(whole_rng, chunk_rng)

    @pytest.mark.parametrize("sampler", [
        SphereSampler(3), SphereSampler(10),
        ArcTripleSampler(ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)),
        SelfSimilarSampler(SelfSimilarParams(p=0.805187)),
    ], ids=["sphere_d3", "sphere_d10", "arc_triple", "self_similar"])
    @pytest.mark.parametrize("rows", ROWS)
    def test_sampler_chunks_are_the_whole_sample(self, sampler, rows):
        whole_rng, chunk_rng = shard_rng(), shard_rng()
        whole = sampler.sample(whole_rng, self.N)
        chunks = [c.copy() for c in sampler.sample_chunks(chunk_rng, self.N, rows)]
        assert [len(c) for c in chunks] == [hi - lo for lo, hi in _chunk_bounds(self.N, rows)]
        assert np.array_equal(np.concatenate(chunks), whole)
        assert self.same_position(whole_rng, chunk_rng)

    @pytest.mark.parametrize("rows", ROWS)
    def test_self_similar_level_chunks(self, rows):
        sampler = SelfSimilarSampler(SelfSimilarParams(p=0.6))
        pts, levels = sampler.sample_with_levels(shard_rng(), self.N)
        chunks = [(p.copy(), lev) for p, lev in sampler.level_chunks(shard_rng(), self.N, rows)]
        assert np.array_equal(np.concatenate([p for p, _ in chunks]), pts)
        assert np.array_equal(np.concatenate([lev for _, lev in chunks]), levels)

    def test_empty_sample(self):
        for sampler in (ArcTripleSampler(ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)),
                        SelfSimilarSampler(SelfSimilarParams(p=0.5))):
            assert sampler.sample(shard_rng(), 0).shape == (0, sampler.dim)

    @pytest.mark.parametrize("rows", [0, -3])
    def test_chunks_need_a_row(self, rows):
        with pytest.raises(ValueError, match="chunk rows"):
            _chunk_bounds(10, rows)
        for sampler in (SphereSampler(3), ArcTripleSampler(ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)),
                        SelfSimilarSampler(SelfSimilarParams(p=0.5))):
            with pytest.raises(ValueError, match="chunk rows"):
                sampler.sample_chunks(shard_rng(), 10, rows)

    def test_sample_with_consume_streams_the_same_points(self):
        # ``sample(rng, n, consume=f)`` hands ``f`` the chunks of
        # ``sample_chunks(rng, n, 3 * _BLOCK)`` and returns what it returns.
        for sampler in (SphereSampler(4), ArcTripleSampler(ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)),
                        SelfSimilarSampler(SelfSimilarParams(p=0.6))):
            whole = sampler.sample(shard_rng(), self.N)
            chunks = sampler.sample(shard_rng(), self.N, consume=lambda it: [c.copy() for c in it])
            assert [len(c) for c in chunks] == [hi - lo for lo, hi in _chunk_bounds(self.N, 3 * _BLOCK)]
            assert np.array_equal(np.concatenate(chunks), whole)

        sampler = SelfSimilarSampler(SelfSimilarParams(p=0.6))
        pts, levels = sampler.sample_with_levels(shard_rng(), self.N)
        chunks = sampler.sample_with_levels(shard_rng(), self.N,
                                            consume=lambda it: [(p.copy(), lev) for p, lev in it])
        assert np.array_equal(np.concatenate([p for p, _ in chunks]), pts)
        assert np.array_equal(np.concatenate([lev for _, lev in chunks]), levels)


def chunked(chunk, order):
    """The draw that re-cuts ``chunk``'s one chunk into chunks of 1,000
    triples and hands them to the engine's tally in ``order`` (a function of
    the chunk list)."""
    def draw(rng, shard, n, count):
        pts, stratum = chunk(rng, shard, n)
        stratum = np.broadcast_to(stratum, n)
        bounds = _chunk_bounds(n, 1000)
        count([(pts[3 * lo:3 * hi], stratum[lo:hi]) for lo, hi in order(bounds)])
    return draw


class TestStreamedShards:
    """A draw hands its shard to the engine's tally as a stream of chunks."""

    @pytest.mark.parametrize("order", [lambda b: b, lambda b: b[::-1], lambda b: b[1::2] + b[::2]],
                             ids=["in-order", "reversed", "interleaved"])
    def test_chunk_order_does_not_matter(self, order):
        chunk = grid_chunk(3, per_triple=True)
        one = _count_strata(whole(chunk), 2, 3, 9_001, SeedPolicy(5, 4_500), 1e-12)
        many = _count_strata(chunked(chunk, order), 2, 3, 9_001, SeedPolicy(5, 4_500), 1e-12)
        assert np.array_equal(many, one)
        assert many.sum() == 9_001

    def test_a_shard_may_be_counted_in_several_calls(self):
        chunk = grid_chunk(3, per_triple=True)

        def halves(rng, shard, n, count):
            pts, stratum = chunk(rng, shard, n)
            half = n // 2
            count([(pts[:3 * half], stratum[:half])])
            count([(pts[3 * half:], stratum[half:])])

        one = _count_strata(whole(chunk), 2, 3, 9_001, SeedPolicy(5, 4_500), 1e-12)
        assert np.array_equal(_count_strata(halves, 2, 3, 9_001, SeedPolicy(5, 4_500), 1e-12), one)

    def test_a_draw_that_counts_nothing_fails(self):
        with pytest.raises(SamplerError, match="chunks hold 0 triples, expected 50"):
            _count_strata(lambda rng, shard, n, count: None, 2, 1, 50, SeedPolicy(1, 50), 1e-12)

    def test_error_on_a_later_chunk_carries_shard_position(self):
        def chunks(rng, shard, n):
            for k, (lo, hi) in enumerate(_chunk_bounds(n, 10)):
                if shard == 1 and k == 2:
                    raise RuntimeError("boom")
                yield rng.random((3 * (hi - lo), 2)), 0

        def draw(rng, shard, n, count):
            count(chunks(rng, shard, n))

        with pytest.raises(SamplerError) as err:
            _count_strata(draw, 2, 1, 250, SeedPolicy(1, 100), 1e-12)
        assert (err.value.shard, err.value.sample_offset) == (1, 100)
        assert isinstance(err.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("shapes, message", [
        ([(30, 2), (31, 2)], r"chunk of shape \(31, 2\), expected \(3m, 2\) with m <= 40"),
        ([(30, 2), (30, 3)], r"chunk of shape \(30, 3\), expected \(3m, 2\) with m <= 40"),
        ([(30, 2), (30,)], r"chunk of shape \(30,\), expected \(3m, 2\) with m <= 40"),
        ([(150, 2), (30, 2)], r"chunk of shape \(30, 2\), expected \(3m, 2\) with m <= 0"),
        ([(30, 2), (30, 2)], r"chunks hold 20 triples, expected 50"),
    ], ids=["rows", "dim", "ndim", "too-many", "too-few"])
    def test_chunk_shape_is_checked(self, shapes, message):
        def draw(rng, shard, n, count):
            count((np.zeros(shape), 0) for shape in shapes)

        with pytest.raises(SamplerError, match=message) as err:
            _count_strata(draw, 2, 1, 50, SeedPolicy(1, 50), 1e-12)
        assert (err.value.shard, err.value.sample_offset) == (0, 0)
        assert err.value.__cause__ is None

    def test_classification_errors_are_not_sampler_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("classifier")

        monkeypatch.setattr(mc, "classify_batch", broken)
        with pytest.raises(ZeroDivisionError):
            _count_strata(whole(grid_chunk(1, per_triple=False)), 2, 1, 10, SeedPolicy(1, 10), 1e-12)

    def test_a_streamed_shard_is_one_sample_call(self, monkeypatch):
        # Each shard is drawn and classified inside one call of a method that
        # the class itself defines, the method perfbench's tracer wraps.
        arc = ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)
        samples, shard_size = 2 * _BLOCK + 100, _BLOCK + 50
        for cls, method, run in [
            (SphereSampler, "sample", lambda: estimate(SphereSampler(3), samples, 7, shard_size=shard_size)),
            (ArcTripleSampler, "sample", lambda: estimate(ArcTripleSampler(arc), samples, 7,
                                                          shard_size=shard_size)),
            (SelfSimilarSampler, "sample", lambda: estimate(SelfSimilarSampler(SelfSimilarParams(p=0.6)),
                                                            samples, 7, shard_size=shard_size)),
            (SelfSimilarSampler, "sample_with_levels", lambda: mc_self_similar(
                SelfSimilarParams(p=0.6), samples, 7, shard_size=shard_size)),
        ]:
            original, calls, inside = vars(cls)[method], [], [False]

            def sample(self, rng, n, consume=None):
                calls.append((n, consume is not None))
                inside[0] = True
                try:
                    return original(self, rng, n, consume)
                finally:
                    inside[0] = False

            def classify(tri, tol):
                assert inside[0]
                return classify_batch(tri, tol=tol)

            with monkeypatch.context() as patch:
                patch.setattr(cls, method, sample)
                patch.setattr(mc, "classify_batch", classify)
                run()
            assert calls == [(3 * shard_size, True)] * 2, (cls.__name__, method)

    def test_streamed_errors(self, monkeypatch):
        class Streamed:
            """A sampler whose chunk stream fails on shard 1's third chunk."""
            dim = 2
            streams = 0

            def sample_chunks(self, rng, n, rows):
                self.streams += 1
                for k, (lo, hi) in enumerate(_chunk_bounds(n, 30)):
                    if self.streams == 2 and k == 2:
                        raise RuntimeError("boom")
                    yield rng.random((hi - lo, 2))

            def sample(self, rng, n, consume=None):
                return consume(self.sample_chunks(rng, n, 30))

        with pytest.raises(SamplerError) as err:
            estimate(Streamed(), 250, 1, shard_size=100)
        assert (err.value.shard, err.value.sample_offset) == (1, 100)
        assert isinstance(err.value.__cause__, RuntimeError)

        def broken(*args, **kwargs):
            raise ZeroDivisionError("classifier")

        monkeypatch.setattr(mc, "classify_batch", broken)
        with pytest.raises(ZeroDivisionError):
            estimate(SphereSampler(3), 10, 1)

    def test_estimate_streams_a_sampler_with_chunks(self):
        # The same counts as a sampler offering only ``sample``.
        class WholeOnly:
            dim = 5

            def sample(self, rng, n):
                return SphereSampler(5).sample(rng, n)

        samples = 3 * _BLOCK + (1 << 16) + 11
        assert estimate(SphereSampler(5), samples, 4).counts == estimate(WholeOnly(), samples, 4).counts

    # A streamed shard holds one chunk buffer of 3 * _BLOCK points and a
    # block's classification temporaries, about two chunk buffers in all.
    @pytest.mark.parametrize("d, workers", [(40, 1), (80, 2)])
    def test_shard_memory_is_a_few_chunk_buffers(self, d, workers):
        # One 65,536-triple shard per worker, whose points would take 63 MB
        # at d = 40 and 126 MB at d = 80.
        chunk = 3 * _BLOCK * d * 8
        estimate(SphereSampler(d), 1000, seed=3)  # first-call allocations
        tracemalloc.start()
        try:
            estimate(SphereSampler(d), workers << 16, seed=3, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * chunk


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

