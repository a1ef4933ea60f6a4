import math
from fractions import Fraction

import numpy as np
import pytest

from obtri.constructions import (
    ACUTE_FRACTION_LIMIT,
    ArcTripleParams,
    ArcTripleSampler,
    DistributionSpec,
    PATTERNS,
    SelfSimilarParams,
    SelfSimilarSampler,
    arc_points,
    arc_triple_geometry,
    arc_triple_pattern_report,
    build_sampler,
    fixed_point_acute,
    fixed_point_residual,
    fixed_point_scan,
    maximize_acute,
    mc_self_similar,
)
from obtri.geometry import TriangleClass, classify_batch, classify_triangle
from obtri.mc import SamplerError

# Parameters in the regime where every claimed pattern property is both
# geometrically valid and numerically resolvable (see module docstring):
# alpha ~ eps^2 scale, delta well below alpha, all chords above roundoff.
DEMO = ArcTripleParams(alpha=1e-4, delta=8e-6, eps=0.05)

# The parameter point used by the headline acceptance run.
PINNED = ArcTripleParams(alpha=1e-2, delta=1e-3, eps=1e-2)


def isqrt_fraction(n: int, digits: int = 40) -> Fraction:
    """sqrt(n) as a Fraction, good to `digits` decimal digits."""
    scale = 10 ** digits
    return Fraction(math.isqrt(n * scale * scale), scale)


# Extended-precision oracles for the optimum, far beyond double precision.
P_STAR_ORACLE = Fraction(22, 13) - isqrt_fraction(133) / 13
X_STAR_ORACLE = (2 * isqrt_fraction(133) - 17) / 9


class TestArcTripleGeometry:
    def test_angle_sum(self):
        g = arc_triple_geometry(DEMO)
        a, b, c = np.array(g.a), np.array(g.b), np.array(g.c)

        def angle(p, q, r):
            u, v = q - p, r - p
            return math.acos(float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        total = angle(a, b, c) + angle(b, a, c) + angle(c, a, b)
        assert total == pytest.approx(math.pi, abs=1e-12)

    def test_base_angles_equal_deficit(self):
        g = arc_triple_geometry(DEMO)
        a, b, c = np.array(g.a), np.array(g.b), np.array(g.c)

        def angle(p, q, r):
            u, v = q - p, r - p
            return math.acos(float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert angle(a, b, c) == pytest.approx(math.pi / 2 - DEMO.alpha, abs=1e-9)
        assert angle(b, a, c) == pytest.approx(math.pi / 2 - DEMO.alpha, abs=1e-9)
        assert angle(c, a, b) == pytest.approx(2 * DEMO.alpha, abs=1e-9)

    def test_triangle_is_acute(self):
        g = arc_triple_geometry(DEMO)
        assert classify_triangle(g.a, g.b, g.c) is TriangleClass.ACUTE

    def test_arc_midpoints_are_vertices(self):
        g = arc_triple_geometry(DEMO)
        for name, vertex in (("A", g.a), ("C", g.c), ("B", g.b)):
            arc = g.arcs[name]
            mid = arc_points(np.array([0.0]), arc.radius, arc.base_angle, *arc.vertex)[0]
            assert np.allclose(mid, vertex, atol=1e-15)

    def test_tangents_perpendicular_to_designated_sides(self):
        g = arc_triple_geometry(DEMO)
        a, b, c = np.array(g.a), np.array(g.b), np.array(g.c)
        for name, seg in (("A", c - a), ("C", b - c), ("B", a - b)):
            arc = g.arcs[name]
            h = arc.length / 2
            ends = arc_points(np.array([h, -h]), arc.radius, arc.base_angle, *arc.vertex)
            chord = ends[0] - ends[1]
            cosang = float(chord @ seg) / (np.linalg.norm(chord) * np.linalg.norm(seg))
            # symmetric chord is parallel to the tangent at the vertex
            assert abs(cosang) < 1e-6

    def test_arc_lengths(self):
        g = arc_triple_geometry(DEMO)
        assert g.arcs["A"].length == DEMO.delta
        assert g.arcs["C"].length == DEMO.eps * DEMO.delta
        assert g.arcs["B"].length == DEMO.eps ** 2 * DEMO.delta

    def test_default_radii_reach_pairing_vertices(self):
        g = arc_triple_geometry(DEMO)
        assert np.allclose(g.arcs["A"].center, g.c, atol=1e-12)
        assert np.allclose(g.arcs["C"].center, g.b, atol=1e-12)
        assert np.allclose(g.arcs["B"].center, g.a, atol=1e-9)

    def test_points_stay_on_circle(self):
        g = arc_triple_geometry(DEMO)
        arc = g.arcs["A"]
        u = np.linspace(-arc.length / 2, arc.length / 2, 7)
        pts = arc_points(u, arc.radius, arc.base_angle, *arc.vertex)
        radii = np.linalg.norm(pts - np.array(arc.center), axis=1)
        assert np.allclose(radii, arc.radius, rtol=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ArcTripleParams(alpha=0.0, delta=1e-3, eps=0.1)
        with pytest.raises(ValueError):
            ArcTripleParams(alpha=1e-2, delta=-1.0, eps=0.1)
        with pytest.raises(ValueError):
            ArcTripleParams(alpha=1e-2, delta=1e-3, eps=1.5)
        with pytest.raises(ValueError):
            # B-arc angular extent delta/(2 sin alpha) beyond pi/8
            ArcTripleParams(alpha=1e-6, delta=1.0, eps=0.9)
        # An infinite scale passes every arc-extent check but puts the arc
        # centres at infinity, which gives NaN points.
        for radius_scale in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="radius_scale must be finite"):
                ArcTripleParams(alpha=1e-2, delta=1e-3, eps=0.1, radius_scale=radius_scale)


class TestPatternLabel:
    def test_weights_sum_to_one(self):
        assert sum(w for _, w in PATTERNS) == pytest.approx(1.0, abs=1e-15)


class TestArcTripleSampler:
    def test_arc_choice_uniform(self, rng):
        sampler = ArcTripleSampler(DEMO)
        n = 90_000
        pts = sampler.sample(rng, n)
        g = sampler.geometry
        # membership by nearest vertex: the vertices are far apart relative
        # to every arc length, so this is unambiguous
        vertices = np.array([g.arcs[name].vertex for name in "ACB"])
        dist = np.linalg.norm(pts[:, None, :] - vertices[None, :, :], axis=2)
        which = dist.argmin(axis=1)
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for k in range(3):
            assert abs(int(np.sum(which == k)) - n / 3) <= 5 * sigma

    def test_same_arc_triples_all_obtuse(self, rng):
        sampler = ArcTripleSampler(DEMO)
        for pattern in ("AAA", "BBB", "CCC"):
            tri = sampler.sample_pattern(rng, pattern, 20_000)
            codes = classify_batch(tri[:, 0], tri[:, 1], tri[:, 2], tol=0.0)
            assert np.all(codes == 2), f"{pattern}: non-obtuse same-arc triple"

    def test_one_per_arc_triples_all_acute(self, rng):
        sampler = ArcTripleSampler(DEMO)
        tri = sampler.sample_pattern(rng, "ACB", 20_000)
        codes = classify_batch(tri[:, 0], tri[:, 1], tri[:, 2], tol=0.0)
        assert np.all(codes == 0)

    def test_one_per_arc_all_acute_at_pinned_params(self, rng):
        sampler = ArcTripleSampler(PINNED)
        tri = sampler.sample_pattern(rng, "ACB", 20_000)
        codes = classify_batch(tri[:, 0], tri[:, 1], tri[:, 2])
        assert np.all(codes == 0)

    def test_bad_pattern(self, rng):
        with pytest.raises(ValueError):
            ArcTripleSampler(DEMO).sample_pattern(rng, "AXE", 5)


class TestPatternReport:
    def test_demo_regime_pattern_claims(self):
        rep = arc_triple_pattern_report(DEMO, 40_000, seed=97, tol=0.0)
        rows = {r.pattern: r for r in rep.rows}
        # doubled patterns paired with their arc's far vertex: acute up to
        # an O(eps) failure fraction (c around 1)
        for pattern in ("AAC", "CCB", "BBA"):
            assert rows[pattern].acute_rate >= 1.0 - 3.0 * DEMO.eps
        # same-arc and the remaining doubled patterns are fully obtuse
        for pattern in ("AAA", "BBB", "CCC", "AAB", "BBC", "CCA"):
            assert rows[pattern].obtuse_rate == 1.0
        assert rows["ABC"].acute_rate == 1.0

    def test_overall_acute_near_five_ninths(self):
        rep = arc_triple_pattern_report(DEMO, 40_000, seed=97, tol=0.0)
        # 5/9 - O(eps): the dominant deficit is the AAC failure ~ eps
        assert rep.overall_acute == pytest.approx(
            ACUTE_FRACTION_LIMIT, abs=4.0 * DEMO.eps / 9.0 + 0.01)
        assert rep.overall_acute < ACUTE_FRACTION_LIMIT

    def test_reproducible(self):
        a = arc_triple_pattern_report(DEMO, 2000, seed=5)
        b = arc_triple_pattern_report(DEMO, 2000, seed=5)
        assert [r.counts for r in a.rows] == [r.counts for r in b.rows]

    def test_csv_shape(self):
        rep = arc_triple_pattern_report(DEMO, 500, seed=5)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0].startswith("pattern,")
        assert len(lines) == 11

    @pytest.mark.parametrize("samples_per_pattern", [0, -1])
    def test_samples_per_pattern_validated(self, samples_per_pattern):
        with pytest.raises(ValueError, match="samples_per_pattern must be >= 1"):
            arc_triple_pattern_report(DEMO, samples_per_pattern, seed=5)

    def test_in_regime_schedule_converges_to_four_ninths(self):
        # Documented shrink schedule staying inside the validity regime
        # (alpha scales like eps^2, delta well below alpha): the stratified
        # obtuse estimate decreases monotonically toward 4/9 over three
        # steps, and the distance is O(eps).
        schedule = [
            ArcTripleParams(alpha=1.6e-3, delta=1.0e-4, eps=0.2),
            ArcTripleParams(alpha=4.0e-4, delta=2.6e-5, eps=0.1),
            DEMO,  # eps = 0.05
        ]
        estimates = [
            arc_triple_pattern_report(p, 60_000, seed=53, tol=0.0).overall_obtuse
            for p in schedule
        ]
        target = 4.0 / 9.0
        dist = [e - target for e in estimates]
        assert all(d > 0 for d in dist)
        assert dist[1] < dist[0]
        assert dist[2] < dist[1]
        for params, d in zip(schedule, dist):
            assert d <= 1.5 * params.eps


class TestFixedPoint:
    def test_limit_p_to_one(self):
        assert fixed_point_acute(1.0 - 1e-12) == pytest.approx(5.0 / 9.0, abs=1e-9)

    def test_limit_p_to_zero(self):
        assert fixed_point_acute(1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_defining_equation_residual(self):
        for p in np.linspace(0.01, 0.99, 99):
            x = fixed_point_acute(float(p))
            assert abs(fixed_point_residual(float(p), x)) <= 1e-12

    def test_value_at_optimum_matches_oracle(self):
        p = float(P_STAR_ORACLE)
        assert fixed_point_acute(p) == pytest.approx(float(X_STAR_ORACLE), abs=1e-12)

    def test_p_below_double_precision(self):
        # 1 - p rounds to 1, so 1 - (1 - p)^3 is 0 in floating point; x(p)
        # is about p there.
        assert fixed_point_acute(1e-17) == pytest.approx(1e-17, rel=1e-12)
        assert fixed_point_acute(1e-300) == 0.0  # p^2 underflows

    def test_domain(self):
        with pytest.raises(ValueError):
            fixed_point_acute(0.0)
        with pytest.raises(ValueError):
            fixed_point_acute(1.0)

    def test_scan_shape(self):
        scan = fixed_point_scan(99)
        assert len(scan) == 99
        assert all(0 < p < 1 and 0 <= x <= 1 for p, x in scan)

    @pytest.mark.parametrize("n", [0, -3])
    def test_scan_needs_a_point(self, n):
        with pytest.raises(ValueError, match="at least 1 point"):
            fixed_point_scan(n)


class TestMaximizeAcute:
    def test_optimum_location(self):
        opt = maximize_acute()
        assert abs(opt.p - float(P_STAR_ORACLE)) <= 1e-9
        assert abs(opt.acute - float(X_STAR_ORACLE)) <= 1e-9
        assert abs(opt.obtuse - (1.0 - float(X_STAR_ORACLE))) <= 1e-9

    def test_obtuse_minimum_value(self):
        opt = maximize_acute()
        assert opt.obtuse == pytest.approx(0.326097, abs=1e-6)

    def test_residual(self):
        assert abs(maximize_acute().residual) <= 1e-12

    def test_against_dense_grid(self):
        # unimodality / optimizer sanity: no grid point beats the optimum
        opt = maximize_acute()
        grid = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
        values = [(fixed_point_acute(float(p)), float(p)) for p in grid]
        best_val, best_p = max(values)
        assert opt.acute >= best_val - 1e-12
        assert abs(best_p - opt.p) < 1e-4

    def test_deterministic(self):
        assert maximize_acute() == maximize_acute()

    def test_optimum_to_double_precision(self):
        opt = maximize_acute()
        p_star = float(P_STAR_ORACLE)
        assert abs(opt.p - p_star) <= math.ulp(p_star)
        assert opt.acute == float(X_STAR_ORACLE)


class TestSelfSimilarSampler:
    def test_level_frequencies_geometric(self, rng):
        params = SelfSimilarParams(p=0.6, max_depth=8)
        sampler = SelfSimilarSampler(params)
        n = 120_000
        levels = sampler.sample_with_levels(rng, n)[1]
        probs = params.level_probabilities()
        for j, q in enumerate(probs):
            observed = int(np.sum(levels == j))
            sigma = math.sqrt(n * q * (1 - q)) + 1.0
            assert abs(observed - n * q) <= 5 * sigma

    def test_level_probabilities_sum_to_one(self):
        for p in (0.3, 0.8051875, 0.99):
            probs = SelfSimilarParams(p=p).level_probabilities()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tail_mass(self):
        params = SelfSimilarParams(p=0.8051875)
        assert params.tail_mass == pytest.approx((1 - 0.8051875) ** 13, rel=1e-12)
        assert params.tail_mass < 1e-9

    def test_points_on_level_spheres(self, rng):
        params = SelfSimilarParams(p=0.7)
        sampler = SelfSimilarSampler(params)
        pts, levels = sampler.sample_with_levels(rng, 5000)
        radii = np.linalg.norm(pts, axis=1)
        expected = params.rho ** levels.astype(float)
        assert np.allclose(radii, expected, rtol=1e-12)

    def test_p_one_single_level(self, rng):
        sampler = SelfSimilarSampler(SelfSimilarParams(p=1.0))
        levels = sampler.sample_with_levels(rng, 1000)[1]
        assert np.all(levels == 0)

    @pytest.mark.parametrize("p", [1e-17, 1e-300, 5e-324])
    def test_tiny_p_levels_stop_at_max_depth(self, rng, p):
        # Untruncated levels are about 1/p, beyond int64 (and for a
        # subnormal p beyond the largest double).
        sampler = SelfSimilarSampler(SelfSimilarParams(p=p))
        assert np.all(sampler.sample_with_levels(rng, 1000)[1] == sampler.params.max_depth)

    def test_validation(self):
        with pytest.raises(ValueError):
            SelfSimilarParams(p=0.0)
        with pytest.raises(ValueError):
            SelfSimilarParams(p=0.5, rho=1.5)
        with pytest.raises(ValueError):
            SelfSimilarParams(p=0.5, rho=1e-30, max_depth=12)

    def test_two_same_level_one_deeper_acute(self, rng):
        # the isoceles trick: two points of a common level are equidistant
        # from the origin, and any deeper point is a near-origin apex
        params = SelfSimilarParams(p=0.8051875)
        sampler = SelfSimilarSampler(params)
        found = 0
        acute = 0
        while found < 4000:
            pts, levels = sampler.sample_with_levels(rng, 3 * 20_000)
            tri = pts.reshape(-1, 3, 3)
            lev = levels.reshape(-1, 3)
            shallow = lev.min(axis=1)
            mask = (lev == shallow[:, None]).sum(axis=1) == 2
            codes = classify_batch(tri[mask, 0], tri[mask, 1], tri[mask, 2], 1e-15)
            found += int(mask.sum())
            acute += int(np.sum(codes == 0))
        # acute, modulo the sub-tolerance chords absorbed into Right
        assert acute / found >= 0.95

    def test_one_shallow_two_deeper_obtuse_dominated(self, rng):
        params = SelfSimilarParams(p=0.8051875)
        sampler = SelfSimilarSampler(params)
        pts, levels = sampler.sample_with_levels(rng, 3 * 200_000)
        tri = pts.reshape(-1, 3, 3)
        lev = levels.reshape(-1, 3)
        shallow = lev.min(axis=1)
        mask = (lev == shallow[:, None]).sum(axis=1) == 1
        codes = classify_batch(tri[mask, 0], tri[mask, 1], tri[mask, 2], 1e-15)
        obtuse = float(np.mean(codes == 2))
        acute = float(np.mean(codes == 0))
        # obtuse-dominated: acute contributes nothing; the remainder beyond
        # obtuse is sub-tolerance absorption into Right/Degenerate (pairs
        # whose chord is a factor rho below the triangle scale)
        assert obtuse >= 0.7
        assert acute <= 0.005
        assert obtuse > 100 * max(acute, 1e-6)


def _cap_points_oracle(sampler, planar, levels):
    """``SelfSimilarSampler._cap_points`` as it was written before it was
    computed in place, with ``np.sinc``."""
    theta = sampler.params.cap_half_angle
    tx = (planar[:, 0] - 0.5) * theta
    ty = planar[:, 1] * theta
    cs, sn = sampler._spin_cos.take(levels), sampler._spin_sin.take(levels)
    tx, ty = cs * tx - sn * ty, sn * tx + cs * ty
    psi = np.hypot(tx, ty)
    s = np.sinc(psi / math.pi)
    r = sampler._level_radius.take(levels)
    out = np.empty((levels.shape[0], 3))
    out[:, 0] = r * s * tx
    out[:, 1] = r * s * ty
    out[:, 2] = r * np.cos(psi)
    return out


class TestSamplerFormulas:
    """The cap formula, computed in place, gives the bytes of the plain
    expressions, so every seeded point and count stays as it was."""

    @pytest.mark.parametrize("p", [0.8051875, 0.6])
    def test_cap_points(self, rng, p):
        sampler = SelfSimilarSampler(SelfSimilarParams(p=p))
        planar = sampler._arc_sampler.sample(rng, 5000)
        planar[:1000] = rng.uniform(-1.0, 2.0, size=(1000, 2))
        # The cap centre, where psi = 0 takes np.sinc's eps branch, with
        # either sign of zero.
        planar[1000:1004] = ((0.5, 0.0), (0.5, -0.0), (0.5, 0.0), (0.5, -0.0))
        levels = rng.integers(0, sampler.params.max_depth + 1, size=5000)
        levels[1000:1004] = (0, 0, sampler.params.max_depth, sampler.params.max_depth)
        got = sampler._cap_points(planar, levels)
        assert got.tobytes() == _cap_points_oracle(sampler, planar, levels).tobytes()
        r = sampler._level_radius[levels[1000:1004]]
        assert np.array_equal(got[1000:1004], np.stack([0 * r, 0 * r, r], axis=1))


class TestMcSelfSimilar:
    def test_p_one_reduces_to_planar_construction(self):
        report = mc_self_similar(
            SelfSimilarParams(p=1.0, arc=DEMO), 300_000, seed=20240902)
        assert abs(report.obtuse_hat - 4.0 / 9.0) <= 0.02

    def test_accounting_consistency(self):
        report = mc_self_similar(SelfSimilarParams(p=0.8051875), 200_000, seed=41)
        assert abs(report.accounting_gap) <= 3.0 * report.accounting_sigma + 1e-9

    def test_category_weights_sum(self):
        report = mc_self_similar(SelfSimilarParams(p=0.6), 50_000, seed=42)
        assert sum(report.category_weights) == pytest.approx(1.0, abs=1e-9)

    def test_obtuse_never_exceeds_fixed_point_by_much(self):
        # sub-tolerance absorption only removes obtuse mass, so the MC
        # estimate sits at or below the fixed-point value (plus noise)
        for p in (0.5, 0.7):
            report = mc_self_similar(SelfSimilarParams(p=p), 100_000, seed=43)
            assert report.obtuse_hat <= (1.0 - fixed_point_acute(p)) + 0.01

    def test_convergence_toward_fixed_point_at_optimum(self):
        # shrinking the in-cap geometry toward the resolvability limit moves
        # the estimate toward the fixed-point value 0.32610
        p = 0.8051875
        target = 1.0 - fixed_point_acute(p)
        ladder = [
            ArcTripleParams(alpha=2.4e-2, delta=5e-3, eps=0.5),
            ArcTripleParams(alpha=1.3e-2, delta=2.7e-3, eps=0.37),
            None,  # package defaults
        ]
        diffs = []
        for arc in ladder:
            params = SelfSimilarParams(p=p, arc=arc) if arc else SelfSimilarParams(p=p)
            rep = mc_self_similar(params, 150_000, seed=44)
            diffs.append(abs(rep.obtuse_hat - target))
        assert diffs[0] > diffs[-1]
        assert diffs[1] > diffs[-1]

    def test_report_roundtrip(self):
        report = mc_self_similar(SelfSimilarParams(p=0.9), 10_000, seed=45)
        obj = report.to_dict()
        assert obj["samples"] == 10_000
        assert sum(obj["counts"].values()) == 10_000

    def test_deterministic(self):
        a = mc_self_similar(SelfSimilarParams(p=0.8), 20_000, seed=46)
        b = mc_self_similar(SelfSimilarParams(p=0.8), 20_000, seed=46)
        assert a.counts == b.counts

    def test_sampler_error_carries_shard_position(self, monkeypatch):
        original = SelfSimilarSampler.level_chunks
        calls = []

        def fail_on_second_shard(self, rng, n, rows):
            calls.append(n)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return original(self, rng, n, rows)

        monkeypatch.setattr(SelfSimilarSampler, "level_chunks", fail_on_second_shard)
        with pytest.raises(SamplerError) as err:
            mc_self_similar(SelfSimilarParams(p=0.8), 250, seed=47, shard_size=100)
        assert err.value.shard == 1
        assert err.value.sample_offset == 100
        assert isinstance(err.value.__cause__, RuntimeError)


class TestSpecRoundTrips:
    def test_arc_triple_spec(self):
        spec = DistributionSpec(kind="arc_triple", params=DEMO.to_dict())
        rebuilt = build_sampler(spec)
        assert rebuilt.params == DEMO

    def test_self_similar_spec(self):
        # to_dict nests the in-cap layout under "arc": build_sampler's nested branch.
        params = SelfSimilarParams(p=0.77)
        spec = DistributionSpec(kind="self_similar", params=params.to_dict())
        rebuilt = build_sampler(spec)
        assert rebuilt.params == params
