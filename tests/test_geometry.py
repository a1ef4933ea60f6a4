import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import OCTAHEDRON_EXACT, UNIT_SQUARE, random_rotation, regular_ngon
from obtri.bounds import binom3
from obtri.geometry import (
    Configuration,
    _dot,
    TriangleClass,
    classify_batch,
    classify_exact,
    classify_triangle,
    count_classes,
    count_nonacute,
    load_configuration,
    measure_batch,
    save_configuration,
    triple_blocks,
)

A = TriangleClass.ACUTE
R = TriangleClass.RIGHT
O = TriangleClass.OBTUSE
D = TriangleClass.DEGENERATE


class TestClassifyTriangle:
    def test_equilateral_acute(self):
        assert classify_triangle((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)) is A

    def test_isoceles_right(self):
        assert classify_triangle((0, 0), (1, 0), (0, 1)) is R

    def test_obtuse_example(self):
        # dot product at (1, 0.1): (-1, -0.1).(2, -0.1) = -1.99 < 0
        assert classify_triangle((0, 0), (3, 0), (1, 0.1)) is O

    def test_collinear_degenerate(self):
        assert classify_triangle((0, 0), (1, 0), (2, 0)) is D

    def test_coincident_degenerate(self):
        assert classify_triangle((1, 1), (1, 1), (2, 3)) is D

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify_triangle((0, 0), (1, 0, 0), (0, 1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            classify_triangle((0, float("nan")), (1, 0), (0, 1))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            classify_triangle((0, 0), (1, 0), (0, 1), tol=-1e-3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_nonfinite_tol_rejected(self, tol):
        # A NaN tolerance would call every triangle acute, an infinite one
        # every triangle degenerate.
        with pytest.raises(ValueError, match="tol must be finite"):
            measure_batch(np.zeros((1, 3, 2)), tol=tol)

    def test_permutation_invariance(self, rng):
        import itertools
        for _ in range(25):
            pts = rng.standard_normal((3, 3))
            ref = classify_triangle(pts[0], pts[1], pts[2])
            for perm in itertools.permutations(range(3)):
                assert classify_triangle(pts[perm[0]], pts[perm[1]], pts[perm[2]]) is ref

    def test_rigid_motion_and_scaling_invariance(self, rng):
        for d in (2, 3, 5):
            for _ in range(20):
                pts = rng.standard_normal((3, d))
                ref = classify_triangle(pts[0], pts[1], pts[2])
                q = random_rotation(rng, d)
                shift = rng.standard_normal(d)
                scale = float(rng.uniform(0.1, 40.0))
                moved = scale * (pts @ q.T) + shift
                assert classify_triangle(moved[0], moved[1], moved[2]) is ref


class TestExactClassification:
    def test_exactly_one_negative_dot_when_obtuse(self, rng):
        # With exact rational input and no tolerance, obtuse triangles have
        # exactly one negative vertex dot product; acute ones have none.
        for _ in range(200):
            pts = [[Fraction(int(x), 64) for x in rng.integers(-64, 65, size=2)]
                   for _ in range(3)]
            cls = classify_exact(*pts)
            dots = []
            a, b, c = pts
            vec = lambda p, q: [qq - pp for pp, qq in zip(p, q)]
            dot = lambda u, v: sum(x * y for x, y in zip(u, v))
            dots.append(dot(vec(a, b), vec(a, c)))
            dots.append(dot(vec(b, a), vec(b, c)))
            dots.append(dot(vec(c, a), vec(c, b)))
            neg = sum(1 for t in dots if t < 0)
            if cls is O:
                assert neg == 1
            elif cls is A:
                assert neg == 0

    def test_square_exact(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert classify_exact(sq[0], sq[1], sq[2]) is R

    def test_collinear_and_coincident_exact(self):
        third = Fraction(1, 3)
        assert classify_exact((0, 0), (third, 2 * third), (1, 2)) is D
        assert classify_exact((third, 1), (third, 1), (2, 5)) is D

    def test_octahedron_faces(self):
        assert classify_exact(OCTAHEDRON_EXACT[0], OCTAHEDRON_EXACT[2], OCTAHEDRON_EXACT[4]) is A
        # antipodal pair: right angle at the third vertex
        assert classify_exact(OCTAHEDRON_EXACT[0], OCTAHEDRON_EXACT[1], OCTAHEDRON_EXACT[2]) is R

    @pytest.mark.parametrize("pts", [[(0, 0), (1,), (0, 1)], [(0, 0), (1, 0), (0, 1, 0)],
                                     [(0, 0, 0), (1, 0), (0, 1)]])
    def test_unequal_dimensions_refused(self, pts):
        # Zipping coordinates would classify the truncated points instead.
        with pytest.raises(ValueError, match="dimension mismatch"):
            classify_exact(*pts)

    def test_generator_coordinates(self):
        # Each point is read once, so one-shot iterables classify as tuples do.
        assert classify_exact(iter((0, 0)), iter((1, 0)), iter((0, 1))) is R


class TestCountClasses:
    def test_unit_square(self):
        counts = count_classes(Configuration(points=np.array(UNIT_SQUARE)))
        assert counts == {A: 0, R: 4, O: 0, D: 0}

    def test_regular_pentagon(self):
        # Oracle: a triple of points on a circle is obtuse iff it fits in an
        # open semicircle; for the regular pentagon exactly the 5 triples of
        # consecutive-ish vertices {i, i+1, i+2} do.
        counts = count_classes(Configuration(points=regular_ngon(5)))
        assert counts == {A: 5, R: 0, O: 5, D: 0}

    def test_semicircle_rule_oracle_ngon(self):
        # Independent enumeration for odd n: count triples inside an open
        # semicircle directly from vertex indices.
        for n in (5, 7, 9, 11):
            pts = regular_ngon(n)
            expected_obtuse = 0
            import itertools
            for tri in itertools.combinations(range(n), 3):
                spans = []
                for k in range(3):
                    lo = tri[k]
                    others = [(tri[(k + 1) % 3] - lo) % n, (tri[(k + 2) % 3] - lo) % n]
                    spans.append(max(others))
                if min(spans) * 2 < n:
                    expected_obtuse += 1
            counts = count_classes(Configuration(points=pts))
            assert counts[O] == expected_obtuse
            assert counts[R] == 0 and counts[D] == 0

    def test_octahedron(self):
        pts = np.array(OCTAHEDRON_EXACT, dtype=float)
        counts = count_classes(Configuration(points=pts))
        assert counts == {A: 8, R: 12, O: 0, D: 0}

    def test_totals_random(self, rng):
        for d in (2, 3, 4):
            for n in (4, 7, 10):
                pts = rng.standard_normal((n, d))
                counts = count_classes(Configuration(points=pts))
                assert sum(counts.values()) == binom3(n)

    def test_count_nonacute(self):
        assert count_nonacute(Configuration(points=np.array(UNIT_SQUARE))) == 4
        assert count_nonacute(Configuration(points=regular_ngon(5))) == 5

    def test_equilateral_plus_centroid(self):
        # The centroid sees each side at 120 degrees: three obtuse triples.
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
        centroid = tri.mean(axis=0)
        counts = count_classes(Configuration(points=np.vstack([tri, centroid])))
        assert counts[O] == 3
        assert count_nonacute(Configuration(points=np.vstack([tri, centroid]))) == 3


class TestCountingBounds:
    def test_random_configs_meet_planar_bound(self, rng):
        from obtri.bounds import closed_form_2d
        for _ in range(150):
            n = int(rng.integers(4, 11))
            pts = rng.standard_normal((n, 2))
            assert count_nonacute(Configuration(points=pts)) >= closed_form_2d(n)

    def test_random_configs_meet_3d_bound(self, rng):
        from obtri.bounds import closed_form_3d
        for _ in range(150):
            n = int(rng.integers(6, 11))
            pts = rng.standard_normal((n, 3))
            assert count_nonacute(Configuration(points=pts)) >= closed_form_3d(n)


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(points=np.zeros((2, 2)))           # too few points
        with pytest.raises(ValueError):
            Configuration(points=np.zeros((3, 1)))           # dimension 1
        with pytest.raises(ValueError):
            Configuration(points=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_json_roundtrip(self, tmp_path, rng):
        pts = rng.standard_normal((6, 3))
        config = Configuration(points=pts)
        path = tmp_path / "config.json"
        save_configuration(config, str(path))
        loaded = load_configuration(str(path))
        assert loaded.dim == 3 and loaded.n == 6
        assert np.array_equal(loaded.points, config.points)

    def test_signed_zeros_are_one_point(self):
        # 0.0 == -0.0, so (0, 0) and (-0, 0) are the same point even though
        # their bytes differ.
        with pytest.raises(ValueError, match="identical"):
            Configuration(points=np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="identical"):
            Configuration(points=np.array([[1.0, -0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))

    def test_json_dim_mismatch(self):
        with pytest.raises(ValueError):
            Configuration.from_json('{"dim": 3, "points": [[0,0],[1,0],[0,1]]}')

    @pytest.mark.parametrize("text", ['{"points": [[0,0],[1,0],[0,1]]}', '{"dim": 2}', '[]', '3'])
    def test_json_without_dim_or_points(self, text):
        with pytest.raises(ValueError, match="needs 'dim' and 'points'"):
            Configuration.from_json(text)


class TestThinTriangleRobustness:
    def test_needle_area_not_degenerate(self):
        # Two points 2e-9 apart near (2e-4, 0.02) and one far point: the area
        # (~1e-11) is far above tol * scale; naive Gram-determinant area
        # underflows to zero here.
        a = (1.0, -1e-6)
        b = (2.0e-4, 0.02)
        c = (2.0e-4 + 1.95e-9, 0.02)
        assert classify_triangle(a, b, c) is not D

    def test_batch_matches_scalar(self, rng):
        pts = rng.standard_normal((60, 3, 4))
        codes = classify_batch(pts[:, 0], pts[:, 1], pts[:, 2])
        for row, code in zip(pts, codes):
            assert classify_triangle(row[0], row[1], row[2]).value == \
                [A, R, O, D][code].value


def _count_classes_one_batch(config, tol=1e-12):
    """Reference: every triple from ``itertools.combinations`` in one batch."""
    idx = np.array(list(itertools.combinations(range(config.n), 3)), dtype=np.intp)
    pts = config.points
    codes = classify_batch(pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]], tol)
    binc = np.bincount(codes, minlength=4)
    return {A: int(binc[0]), R: int(binc[1]), O: int(binc[2]), D: int(binc[3])}


class TestTripleBlocks:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 11, 23])
    def test_combinations_order(self, n):
        blocks = list(triple_blocks(n))
        assert len(blocks) == n - 2
        assert [b[0, 0] for b in blocks] == list(range(n - 2))
        assert all(b.shape == (binom3(n - i) - binom3(n - i - 1), 3) for i, b in enumerate(blocks))
        got = [tuple(int(x) for x in row) for b in blocks for row in b]
        assert got == list(itertools.combinations(range(n), 3))


class TestMeasureBatch:
    def test_min_abs_dot_and_scale(self, rng):
        for d in (2, 3, 5):
            pts = rng.standard_normal((200, 3, d))
            a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
            _, min_abs, scale = measure_batch(a, b, c)
            dots = [np.sum((b - a) * (c - a), axis=1), np.sum((a - b) * (c - b), axis=1),
                    np.sum((a - c) * (b - c), axis=1)]
            assert np.allclose(min_abs, np.min(np.abs(dots), axis=0), rtol=1e-12, atol=1e-14)
            edges = [np.sum((b - a) ** 2, axis=1), np.sum((c - a) ** 2, axis=1),
                     np.sum((c - b) ** 2, axis=1)]
            assert np.allclose(scale, np.max(edges, axis=0), rtol=1e-12)

    def test_block_form_errors(self, rng):
        tri = rng.standard_normal((5, 3, 2))
        with pytest.raises(ValueError):
            measure_batch(tri[:, 0], tri[:, 1])              # b without c
        with pytest.raises(ValueError):
            measure_batch(tri, 1e-12)                        # positional tol
        with pytest.raises(ValueError):
            classify_batch(tri, 1e-12)
        for shape in ((5, 2, 2), (5, 4, 3), (3,), (5, 3, 2, 1)):
            with pytest.raises(ValueError):
                measure_batch(np.zeros(shape), tol=1e-12)    # trailing shape not (3, d)

    def test_block_form_leading_shape(self, rng):
        tri = rng.standard_normal((4, 5, 3, 3))
        for got, want in zip(measure_batch(tri, tol=1e-12),
                             measure_batch(tri[..., 0, :], tri[..., 1, :], tri[..., 2, :], 1e-12)):
            assert got.shape == (4, 5)
            assert np.array_equal(got, want)


def _wide_rows(rng, shape):
    """Random rows with magnitudes from 1e-150 to 1e150 and some +0.0 and -0.0 entries."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-150.0, 150.0, size=shape)
    zero = rng.random(shape) < 0.15
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


class TestPlanarDotProducts:
    """At d = 2 the kernel writes its dot products as u0*v0 + u1*v1 instead of
    calling einsum; both round the same two products once."""

    def test_product_form_equals_einsum(self, rng):
        u, v = _wide_rows(rng, (50_000, 2)), _wide_rows(rng, (50_000, 2))
        got = _dot(u, v)
        want = np.einsum("...i,...i->...", u, v)
        assert np.array_equal(got, want)
        # einsum adds into a zeroed output, so it turns an exact -0.0 into
        # +0.0; adding +0.0 does the same and changes nothing else.
        assert np.array_equal((got + 0.0).view(np.int64), want.view(np.int64))
        assert np.any(np.signbit(got) & (got == 0.0))   # the case is exercised

    def test_kernel_outputs_equal_einsum_kernel(self, rng):
        tri = _wide_rows(rng, (50_000, 3, 2))
        tri[:4000] = rng.integers(-2, 3, size=(4000, 3, 2)) * np.where(
            rng.random((4000, 3, 2)) < 0.5, 1.0, -1.0)   # grid rows: right, collinear, -0.0
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        ab, ac, bc = b - a, c - a, c - b
        dot = lambda u, w: np.einsum("...i,...i->...", u, w)
        dots = (dot(ab, ac), -dot(ab, bc), dot(ac, bc))
        min_abs = np.minimum(np.abs(dots[0]), np.minimum(np.abs(dots[1]), np.abs(dots[2])))
        scale = np.maximum(dot(ab, ab), np.maximum(dot(ac, ac), dot(bc, bc)))
        for form in (measure_batch(a, b, c), measure_batch(tri, tol=1e-12)):
            codes, got_min_abs, got_scale = form
            assert np.array_equal(got_min_abs.view(np.int64), min_abs.view(np.int64))
            assert np.array_equal(got_scale.view(np.int64), scale.view(np.int64))
        assert {1, 2, 3} <= set(np.unique(codes[:4000]).tolist())


def _count_classes_per_triple(config, tol=1e-12):
    """Brute-force oracle: each ``itertools.combinations`` triple classified alone."""
    pts = config.points
    counts = {A: 0, R: 0, O: 0, D: 0}
    for i, j, k in itertools.combinations(range(config.n), 3):
        code = classify_batch(pts[i:i + 1], pts[j:j + 1], pts[k:k + 1], tol)[0]
        counts[[A, R, O, D][code]] += 1
    return counts


class TestCountClassesMatchesPerTriple:
    @pytest.mark.parametrize("n", [3, 4, 17, 40])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_gaussian(self, n, d, rng):
        config = Configuration(points=rng.standard_normal((n, d)))
        assert count_classes(config) == _count_classes_per_triple(config)

    @pytest.mark.parametrize("n", [3, 4, 17, 40])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_integer_grid(self, n, d, rng):
        # The first n points of a small integer grid in raster order, shuffled:
        # they fill whole lines (and from n = 17 on, more than one), so
        # collinear and right triples abound.
        side = {2: 7, 3: 4, 5: 3}[d]
        cells = rng.permutation(n)
        pts = np.array(np.unravel_index(cells, (side,) * d), dtype=float).T
        config = Configuration(points=pts)
        counts = count_classes(config)
        assert counts == _count_classes_per_triple(config)
        assert count_classes(config, tol=0.0) == _count_classes_per_triple(config, tol=0.0)
        assert counts[D] > 0
        if n >= 17:
            assert counts[R] > 0


class TestCountClassesMatchesOneBatch:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small(self, n, rng):
        for d in (2, 3):
            config = Configuration(points=rng.standard_normal((n, d)))
            assert count_classes(config) == _count_classes_one_batch(config)

    def test_random_up_to_sixty(self, rng):
        for _ in range(8):
            n = int(rng.integers(6, 61))
            d = int(rng.integers(2, 6))
            config = Configuration(points=rng.standard_normal((n, d)))
            assert count_classes(config) == _count_classes_one_batch(config)

    def test_lattice_with_collinear_and_right_triples(self):
        grid = np.array([(x, y) for x in range(5) for y in range(5)], dtype=float)
        config = Configuration(points=grid)
        counts = count_classes(config)
        assert counts == _count_classes_one_batch(config)
        assert counts[R] > 0 and counts[D] > 0 and counts[O] > 0 and counts[A] > 0
        assert count_classes(config, tol=0.0) == _count_classes_one_batch(config, tol=0.0)
