import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import OCTAHEDRON_EXACT, UNIT_SQUARE, random_rotation, regular_ngon
from test_sampler_fixtures import measure_triples
from obtri import geometry
from obtri.bounds import binom3
from obtri.geometry import (
    Configuration,
    TriangleClass,
    TripleGather,
    _coordinate_measures,
    _gathered_measures,
    _lagged_edges,
    classify_batch,
    classify_exact,
    classify_triangle,
    count_classes,
    count_nonacute,
    measure_batch,
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

    def test_signed_zeros_are_one_point(self):
        # 0.0 == -0.0, so (0, 0) and (-0, 0) are the same point even though
        # their bytes differ.
        with pytest.raises(ValueError, match="identical"):
            Configuration(points=np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="identical"):
            Configuration(points=np.array([[1.0, -0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))


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
        # Vertex form: only leading axes broadcast, so a vertex with another
        # trailing length is a dimension mismatch, not a broadcast point.
        rows_b, rows_c = [[1, 0, 0], [0, 2, 0]], [[0, 1, 0], [0, 0, 3]]
        for a in (np.zeros(1), np.zeros((2, 1))):
            for f in (measure_batch, classify_batch):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    f(a, rows_b, rows_c, 1e-12)
                with pytest.raises(ValueError, match="dimension mismatch"):
                    f(rows_b, rows_c, a, 1e-12)

    def test_block_form_leading_shape(self, rng):
        # Both forms of a block with leading axes, contiguous or reversed,
        # give the flattened (m, 3, d) block's bytes in the leading shape.
        for d, lead in itertools.product((1, 2, 3, 4, 10), ((4, 5), (0,))):
            blocks = rng.standard_normal(lead + (3, d))
            for tri in (blocks, blocks[::-1]):
                want = measure_batch(tri.reshape(-1, 3, d), tol=1e-12)
                for form in (measure_batch(tri, tol=1e-12),
                             measure_batch(tri[..., 0, :], tri[..., 1, :], tri[..., 2, :], 1e-12)):
                    for got, flat in zip(form, want, strict=True):
                        assert got.shape == lead and got.dtype == flat.dtype, (d, lead)
                        assert got.tobytes() == flat.tobytes(), (d, lead)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10, 40])
    def test_block_size_invariance(self, d):
        # The kernel's result for a triple does not depend on the block it
        # comes in: blocks of one, two, the annealing search's 15 and 171,
        # the small-block cut-over and one row more, and a Monte Carlo chunk
        # of 4,096 rows give the bytes of one whole call, in both forms.  In
        # R^2 and R^3 the whole call and the larger blocks take the per-pass
        # products, the smaller blocks the gathered ones.  The triples hold
        # needles, far-off, collinear and coincident ones.
        a, b, c = (np.resize(x, (4200, d)) for x in measure_triples(d))
        tri = np.stack([a, b, c], axis=1)
        whole = measure_batch(tri, tol=1e-12)
        for size in (1, 2, 15, 171, geometry._SMALL_BLOCK, geometry._SMALL_BLOCK + 1, 4096):
            for start in range(0, len(tri), size):
                part = slice(start, start + size)
                for form in (measure_batch(tri[part], tol=1e-12),
                             measure_batch(a[part], b[part], c[part], 1e-12)):
                    for got, want in zip(form, whole, strict=True):
                        assert got.tobytes() == want[part].tobytes(), (size, start)

    @pytest.mark.parametrize("d", [2, 3])
    def test_special_values_on_both_paths(self, d, monkeypatch):
        # Signed zeros, huge and tiny magnitudes, infinities and NaNs give
        # the same bytes, NaN signs included, whether a block takes the
        # gathered products (cut-over above the block) or the per-pass ones
        # (cut-over 0): in block form, in vertex form and with a broadcast
        # vertex.
        values = [0.0, -0.0, 1e200, -1e200, 1e-200, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(d)
        tri = rng.choice(values, size=(3000, 3, d))
        tri[:len(values), 0] = np.array(values)[:, None]  # every value in every coordinate of a
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        gathered = []  # the row count of each block that took the gathered path

        def spy(edges):
            gathered.append(edges.shape[-1])
            return _gathered_measures(edges)

        monkeypatch.setattr(geometry, "_gathered_measures", spy)
        results = {}
        with np.errstate(all="ignore"):
            for cut in (0, len(tri)):
                monkeypatch.setattr(geometry, "_SMALL_BLOCK", cut)
                results[cut] = [measure_batch(tri, tol=1e-12), measure_batch(a, b, c, 1e-12),
                                measure_batch(a[7], b, c, 1e-12)]
        assert gathered == [len(tri)] * 3
        for per_pass, small in zip(results[0], results[len(tri)], strict=True):
            for x, y in zip(per_pass, small, strict=True):
                assert x.tobytes() == y.tobytes()
        assert np.isnan(results[0][0][2]).any() and np.isinf(results[0][0][2]).any()

    @pytest.mark.parametrize("d", [2, 3, 4, 10])
    def test_block_peak_memory(self, d):
        # One 4,096-row block, as every Monte Carlo chunk, holds its edges,
        # products and scratch rows, and a few bytes per triple for the
        # codes and masks: no further (m,) float temporary, and no fresh
        # (d, 3, m) one.  In R^2 and R^3 that is the (d, 4, m) edge buffer
        # and six rows, (4d + 6) values per triple; from d = 4 on, the three
        # (m, d) edges, the dot products and the squared lengths, (3d + 6).
        m = 4096
        tri = np.random.default_rng(d).standard_normal((m, 3, d))
        measure_batch(tri, tol=1e-12)
        tracemalloc.start()
        try:
            measure_batch(tri, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_triple = 4 * d + 6 if d in (2, 3) else 3 * d + 6
        assert peak <= per_triple * 8 * m + 4 * m

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10])
    def test_single_triangle(self, d):
        tri = np.arange(3.0 * d).reshape(3, d) ** 1.5
        want = measure_batch(tri[None], tol=1e-12)
        for got in (measure_batch(tri, tol=1e-12), measure_batch(*tri, tol=1e-12)):
            for x, y in zip(got, want, strict=True):
                assert x.shape == () and x.dtype == y.dtype
                assert x.tobytes() == y.tobytes()


class TestLaggedEdges:
    """A C-contiguous block outside R^2 and R^3 takes ``_lagged_edges``:
    b - a and c - b from one subtraction over its flat buffer, c - a into the
    third slot.  Every other input takes the vertex path's three
    subtractions, and both give the same bytes."""

    DIMS = [1, 3, 4, 5, 10, 16, 40]

    @pytest.mark.parametrize("d", [1, 4, 5, 10, 16, 40])
    def test_edges_equal_vertex_subtractions(self, rng, d):
        a, b, c = measure_triples(d)
        tri = np.stack([a, b, c], axis=1) * np.where(rng.random((len(a), 3, d)) < 0.1, -0.0, 1.0)
        want = (tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0], tri[:, 2] - tri[:, 1])
        for got, edge in zip(_lagged_edges(tri), want, strict=True):
            assert got.shape == edge.shape
            assert got.tobytes() == edge.tobytes()
        for m in (0, 1, 2):   # the last triple's third slot has no next triple
            for got, edge in zip(_lagged_edges(tri[:m]), want, strict=True):
                assert got.tobytes() == edge[:m].tobytes()

    @pytest.mark.parametrize("d", DIMS)
    def test_every_form_gives_the_same_bytes(self, d):
        a, b, c = (np.resize(x, (4200, d)) for x in measure_triples(d))
        tri = np.stack([a, b, c], axis=1)
        want = measure_batch(a, b, c, 1e-12)
        forms = {
            "block": measure_batch(tri, tol=1e-12),
            "F-ordered block": measure_batch(np.asfortranarray(tri), tol=1e-12),
            # einsum sums a column-major row in another order, so the
            # kernel writes its edges in C order.
            "F-ordered vertices": measure_batch(*map(np.asfortranarray, (a, b, c)), 1e-12),
        }
        for name, form in forms.items():
            for got, flat in zip(form, want, strict=True):
                assert got.tobytes() == flat.tobytes(), name
        # Every other triple: a strided block, against its vertex form.
        strided = measure_batch(tri[::2], tol=1e-12)
        for got, flat in zip(strided, measure_batch(a[::2], b[::2], c[::2], 1e-12), strict=True):
            assert got.tobytes() == flat.tobytes()
        # A broadcast vertex, against the block that spells it out.
        block = np.stack(np.broadcast_arrays(a[7], b, c), axis=1)
        for got, flat in zip(measure_batch(a[7], b, c, 1e-12), measure_batch(block, tol=1e-12),
                             strict=True):
            assert got.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("d", DIMS)
    def test_only_contiguous_blocks_take_the_fill(self, monkeypatch, d):
        calls = []
        monkeypatch.setattr(geometry, "_lagged_edges",
                            lambda tri: calls.append(tri.shape) or _lagged_edges(tri))
        tri = np.random.default_rng(d).standard_normal((64, 3, d))
        measure_batch(tri, tol=1e-12)
        fills = d not in (2, 3)
        assert calls == ([(64, 3, d)] if fills else [])
        for vertex_path in (np.asfortranarray(tri), tri[::2]):
            measure_batch(vertex_path, tol=1e-12)
        measure_batch(tri[:, 0], tri[:, 1], tri[:, 2], 1e-12)
        measure_batch(tri[0, 0], tri[:, 1], tri[:, 2], 1e-12)
        assert len(calls) == fills


class TestTripleGather:
    """``TripleGather`` gathers each triple's edges straight from the points,
    and every output has the bytes of the block form on the same triples."""

    SPECIAL = [0.0, -0.0, 1e200, -1e200, 1e-200, math.inf, -math.inf, math.nan]

    @staticmethod
    def point_sets(d):
        rng = np.random.default_rng(100 + d)
        n = 40
        plain = rng.standard_normal((n, d))
        plain[:8] += 1e6                                  # large common coordinates
        plain[8:12] = np.arange(4.0)[:, None] * plain[12]  # collinear with a common point
        plain[13] = plain[14]                             # coincident
        plain[15] = plain[16] + 1e-9 * plain[17]          # a needle's near end
        special = np.where(rng.random((n, d)) < 0.3, rng.choice(TestTripleGather.SPECIAL, (n, d)),
                           rng.standard_normal((n, d)))
        special[:len(TestTripleGather.SPECIAL)] = np.array(TestTripleGather.SPECIAL)[:, None]
        return rng, {"plain": plain, "special": special}

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-2])
    @pytest.mark.parametrize("d", [2, 3, 4, 10])
    def test_bytes_equal_block_form(self, d, tol):
        # Blocks of one row, the search's 15 and 171, the small-block
        # cut-over and one row more, and a Monte Carlo chunk's 4,096; random
        # triples, which repeat an index now and then, and triples that
        # repeat one on purpose.
        rng, sets = self.point_sets(d)
        repeats = np.array([[5, 5, 7], [9, 20, 20], [30, 31, 30], [3, 3, 3]])
        with np.errstate(all="ignore"):
            for m in (1, 15, 171, geometry._SMALL_BLOCK, geometry._SMALL_BLOCK + 1, 4096):
                triples = rng.integers(0, 40, size=(m, 3))
                triples[:4] = repeats[:m]
                for name, pts in sets.items():
                    want = measure_batch(pts[triples], tol=tol)
                    got = TripleGather(triples, 40, d).measure(pts, tol)
                    for x, y in zip(got, want, strict=True):
                        assert x.shape == y.shape == (m,) and x.dtype == y.dtype, (name, m)
                        assert x.tobytes() == y.tobytes(), (name, m)
            codes = TripleGather(repeats, 40, d).measure(sets["plain"], tol)[0]
            assert codes.tolist() == [3, 3, 3, 3]             # coincident vertices are degenerate

    def test_special_values_are_exercised(self):
        _, sets = self.point_sets(3)
        triples = np.array(list(itertools.combinations(range(12), 3)))
        with np.errstate(all="ignore"):
            codes, _, scale = TripleGather(triples, 40, 3).measure(sets["special"], 1e-12)
        assert np.isnan(scale).any() and np.isinf(scale).any()
        assert {0, 3} <= set(codes.tolist())

    def test_refusals(self):
        ok = np.array([[0, 1, 2]])
        for bad in ([[0, 1, 3]], [[-1, 1, 2]]):
            with pytest.raises(ValueError, match=r"^a triple names a point outside 0\.\.2$"):
                TripleGather(bad, 3, 2)
        for shape in ((3,), (1, 2), (1, 4), (1, 3, 1), (0,)):
            with pytest.raises(ValueError, match=r"^triples have shape \(m, 3\)"):
                TripleGather(np.zeros(shape, dtype=np.intp), 3, 2)
        for bad in (np.array([[0.0, 1.0, 2.0]]), np.array([[True, False, True]])):
            with pytest.raises(TypeError, match="integer indices"):
                TripleGather(bad, 3, 2)
        with pytest.raises(TypeError, match="^dimension must be an integer, got True$"):
            TripleGather(ok, 3, True)
        with pytest.raises(TypeError, match="^n must be an integer, got True$"):
            TripleGather(ok, True, 2)
        for d in (2, 4):
            gather = TripleGather(ok, 3, d)
            for shape in ((3, d + 1), (4, d), (2, d), (3 * d,), (3, d, 1), (1, 3, d)):
                with pytest.raises(ValueError, match=rf"^points have shape \(3, {d}\), got"):
                    gather.measure(np.zeros(shape), 1e-12)
            with pytest.raises(ValueError, match="tol must be finite"):
                gather.measure(np.zeros((3, d)), -1.0)
            assert gather.measure(np.eye(3, d), 0.0)[0].tolist() == [0 if d > 2 else 1]


def _wide_rows(rng, shape):
    """Random rows with magnitudes from 1e-150 to 1e150 and some +0.0 and -0.0 entries."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-150.0, 150.0, size=shape)
    zero = rng.random(shape) < 0.15
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


class TestPlanarDotProducts:
    """At d = 2 and d = 3 the kernel sums its dot products and squared
    lengths over coordinate-major edge rows, in ``einsum``'s order written
    out: p0 + p1 and (p0 + p2) + p1."""

    def test_product_form_equals_einsum(self, rng):
        tri = _wide_rows(rng, (50_000, 3, 2))
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        ab, ac, bc = b - a, c - a, c - b
        dot = lambda u, w: np.einsum("...i,...i->...", u, w)
        got = _coordinate_measures(a, b, c)[0]
        want = (dot(ab, ac), -dot(ab, bc), dot(ac, bc))
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
            # Only an exact zero's sign may differ (einsum adds into a zeroed
            # output, and b's dot product is taken on the negated edge ba);
            # adding +0.0 makes every zero +0.0 and changes nothing else.
            assert np.array_equal((g + 0.0).view(np.int64), (w + 0.0).view(np.int64))
        assert np.any(np.signbit(got[0]) & (got[0] == 0.0))   # the case is exercised

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

    def test_spatial_outputs_equal_written_out_sums(self, rng):
        # Three terms round twice, so the order matters: the kernel adds
        # (p0 + p2) + p1 whatever numpy's SIMD dispatch would do.
        tri = _wide_rows(rng, (50_000, 3, 3)) * 1e-75   # squared cross products stay finite
        tri[:4000] = rng.integers(-2, 3, size=(4000, 3, 3)) * np.where(
            rng.random((4000, 3, 3)) < 0.5, 1.0, -1.0)
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        ab, ac, bc = b - a, c - a, c - b
        dot = lambda u, w: (u[:, 0] * w[:, 0] + u[:, 2] * w[:, 2]) + u[:, 1] * w[:, 1]
        dots = (dot(ab, ac), -dot(ab, bc), dot(ac, bc))
        min_abs = np.minimum(np.abs(dots[0]), np.minimum(np.abs(dots[1]), np.abs(dots[2])))
        scale = np.maximum(dot(ab, ab), np.maximum(dot(ac, ac), dot(bc, bc)))
        for form in (measure_batch(a, b, c), measure_batch(tri, tol=1e-12)):
            codes, got_min_abs, got_scale = form
            assert np.array_equal(got_min_abs.view(np.int64), min_abs.view(np.int64))
            assert np.array_equal(got_scale.view(np.int64), scale.view(np.int64))
        assert {1, 2, 3} <= set(np.unique(codes[:4000]).tolist())
        # Wide magnitudes make the orders differ on some rows, so the test
        # tells (p0 + p2) + p1 from a left-to-right sum.
        left = (ab[:, 0] * ac[:, 0] + ab[:, 1] * ac[:, 1]) + ab[:, 2] * ac[:, 2]
        assert np.any(left != dots[0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10])
    def test_broadcast_vertex_equals_block_form(self, rng, d):
        # count_classes passes point i as one (d,) vertex with (m, d) ends.
        # Vertices of mixed shapes, or stride-0 views of their common shape,
        # give the flattened (m, 3, d) block's bytes in the broadcast shape.
        for shapes in (((), (300,), (300,)), ((4, 1), (1, 5), (5,))):
            a, b, c = (rng.standard_normal(s + (d,)) for s in shapes)
            tri = np.stack(np.broadcast_arrays(a, b, c), axis=-2).reshape(-1, 3, d)
            want = measure_batch(tri, tol=1e-12)
            for vertices in ((a, b, c), np.broadcast_arrays(a, b, c)):
                for got, flat in zip(measure_batch(*vertices, 1e-12), want, strict=True):
                    assert got.shape == np.broadcast_shapes(*shapes), shapes
                    assert got.tobytes() == flat.tobytes(), shapes

    def test_line_keeps_row_kernel(self, rng):
        # d = 1 stays on the row kernel: one-term dot products, Heron's area.
        tri = rng.standard_normal((500, 3, 1))
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        ab, ac, bc = (b - a)[:, 0], (c - a)[:, 0], (c - b)[:, 0]
        min_abs = np.minimum(np.abs(ab * ac), np.minimum(np.abs(ab * bc), np.abs(ac * bc)))
        scale = np.maximum(ab * ab, np.maximum(ac * ac, bc * bc))
        for codes, got_min_abs, got_scale in (measure_batch(a, b, c), measure_batch(tri, tol=1e-12)):
            assert set(np.unique(codes).tolist()) == {2, 3}   # a 180-degree angle, or none
            assert np.array_equal(got_min_abs.view(np.int64), min_abs.view(np.int64))
            assert np.array_equal(got_scale.view(np.int64), scale.view(np.int64))


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
