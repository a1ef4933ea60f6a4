import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import OCTAHEDRON_EXACT, UNIT_SQUARE_EXACT
from obtri.bounds import closed_form_2d
from obtri.geometry import Configuration, TriangleClass, class_counts, classify_batch
from obtri.search import (
    SCALE_FINAL,
    SCALE_INITIAL,
    T_FINAL,
    T_INITIAL,
    SearchParams,
    SearchResult,
    _initial_points,
    cross_polytope,
    enumerate_exact,
    closed_form_bound,
    regular_polygon,
    search_min,
)

FAST = dict(iterations=4000, restarts=3)


class TestEnumerateExact:
    def test_square_certified(self):
        res = enumerate_exact(UNIT_SQUARE_EXACT)
        assert res.exact_coordinates
        assert res.count(TriangleClass.OBTUSE) == 0
        assert res.count(TriangleClass.RIGHT) == 4
        assert res.nonacute() == 4

    def test_octahedron_certified(self):
        res = enumerate_exact(OCTAHEDRON_EXACT)
        assert res.exact_coordinates
        assert res.count(TriangleClass.OBTUSE) == 0
        assert res.count(TriangleClass.RIGHT) == 12
        assert res.count(TriangleClass.ACUTE) == 8

    def test_float_input_flagged(self):
        pts = regular_polygon(7)          # float coordinates
        res = enumerate_exact([tuple(p) for p in pts])
        assert not res.exact_coordinates
        # semicircle rule: the regular 7-gon has 7 * C(3, 2) = 21 obtuse
        assert res.count(TriangleClass.OBTUSE) == 21

    def test_fraction_input_exact(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
               (Fraction(1), Fraction(1, 1000))]
        res = enumerate_exact(pts)
        assert res.exact_coordinates
        assert res.count(TriangleClass.OBTUSE) == 1

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            enumerate_exact([(0, 0), (1, 1)])


class TestClosedFormBound:
    def test_values(self):
        assert closed_form_bound(4, 2) == closed_form_2d(4) == 1
        assert closed_form_bound(7, 2) == 11
        assert closed_form_bound(6, 3) == 1
        assert closed_form_bound(3, 2) is None
        assert closed_form_bound(5, 3) is None
        assert closed_form_bound(8, 4) is None


class TestSearchMin:
    def test_square_strict_obtuse_attains_zero(self):
        params = SearchParams(n=4, d=2, mode="strict-obtuse", seed=7, **FAST)
        result = search_min(params)
        assert result.best_count == 0

    def test_square_nonacute_attains_one(self):
        params = SearchParams(n=4, d=2, mode="non-acute", seed=7, **FAST)
        result = search_min(params)
        assert result.bound == 1
        assert result.best_count == 1     # near-square with one angle pushed obtuse

    def test_octahedron_strict_obtuse_attains_zero(self):
        params = SearchParams(n=6, d=3, mode="strict-obtuse", seed=11, **FAST)
        result = search_min(params)
        assert result.best_count == 0

    def test_octahedron_nonacute_bound(self):
        params = SearchParams(n=6, d=3, mode="non-acute", seed=11, **FAST)
        result = search_min(params)
        assert result.bound == 1
        assert result.best_count >= 1

    def test_seven_points_planar(self):
        params = SearchParams(n=7, d=2, mode="non-acute", seed=3, **FAST)
        result = search_min(params)
        assert result.bound == 11
        # regular 7-gon warm start gives 21; search may improve toward 11
        assert 11 <= result.best_count <= 21

    def test_never_below_bound_sweep(self):
        for n, d, seed in [(4, 2, 1), (5, 2, 2), (6, 2, 3), (6, 3, 4), (7, 3, 5)]:
            params = SearchParams(n=n, d=d, mode="non-acute", seed=seed,
                                  iterations=1500, restarts=2)
            result = search_min(params)
            assert result.best_count >= result.bound

    def test_reproducible(self):
        params = SearchParams(n=5, d=2, seed=21, iterations=800, restarts=2)
        a = search_min(params)
        b = search_min(params)
        assert np.array_equal(a.best.points, b.best.points)
        assert a.best_count == b.best_count

    def test_monotone_in_restarts(self):
        base = dict(n=6, d=2, seed=5, iterations=1200)
        bests = []
        for restarts in (1, 2, 4):
            result = search_min(SearchParams(restarts=restarts, **base))
            bests.append(result.best_count)
        assert bests[1] <= bests[0]
        assert bests[2] <= bests[1]

    def test_per_restart_recorded(self):
        result = search_min(SearchParams(n=4, d=2, seed=9, iterations=500, restarts=3))
        assert len(result.per_restart) == 3
        assert min(result.per_restart) == result.best_count

    def test_result_json(self):
        result = search_min(SearchParams(n=4, d=2, seed=9, iterations=300, restarts=1))
        obj = json.loads(json.dumps(result.to_dict()))
        assert obj["best_count"] == result.best_count
        assert len(obj["points"]) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(n=2, d=2)
        with pytest.raises(ValueError):
            SearchParams(n=4, d=1)
        with pytest.raises(ValueError):
            SearchParams(n=4, d=2, mode="banana")


class TestWarmStarts:
    def test_regular_polygon(self):
        pts = regular_polygon(5)
        assert pts.shape == (5, 2)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_cross_polytope(self):
        pts = cross_polytope(3)
        assert pts.shape == (6, 3)
        res = enumerate_exact([tuple(int(round(x)) for x in p) for p in pts])
        assert res.count(TriangleClass.OBTUSE) == 0


class TestCertifyResultJson:
    def test_roundtrip_certification(self):
        from obtri.search import certify_result_json
        result = search_min(SearchParams(n=4, d=2, mode="strict-obtuse", seed=7,
                                         iterations=2000, restarts=2))
        cert = certify_result_json(json.dumps(result.to_dict()))
        assert not cert.exact_coordinates      # floats from the search
        # tolerance-based Right triples may be exactly (microscopically)
        # obtuse or acute for the stored rationals; the exact obtuse count
        # can only exceed the search's by triples the search called Right
        tol_obtuse = result.counts[TriangleClass.OBTUSE]
        tol_right = result.counts[TriangleClass.RIGHT]
        assert tol_obtuse <= cert.count(TriangleClass.OBTUSE) <= tol_obtuse + tol_right
        # the non-acute total is tolerance-robust here
        assert cert.nonacute() >= result.best_count


    def test_certifies_cli_output_file(self, tmp_path):
        from obtri.cli import EXIT_OK, main
        from obtri.search import certify_result_json
        path = tmp_path / "search.json"
        assert main(["search", "--n", "6", "--dim", "3", "--iterations", "300",
                     "--restarts", "1", "--seed", "5", "--output", str(path)]) == EXIT_OK
        result = json.loads(path.read_text())["result"]
        cert = certify_result_json(path.read_text())
        assert cert == enumerate_exact(result["points"])
        assert sum(cert.counts.values()) == 20
        assert cert.nonacute() >= result["bound"]

    def test_points_of_unequal_dimension(self):
        from obtri.search import certify_result_json
        with pytest.raises(ValueError, match="dimension mismatch"):
            certify_result_json('{"result": {"points": [[0,0],[1],[0,1]]}}')

    @pytest.mark.parametrize("text", ['{"manifest": {}, "result": {}}', '{"n": 4}', '[]'])
    def test_document_without_points(self, text):
        from obtri.search import certify_result_json
        with pytest.raises(ValueError, match="no points"):
            certify_result_json(text)


def _evaluate_all(points, idx, mode, tol):
    """Objective count and minimum normalized margin, recomputed over every triple."""
    a, b, c = points[idx[:, 0]], points[idx[:, 1]], points[idx[:, 2]]
    codes = classify_batch(a, b, c, tol)
    vec = np.bincount(codes, minlength=4)
    ab = b - a
    ac = c - a
    bc = c - b
    dot_a = np.einsum("ij,ij->i", ab, ac)
    dot_b = -np.einsum("ij,ij->i", ab, bc)
    dot_c = np.einsum("ij,ij->i", ac, bc)
    scale = np.maximum(np.einsum("ij,ij->i", ab, ab),
                       np.maximum(np.einsum("ij,ij->i", ac, ac),
                                  np.einsum("ij,ij->i", bc, bc)))
    min_abs = np.minimum(np.abs(dot_a), np.minimum(np.abs(dot_b), np.abs(dot_c)))
    margin = float(np.min(min_abs / np.maximum(scale, 1e-300)))
    count = vec[2] if mode == "strict-obtuse" else vec[1] + vec[2] + vec[3]
    return int(count), margin


def search_min_full_recompute(params):
    """Reference annealing loop: every move re-classifies all C(n, 3) triples.

    Same RNG draws, acceptance rule and per-triple formulas as ``search_min``.
    """
    idx = np.array(list(combinations(range(params.n), 3)), dtype=np.intp)
    cool = (T_FINAL / T_INITIAL) ** (1.0 / max(1, params.iterations - 1))
    shrink = (SCALE_FINAL / SCALE_INITIAL) ** (1.0 / max(1, params.iterations - 1))
    best_pts, best_count, best_margin = None, None, -1.0
    per_restart = []
    for restart in range(params.restarts):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((params.seed, restart))))
        pts = np.array(_initial_points(rng, params, restart), dtype=float)
        count, margin = _evaluate_all(pts, idx, params.mode, params.tol)
        local_pts, local_count, local_margin = pts.copy(), count, margin
        temp = T_INITIAL
        sigma = SCALE_INITIAL
        diameter = float(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1))) * 2.0 or 1.0
        for _ in range(params.iterations):
            k = int(rng.integers(0, params.n))
            step = rng.standard_normal(params.d) * sigma * diameter
            old = pts[k].copy()
            pts[k] = old + step
            cand_count, cand_margin = _evaluate_all(pts, idx, params.mode, params.tol)
            if cand_count < count:
                accept = True
            elif cand_count == count:
                accept = cand_margin >= margin
            else:
                accept = rng.random() < math.exp((count - cand_count) / temp)
            if accept:
                count, margin = cand_count, cand_margin
                if count < local_count or (count == local_count and margin > local_margin):
                    local_pts, local_count, local_margin = pts.copy(), count, margin
            else:
                pts[k] = old
            temp *= cool
            sigma *= shrink
        per_restart.append(local_count)
        if (best_count is None or local_count < best_count
                or (local_count == best_count and local_margin > best_margin)):
            best_pts, best_count, best_margin = local_pts, local_count, local_margin
    a, b, c = best_pts[idx[:, 0]], best_pts[idx[:, 1]], best_pts[idx[:, 2]]
    return SearchResult(
        params=params,
        best=Configuration(points=best_pts),
        best_count=int(best_count),
        counts=class_counts(np.bincount(classify_batch(a, b, c, params.tol), minlength=4)),
        margin=best_margin,
        bound=closed_form_bound(params.n, params.d) if params.mode == "non-acute" else None,
        per_restart=tuple(per_restart),
    )


class TestIncrementalMatchesFullRecompute:
    """search_min re-measures only the triples touching the moved point; its
    result must equal the full-recompute loop bit for bit."""

    @pytest.mark.parametrize("n, d, mode, seed", [
        (3, 2, "non-acute", 1),
        (4, 2, "strict-obtuse", 2),       # regular-polygon warm start (the square)
        (7, 2, "non-acute", 3),
        (20, 2, "non-acute", 4),
        (20, 2, "strict-obtuse", 5),
        (6, 3, "non-acute", 6),           # cross-polytope warm start (octahedron)
        (6, 3, "strict-obtuse", 7),
        (4, 3, "non-acute", 8),
        (7, 3, "strict-obtuse", 9),
        (20, 3, "non-acute", 10),
        (8, 4, "non-acute", 11),          # cross-polytope in R^4, Heron areas
    ])
    def test_identical_result(self, n, d, mode, seed):
        params = SearchParams(n=n, d=d, mode=mode, seed=seed, iterations=250, restarts=3)
        assert search_min(params).to_dict() == search_min_full_recompute(params).to_dict()

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["strict-obtuse", "non-acute"])
    def test_degenerate_triples_count_by_mode(self, mode, d):
        # A triangle's area is at most sqrt(3)/4 < 0.5 of its longest squared
        # edge, so at tol 0.5 every triple of every configuration is
        # degenerate: the strict count must leave them out, the non-acute
        # count must hold them all.
        params = SearchParams(n=6, d=d, mode=mode, seed=13, iterations=200, restarts=2, tol=0.5)
        result = search_min(params)
        counts = result.counts
        assert counts[TriangleClass.DEGENERATE] == 20
        if mode == "strict-obtuse":
            assert result.best_count == counts[TriangleClass.OBTUSE] == 0
        else:
            assert result.best_count == (counts[TriangleClass.RIGHT] + counts[TriangleClass.OBTUSE]
                                         + counts[TriangleClass.DEGENERATE])
        assert result.to_dict() == search_min_full_recompute(params).to_dict()

    def test_identical_with_loose_tolerance(self):
        # A wide Right band makes rejected moves and margin ties common.
        params = SearchParams(n=7, d=2, seed=12, iterations=300, restarts=2, tol=1e-2)
        assert search_min(params).to_dict() == search_min_full_recompute(params).to_dict()

    @pytest.mark.parametrize("n, d, mode, restarts, iterations, seed", [
        (7, 2, "non-acute", 1, 2000, 14),      # the benchmark's search shapes
        (20, 2, "non-acute", 1, 1500, 15),
        (20, 2, "strict-obtuse", 1, 1500, 16),
    ])
    def test_identical_at_benchmark_shapes(self, n, d, mode, restarts, iterations, seed):
        # Long runs cool far enough that most moves are rejected, on the
        # count alone or on a margin tie.
        params = SearchParams(n=n, d=d, mode=mode, seed=seed, iterations=iterations, restarts=restarts)
        assert search_min(params).to_dict() == search_min_full_recompute(params).to_dict()


class TestBenchmarkSearchesPinned:
    """The benchmark's two searches (perfbench's probe workload at its
    default seed), pinned bit for bit.  The full-recompute comparison above
    shares ``measure_batch`` with the search, so only a pin catches a change
    in the kernel's bits."""

    @pytest.mark.parametrize("n, iterations, seed, best_count, margin, digest", [
        (7, 2000, 3717377837946358015, 17, "0x1.fe594ed1341a1p-8",
         "2ab94c6b7ae4302308fbe48ee80857abdccc7f251fdac6e2b1c25acc4863dc45"),
        (20, 1500, 5003726031808922518, 677, "0x1.5684f19fb7453p-16",
         "c935cbf634fec71c39c62c1bf5f0522fb4f74b532e77566751b20674e1990017"),
    ])
    def test_pinned(self, n, iterations, seed, best_count, margin, digest):
        result = search_min(SearchParams(n=n, d=2, iterations=iterations, restarts=1, seed=seed))
        assert result.best_count == best_count
        assert result.per_restart == (best_count,)
        assert result.margin.hex() == margin
        assert hashlib.sha256(result.best.points.tobytes()).hexdigest() == digest
