import json
import math
import pathlib

import numpy as np
import pytest

from obtri import specfun, sphere
from obtri.geometry import classify_batch
from obtri.mc import _BLOCK
from obtri.sphere import (
    asymptotic_sphere,
    laplace_sphere,
    obtuse_given_angle,
    obtuse_prob_sphere,
    sample_sphere,
)


class TestObtuseGivenAngle:
    def test_d3_right_angle(self):
        # closed form at a = 1: I_z(1, 1/2) = 1 - sqrt(1-z)
        expected = 0.5 * (1.0 - math.sqrt(0.5)) + (1.0 - math.sqrt(0.5))
        assert obtuse_given_angle(math.pi / 2, 3) == pytest.approx(expected, abs=1e-13)

    def test_d2_affine_form(self):
        # On the circle the three-cap mass is 1 - theta/(2 pi).
        for theta in np.linspace(0.05, math.pi - 0.05, 25):
            assert obtuse_given_angle(float(theta), 2) == pytest.approx(
                1.0 - theta / (2.0 * math.pi), abs=1e-12)

    def test_d3_small_angle_limit(self):
        assert obtuse_given_angle(1e-8, 3) == pytest.approx(1.0, abs=1e-7)

    def test_complement_in_unit_interval(self, rng):
        for _ in range(100):
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            d = int(rng.integers(2, 30))
            p = obtuse_given_angle(theta, d)
            assert 0.0 <= p <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            obtuse_given_angle(0.0, 3)
        with pytest.raises(ValueError):
            obtuse_given_angle(1.0, 1)


# The integral of sin^{d-2} over (0, pi), the angle density's normalizer.
def sin_power_norm(d):
    return math.exp(sphere._log_sin_power_norm(d))


# Every public entry point of the module that takes a dimension.
DIMENSION_ENTRY_POINTS = {
    "obtuse_given_angle": lambda d: obtuse_given_angle(1.0, d),
    "obtuse_prob_sphere": obtuse_prob_sphere,
    "laplace_sphere": laplace_sphere,
    "asymptotic_sphere": asymptotic_sphere,
    "sample_sphere": lambda d: sample_sphere(d, np.random.default_rng(0)),
    "sphere_chunks": lambda d: sphere.sphere_chunks(d, np.random.default_rng(0), 4, 2),
}


@pytest.mark.parametrize("entry", DIMENSION_ENTRY_POINTS.values(), ids=DIMENSION_ENTRY_POINTS)
def test_dimension_must_be_an_integer_from_two(entry):
    for d in (3.5, 3.0):
        with pytest.raises(TypeError):
            entry(d)
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        entry(1)
    entry(np.int64(3))  # an integer-like dimension is accepted


class TestSinPowerNorm:
    def test_d2(self):
        assert sin_power_norm(2) == pytest.approx(math.pi, rel=1e-13)

    def test_d3(self):
        assert sin_power_norm(3) == pytest.approx(2.0, rel=1e-13)

    def test_d5_wallis(self):
        assert sin_power_norm(5) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_log_norm_against_40_digit_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for d in (2, 3, 10, 17, 80, 200, 851, 1000):
                exact = mp.log(mp.beta(mp.mpf(d - 1) / 2, 0.5))
                assert abs(sphere._log_sin_power_norm(d) - exact) <= 5e-15, d


class TestObtuseProbSphere:
    def test_d3_exactly_half(self):
        assert obtuse_prob_sphere(3) == pytest.approx(0.5, abs=1e-10)

    def test_d2_circle(self):
        assert obtuse_prob_sphere(2) == pytest.approx(0.75, abs=1e-10)

    def test_d5_hand_integrated(self):
        # 17/70, obtained by hand from the a = 2 closed form
        # I_z(2, 1/2) = 1 - (3/2) sqrt(1-z) + (1/2) (1-z)^(3/2).
        assert obtuse_prob_sphere(5) == pytest.approx(17.0 / 70.0, abs=1e-10)

    def test_strictly_decreasing_in_dimension(self):
        vals = [obtuse_prob_sphere(d) for d in range(2, 13)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_tolerance_tightening_stable(self):
        for d in (3, 6, 11):
            a = obtuse_prob_sphere(d, 1e-8)
            b = obtuse_prob_sphere(d, 1e-9)
            assert abs(a - b) <= 1e-8

    def test_mc_cross_check(self, rng):
        # Quadrature against direct triangle classification on the sphere,
        # the two fully independent routes to the same number.
        n = 1_000_000
        for d in (2, 3, 4, 6, 10):
            pts = sample_sphere(d, rng, 3 * n).reshape(n, 3, d)
            codes = classify_batch(pts[:, 0], pts[:, 1], pts[:, 2])
            p_hat = float(np.mean(codes == 2))
            p = obtuse_prob_sphere(d)
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(p_hat - p) <= 4.0 * sigma


class TestObtuseProbSphereFixtures:
    """Quadrature values against 30-digit mpmath references."""

    ROWS = json.loads((pathlib.Path(__file__).parent / "data" / "sphere_fixtures.json")
                      .read_text())["obtuse_prob_sphere"]

    @pytest.mark.parametrize("row", ROWS, ids=[f"d{row['d']}" for row in ROWS])
    def test_reference(self, row):
        got = obtuse_prob_sphere(row["d"])
        assert abs(got - row["expected"]) <= row["rtol"] * row["expected"], row["note"]

    def test_large_d_beyond_the_fixture_rtol(self):
        # Every row, large d included, is far inside the fixture rtol: with
        # log B((d-1)/2, 1/2) from log_gamma_half_ratio, the normalizer no
        # longer costs digits at large d (a difference of two log-gammas
        # gave up to 1.8e-13 at d = 200).
        for row in self.ROWS:
            got = obtuse_prob_sphere(row["d"])
            assert abs(got - row["expected"]) <= 2e-14 * row["expected"], row["d"]

    def test_d5_fixture_is_17_over_70(self):
        row = next(r for r in self.ROWS if r["d"] == 5)
        assert row["expected"] == 17 / 70


class TestObtuseProbSphereHighDimension:
    def test_returns_well_within_budget(self, monkeypatch):
        # The tolerance is relative to the Laplace scale, the true size of
        # the result, so the quadrature converges at every d with one
        # integrate call and a few hundred evaluations.
        calls = []

        def counting(*args, **kwargs):
            result = specfun.integrate(*args, **kwargs)
            calls.append(result.evaluations)
            return result

        monkeypatch.setattr(sphere, "integrate", counting)
        for d in (140, 200, 400, 1000):
            value = obtuse_prob_sphere(d)
            assert len(calls) == 1
            assert calls.pop() <= specfun.MAX_EVALUATIONS // 100
            assert 0.0 < value < laplace_sphere(d)


class TestLaplaceSphere:
    def test_ratio_tends_to_one_at_rate_one_over_d(self):
        # Laplace's method at theta* = 2 arctan(1/sqrt 2) and its mirror;
        # d * |ratio - 1| measures 0.88 at d = 10 and 1.3 at d = 1000.
        for d in (10, 40, 80, 140, 200, 400, 1000):
            ratio = obtuse_prob_sphere(d) / laplace_sphere(d)
            assert abs(ratio - 1.0) <= 1.5 / d, (d, ratio)

    def test_domain(self):
        with pytest.raises(ValueError):
            laplace_sphere(1)


class TestAsymptoticSphere:
    def test_d3_closed_form(self):
        assert asymptotic_sphere(3) == pytest.approx(1.5 * (1.0 - math.sqrt(0.5)), abs=1e-13)

    def test_d2(self):
        # I_{1/2}(1/2, 1/2) = 1/2 by symmetry
        assert asymptotic_sphere(2) == pytest.approx(0.75, abs=1e-13)

    def test_against_30_digit_mpmath(self):
        # One log B((d-1)/2, 1/2) from log_gamma_half_ratio: a difference of
        # log-gammas costs up to 2e-13 relative by d = 1000.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for d in [*range(2, 60), 80, 120, 200, 400, 1000]:
                expected = 1.5 * mp.betainc((d - 1) / mp.mpf(2), 0.5, 0, 0.5, regularized=True)
                assert abs(asymptotic_sphere(d) - expected) <= 5e-14 * expected, d

    def test_relative_gap_grows_with_dimension(self):
        # The plug-in value at theta = pi/2 underestimates by a factor that
        # grows with d: the angle density concentrates, but the cap masses
        # vary exponentially fast across the remaining angle spread.  Both
        # quantities tend to zero; their ratio does not tend to one.
        gaps = [abs(obtuse_prob_sphere(d) / asymptotic_sphere(d) - 1.0)
                for d in (10, 20, 40, 80)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestSampleSphere:
    def test_unit_norm(self, rng):
        for d in (2, 3, 7):
            pts = sample_sphere(d, rng, 1000)
            assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [*range(2, 34), 40, 80])
    def test_row_norms_equal_linalg_norm_bitwise(self, rng, d):
        # Seeded sphere points stay bit-identical only if this holds: every
        # d of the column form (below 16), and numpy's reduction beyond it.
        x = rng.standard_normal((20_000, d)) * np.exp(rng.uniform(-30.0, 30.0, size=(20_000, 1)))
        assert np.array_equal(sphere._row_norms(x), np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 16, 40, 200])
    def test_row_norms_equal_linalg_norm_at_the_edges(self, rng, d):
        # Magnitudes from about 1e-150 to 1e150, all-zero rows, -0.0 entries.
        x = rng.standard_normal((3_000, d)) * np.exp(rng.uniform(-345.0, 345.0, size=(3_000, 1)))
        x[:10] = 0.0
        x[10:20] = -0.0
        x[20:40, ::2] = -0.0
        x[40:60] = 1e150 * rng.standard_normal((20, d))
        x[60:80] = 1e-150 * rng.standard_normal((20, d))
        got = sphere._row_norms(x)
        want = np.linalg.norm(x, axis=1)
        assert np.array_equal(got, want)
        assert not np.signbit(got).any()

    def test_zero_norm_row_is_redrawn_after_the_rest(self):
        class Scripted:
            """Returns zeros for one row of the first draw, then the redraw."""
            def __init__(self, n):
                self.calls = []
                self.n = n

            def standard_normal(self, shape):
                self.calls.append(shape)
                if len(self.calls) == 1:
                    out = np.ones(shape)
                    out[self.n - 2] = 0.0
                    return out
                return np.full(shape, [3.0, 4.0])

        n = _BLOCK + 3  # the zero row sits in the second block
        fake = Scripted(n)
        pts = sample_sphere(2, fake, n)
        assert fake.calls == [(n, 2), (1, 2)]
        assert np.array_equal(pts[n - 2], [0.6, 0.8])
        assert np.array_equal(np.delete(pts, n - 2, axis=0), np.full((n - 1, 2), 1.0 / math.sqrt(2.0)))

    def test_zero_rows_redrawn_in_row_order_until_nonzero(self):
        # Two zero rows in different blocks; the first redraw of the earlier
        # one is zero again, so it is redrawn alone in a third call.
        n, rows = 2 * _BLOCK + 5, [7, _BLOCK + 1]
        first = np.full((n, 3), 2.0)
        first[rows] = -0.0
        script = [first, np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]]), np.array([[2.0, 3.0, 6.0]])]
        calls = []

        class Scripted:
            def standard_normal(self, shape):
                calls.append(shape)
                return script[len(calls) - 1].copy()

        pts = sample_sphere(3, Scripted(), n)
        assert calls == [(n, 3), (2, 3), (1, 3)]
        assert np.array_equal(pts[rows[0]], [2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0])
        assert np.array_equal(pts[rows[1]], [0.0, 0.6, 0.8])
        assert np.array_equal(np.delete(pts, rows, axis=0), np.full((n - 2, 3), 1.0 / math.sqrt(3.0)))

    def test_chunks_validate(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            sphere.sphere_chunks(1, rng, 10, 5)
        with pytest.raises(ValueError, match="chunk rows"):
            sphere.sphere_chunks(3, rng, 10, 0)

    def test_zero_rows_are_redrawn_inside_their_chunk(self):
        # Zero rows in chunks 0 and 2, and the earlier one's first redraw is
        # zero again: each chunk redraws its own zero rows, in row order
        # until none is zero, before the next chunk is drawn, and the chunks
        # come in row order.
        d, rows, n = 3, 6, 27
        first = np.arange(1.0, n * d + 1.0).reshape(n, d)
        first[[4, 14]] = 0.0
        stream = np.concatenate([first[:6].ravel(), [0.0, 0.0, 0.0, 2.0, 3.0, 6.0],
                                 first[6:18].ravel(), [0.0, 3.0, 4.0], first[18:].ravel()])

        class Scripted:
            """Serves ``stream`` in order, like a generator's draws."""
            def __init__(self):
                self.used = 0
                self.calls = []

            def standard_normal(self, shape=None, out=None):
                shape = out.shape if out is not None else shape
                self.calls.append((shape, out is not None))
                size = math.prod(shape)
                values = stream[self.used:self.used + size].reshape(shape)
                self.used += size
                if out is None:
                    return values.copy()
                out[...] = values
                return out

        rng = Scripted()
        chunks = [c.copy() for c in sphere.sphere_chunks(d, rng, n, rows)]
        assert rng.used == stream.size
        assert rng.calls == [((6, d), True), ((1, d), False), ((1, d), False), ((6, d), True),
                             ((6, d), True), ((1, d), False), ((6, d), True), ((3, d), True)]
        drawn = first.copy()
        drawn[4], drawn[14] = [2.0, 3.0, 6.0], [0.0, 3.0, 4.0]
        assert np.array_equal(np.concatenate(chunks), drawn / np.linalg.norm(drawn, axis=1)[:, None])
        assert np.array_equal(chunks[0][4], [2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0])
        assert np.array_equal(chunks[2][2], [0.0, 0.6, 0.8])

    def test_mean_near_zero(self, rng):
        n = 100_000
        pts = sample_sphere(3, rng, n)
        sigma = 1.0 / math.sqrt(3 * n)  # per-coordinate std is 1/sqrt(3)
        assert np.all(np.abs(pts.mean(axis=0)) < 5.0 * sigma)

    def test_obtuse_half_on_s2(self, rng):
        n = 300_000
        pts = sample_sphere(3, rng, 3 * n).reshape(n, 3, 3)
        codes = classify_batch(pts[:, 0], pts[:, 1], pts[:, 2])
        p_hat = float(np.mean(codes == 2))
        sigma = math.sqrt(0.25 / n)
        assert abs(p_hat - 0.5) <= 3.0 * sigma

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            sample_sphere(1, rng)
        with pytest.raises(ValueError):
            sample_sphere(3, rng, 0)
