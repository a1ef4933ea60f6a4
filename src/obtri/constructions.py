"""Extremal distributions: the planar three-arc construction and the
self-similar spherical-cap construction, plus the fixed-point analysis of
the latter's acute probability.

Planar three-arc construction
-----------------------------
Take an acute triangle A, B, C whose angles at A and B both equal
pi/2 - alpha (so the angle at C is 2*alpha), with A = (0,0), C = (1,0).
Put mass 1/3 on a short circular arc centered at each vertex, with arc
lengths delta, eps*delta, eps^2*delta at A, C, B.  Each arc is tangent to
the direction perpendicular to one triangle side (AC at A, CB at C, BA at
B) and curves toward the far endpoint of that side.

The defining trick is the choice of radii: by default the arc at a vertex
lies on the circle *centered at the vertex it pairs with* (the A-arc on the
circle centered at C, the C-arc on the circle centered at B, the B-arc on
the circle centered at A).  Two points of an arc are then equidistant from
the pairing vertex, so a triangle made of two same-arc points plus a point
near that vertex is isoceles with a tiny apex angle: its base angles sit
just under a right angle, and the curvature is exactly what keeps them
acute.  Triples on a single arc are always obtuse (three points on an arc
shorter than a semicircle), and in the small-parameter regime the acute
patterns are exactly: one point per arc, and the doubled patterns AAC, CCB,
BBA.  That accounting yields an acute probability of 5/9 - O(eps), i.e. an
obtuse probability approaching 4/9.

The small-parameter regime matters: the doubled-B pattern BBA survives only
while the angle deficit alpha is small compared to eps^2 (and delta small
compared to eps^2 as well), because the apex point at A wanders transverse
to BA by about delta*alpha/2 + delta^2/8, which must stay below the half
length eps^2*delta/2 of the B-arc.

Self-similar cap construction (R^3)
-----------------------------------
A point picks a level j with probability p*(1-p)^j and lands on a spherical
cap of radius rho^j around the origin (all caps share an axis); within the
cap it follows the planar three-arc layout mapped onto the sphere.  Because
any two points of a common level are exactly equidistant from the origin,
triples with two points at the shallowest level and one deeper are acute,
and the acute probability x solves

    x = 3(1-p)p^2 + (1-p)^3 x + (5/9) p^3.

Maximizing the closed-form solution over p gives p* = (22 - sqrt(133))/13
and x* = (2*sqrt(133) - 17)/9 ~ 0.673903, so obtuse triangles occur with
probability about 0.3261.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from obtri.geometry import DEFAULT_TOL, TriangleClass, class_counts
from obtri.mc import _BLOCK, DEFAULT_SHARD_SIZE, _blockwise, _chunk_bounds, _count_strata, wilson_interval
from obtri.sphere import sample_sphere, sphere_chunks

logger = logging.getLogger(__name__)

ACUTE_FRACTION_LIMIT = 5.0 / 9.0  # planar construction, small-parameter limit


@dataclass(frozen=True)
class ArcTripleParams:
    """Parameters of the planar three-arc distribution.

    alpha: angle deficit; the angles at A and B are pi/2 - alpha.
    delta: arc length at A (arcs at C and B have lengths eps*delta, eps^2*delta).
    eps: length ratio in (0, 1).
    radius_scale: arc radius as a multiple of the pairing distance
        (|AC| for the A-arc, |CB| for the C-arc, |BA| for the B-arc).
        1.0 puts each arc on the circle centered at its pairing vertex,
        which is what makes the doubled patterns acute.
    """

    alpha: float
    delta: float
    eps: float
    radius_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < math.pi / 8.0):
            raise ValueError(f"alpha must lie in (0, pi/8), got {self.alpha!r}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not (0.0 < self.radius_scale < math.inf):
            raise ValueError(f"radius_scale must be finite and > 0, got {self.radius_scale!r}")
        for name, extent in (("A", self.delta / (self.radius_scale * 1.0)),
                             ("C", self.eps * self.delta / (self.radius_scale * 1.0)),
                             ("B", self.eps ** 2 * self.delta /
                              (self.radius_scale * 2.0 * math.sin(self.alpha)))):
            if extent >= math.pi / 8.0:
                raise ValueError(f"angular extent of the {name}-arc is {extent:.3g} >= pi/8")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Arc:
    """A circular arc: midpoint ``vertex`` on the circle (center, radius)."""

    vertex: tuple[float, float]
    center: tuple[float, float]
    radius: float
    base_angle: float  # polar angle of vertex as seen from center
    length: float


def arc_points(u: np.ndarray, radius, base_angle, vx, vy) -> np.ndarray:
    """Points at signed arc-length offsets u along arcs, shape (n, 2).

    The arc parameters (radius, polar angle of the vertex seen from the
    center, vertex coordinates) are scalars for one arc or per-point arrays
    gathered from several.  Evaluated as vertex + chord offset using the
    half-angle identity, so coordinates keep full relative precision even
    for tiny arcs.
    """
    psi = u / radius
    half = 0.5 * psi
    two_r_sin = 2.0 * radius * np.sin(half)
    mid = base_angle + half
    dx = -two_r_sin * np.sin(mid)
    dy = two_r_sin * np.cos(mid)
    out = np.empty((psi.shape[0], 2))
    out[:, 0] = vx + dx
    out[:, 1] = vy + dy
    return out


@dataclass(frozen=True)
class ArcTripleGeometry:
    """Resolved geometry: triangle vertices and the three mass-bearing arcs."""

    params: ArcTripleParams
    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    arcs: dict  # keys "A", "C", "B"


def arc_triple_geometry(params: ArcTripleParams) -> ArcTripleGeometry:
    """Construct vertices and arcs for the planar three-arc distribution.

    A = (0,0), C = (1,0); B is placed so the interior angles at A and B both
    equal pi/2 - alpha.  Arc tangents are perpendicular to AC at A, to CB at
    C, and to BA at B; each arc curves toward the far endpoint of that side,
    with radius radius_scale times the distance to it.
    """
    al = params.alpha
    sa, ca = math.sin(al), math.cos(al)
    a = (0.0, 0.0)
    c = (1.0, 0.0)
    b = (2.0 * sa * sa, 2.0 * sa * ca)  # |AB| = 2 sin(alpha), |BC| = |AC| = 1

    def make_arc(vertex, toward, dist, length):
        ux = (toward[0] - vertex[0]) / dist
        uy = (toward[1] - vertex[1]) / dist
        radius = params.radius_scale * dist
        center = (vertex[0] + radius * ux, vertex[1] + radius * uy)
        base_angle = math.atan2(-uy, -ux)
        return Arc(vertex=vertex, center=center, radius=radius,
                   base_angle=base_angle, length=length)

    arcs = {
        "A": make_arc(a, c, 1.0, params.delta),
        "C": make_arc(c, b, 1.0, params.eps * params.delta),
        "B": make_arc(b, a, 2.0 * sa, params.eps ** 2 * params.delta),
    }
    return ArcTripleGeometry(params=params, a=a, b=b, c=c, arcs=arcs)


ARC_NAMES = ("A", "C", "B")  # index order used by the sampler


class ArcTripleSampler:
    """Uniform mixture: arc chosen uniformly among A, C, B; position uniform
    in arc length."""

    dim = 2

    def __init__(self, params: ArcTripleParams):
        self.params = params
        self.geometry = arc_triple_geometry(params)
        # Rows: length, radius, base angle, vertex x, vertex y; column i is
        # arc ARC_NAMES[i], the index ``sample`` draws.
        self._arc_table = np.array([
            (arc.length, arc.radius, arc.base_angle, arc.vertex[0], arc.vertex[1])
            for arc in (self.geometry.arcs[name] for name in ARC_NAMES)
        ]).T

    def sample(self, rng: np.random.Generator, n: int, consume=None):
        """n points, shape (n, 2); with ``consume``, returns
        ``consume(sample_chunks(rng, n, 3 * _BLOCK))`` instead, the form in
        which a Monte Carlo shard is drawn and counted (see :mod:`obtri.mc`)."""
        if consume is None:
            return next(self.sample_chunks(rng, n, max(n, 1)))
        return consume(self.sample_chunks(rng, n, 3 * _BLOCK))

    def sample_chunks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        """The n points of ``sample(rng, n)`` in order, in chunks of at most
        ``rows`` rows.

        Draws come in the order of one whole draw: every point's arc index
        (kept as one byte a point), then the arc-length offsets.  Both are
        taken chunk by chunk, which gives the values of one whole draw, so
        no array of n draws is allocated.  Every chunk of points is written
        into one buffer (with one chunk, the result), so a chunk is valid
        until the next is requested.
        """
        bounds = _chunk_bounds(n, rows)
        which = np.empty(n, dtype=np.int8)
        for lo, hi in bounds:
            which[lo:hi] = rng.integers(0, 3, size=hi - lo)
        u = np.empty(min(rows, n))
        out = np.empty((min(rows, n), 2))
        for lo, hi in bounds:
            offsets = rng.random(out=u[:hi - lo])
            offsets -= 0.5
            yield _blockwise(self._gathered_points, out[:hi - lo], which[lo:hi], offsets)

    def _gathered_points(self, which: np.ndarray, u: np.ndarray) -> np.ndarray:
        length, radius, base_angle, vx, vy = self._arc_table.take(which, axis=1)
        return arc_points(u * length, radius, base_angle, vx, vy)

    def sample_pattern(self, rng: np.random.Generator, pattern: str, n: int) -> np.ndarray:
        """n triples with prescribed arcs per position, shape (n, 3, 2)."""
        if len(pattern) != 3 or any(ch not in ARC_NAMES for ch in pattern):
            raise ValueError(f"pattern must be three of A/B/C, got {pattern!r}")
        # Row i holds position i's offsets: n draws for each position in turn.
        which = np.tile([ARC_NAMES.index(name) for name in pattern], n)
        u = (rng.random((3, n)) - 0.5).T.ravel()
        return _blockwise(self._gathered_points, np.empty((3 * n, 2)), which, u).reshape(n, 3, 2)


# The ten multiset patterns with their probabilities under uniform arc choice.
PATTERNS = (
    ("AAA", 1.0 / 27.0), ("BBB", 1.0 / 27.0), ("CCC", 1.0 / 27.0),
    ("ABC", 6.0 / 27.0),
    ("AAB", 3.0 / 27.0), ("AAC", 3.0 / 27.0),
    ("BBA", 3.0 / 27.0), ("BBC", 3.0 / 27.0),
    ("CCA", 3.0 / 27.0), ("CCB", 3.0 / 27.0),
)


@dataclass(frozen=True)
class PatternRow:
    pattern: str
    weight: float
    samples: int
    counts: dict
    acute_rate: float
    obtuse_rate: float


@dataclass(frozen=True)
class PatternReport:
    """Stratified per-pattern class rates for the three-arc distribution."""

    params: ArcTripleParams
    seed: int
    rows: tuple[PatternRow, ...]

    @property
    def overall_acute(self) -> float:
        return sum(r.weight * r.acute_rate for r in self.rows)

    @property
    def overall_obtuse(self) -> float:
        return sum(r.weight * r.obtuse_rate for r in self.rows)

    def to_csv(self) -> str:
        lines = ["pattern,weight,n,acute,right,obtuse,degenerate"]
        for r in self.rows:
            c = r.counts
            lines.append(
                f"{r.pattern},{r.weight!r},{r.samples},"
                f"{c[TriangleClass.ACUTE]},{c[TriangleClass.RIGHT]},"
                f"{c[TriangleClass.OBTUSE]},{c[TriangleClass.DEGENERATE]}"
            )
        return "\n".join(lines) + "\n"


def arc_triple_pattern_report(params: ArcTripleParams, samples_per_pattern: int,
                              seed: int, tol: float = DEFAULT_TOL) -> PatternReport:
    """Classify ``samples_per_pattern`` triples for each of the ten arc patterns.

    The weighted combination of per-pattern rates is a variance-reduced
    estimate of the overall acute/obtuse probability (stratification by
    pattern removes the multinomial noise of arc choice).
    """
    if samples_per_pattern < 1:
        raise ValueError(f"samples_per_pattern must be >= 1, got {samples_per_pattern}")
    sampler = ArcTripleSampler(params)

    def draw(rng, shard, n, count):  # shard i is pattern i, stratum i
        count([(sampler.sample_pattern(rng, PATTERNS[shard][0], n).reshape(3 * n, 2), shard)])

    table = _count_strata(draw, 2, len(PATTERNS), len(PATTERNS) * samples_per_pattern, seed,
                          tol, samples_per_pattern)
    rows = []
    for (pattern, weight), row in zip(PATTERNS, table):
        counts = class_counts(row)
        rows.append(PatternRow(
            pattern=pattern,
            weight=weight,
            samples=samples_per_pattern,
            counts=counts,
            acute_rate=counts[TriangleClass.ACUTE] / samples_per_pattern,
            obtuse_rate=counts[TriangleClass.OBTUSE] / samples_per_pattern,
        ))
    return PatternReport(params=params, seed=seed, rows=tuple(rows))


# Fixed-point analysis of the self-similar construction.

def fixed_point_acute(p: float) -> float:
    """Acute probability x(p) solving x = 3(1-p)p^2 + (1-p)^3 x + (5/9)p^3."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    q = 1.0 - p
    # 1 - q^3 = p(3 - 3p + p^2), which is 3p where q rounds to 1.
    return (3.0 * q * p * p + ACUTE_FRACTION_LIMIT * p ** 3) / (1.0 - q ** 3 if q < 1.0 else 3.0 * p)


def fixed_point_residual(p: float, x: float) -> float:
    q = 1.0 - p
    return x - (3.0 * q * p * p + q ** 3 * x + ACUTE_FRACTION_LIMIT * p ** 3)


@dataclass(frozen=True)
class FixedPointResult:
    p: float
    acute: float
    obtuse: float
    residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def maximize_acute() -> FixedPointResult:
    """The maximum of x(p) over (0, 1), from its closed form.

    With a = ACUTE_FRACTION_LIMIT, x(p) = (3p - (3-a)p^2) / (p^2 - 3p + 3),
    and the numerator of x'(p) is 3((2-a)p^2 - 2(3-a)p + 3).  At a = 5/9 that
    quadratic is (13p^2 - 44p + 27)/3, whose root in (0, 1) is
    p* = (22 - sqrt(133))/13, where x* = (2*sqrt(133) - 17)/9.
    """
    p = (22.0 - math.sqrt(133.0)) / 13.0
    x = fixed_point_acute(p)
    return FixedPointResult(p=p, acute=x, obtuse=1.0 - x,
                            residual=fixed_point_residual(p, x))


def fixed_point_scan(n: int) -> list[tuple[float, float]]:
    """Grid of (p, x(p)) pairs over (0, 1), for tables and unimodality checks."""
    if n < 1:
        raise ValueError(f"a scan needs at least 1 point, got {n}")
    return [((i + 1) / (n + 1), fixed_point_acute((i + 1) / (n + 1))) for i in range(n)]


# Self-similar spherical-cap construction.

def _default_cap_arc() -> ArcTripleParams:
    """In-cap layout defaults for the nested construction.

    Deliberately coarser than a free-standing planar run would use: every
    margin the level accounting relies on (in particular chords between two
    points of a common level seen from a point a factor rho deeper) must
    stay resolvable in double precision, which bounds the arc hierarchy
    from below.  The price is a visible O(eps) deficit in the within-cap
    acute rate; the trade is documented in SelfSimilarParams.
    """
    return ArcTripleParams(alpha=6.8e-3, delta=1.4e-3, eps=0.26)


@dataclass(frozen=True)
class SelfSimilarParams:
    """Nested-cap distribution in R^3.

    p: mass of the current level's cap; level j has probability p*(1-p)^j.
    rho: per-level shrink ratio of the sphere radius.
    cap_half_angle: angular radius of each cap (radians).
    arc: planar three-arc layout mapped onto each cap.
    max_depth: truncation level; the residual mass lands on max_depth and
        the true tail mass (1-p)^(max_depth+1) is reported.

    The defaults place every geometric margin the accounting relies on well
    clear of double-precision roundoff when classified at a relative
    tolerance of ~1e-15 (see mc_self_similar): rho is far below any in-cap
    feature, so deeper levels act as a point at the origin, while remaining
    large enough that the obtuse margins of one-shallow-two-deep triples
    (about rho * cap_half_angle^2 relative to the squared scale) stay above
    the tolerance.
    """

    p: float
    rho: float = 8e-9
    cap_half_angle: float = 0.02
    arc: ArcTripleParams = field(default_factory=_default_cap_arc)
    max_depth: int = 12

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0, 1] (1 = single cap), got {self.p!r}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho!r}")
        if not (0.0 < self.cap_half_angle < math.pi / 4.0):
            raise ValueError(f"cap_half_angle must lie in (0, pi/4), got {self.cap_half_angle!r}")
        if operator.index(self.max_depth) < 0:  # a float depth would fail mid-sampling
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.rho ** self.max_depth < 1e-150:
            raise ValueError("rho**max_depth underflows the classifier; raise rho or lower max_depth")

    @property
    def tail_mass(self) -> float:
        return (1.0 - self.p) ** (self.max_depth + 1)

    def level_probabilities(self) -> np.ndarray:
        """P(level = j) for j = 0..max_depth, residual mass on max_depth."""
        j = np.arange(self.max_depth + 1)
        probs = self.p * (1.0 - self.p) ** j
        probs[-1] = (1.0 - self.p) ** self.max_depth
        return probs

    def to_dict(self) -> dict:
        return asdict(self)


class SelfSimilarSampler:
    """Point sampler for the nested-cap distribution (dim 3)."""

    dim = 3

    def __init__(self, params: SelfSimilarParams):
        self.params = params
        self._arc_sampler = ArcTripleSampler(params.arc)
        # Per-level spin and radius, indexed by level in ``_cap_points``.
        level = np.arange(params.max_depth + 1, dtype=float)
        spin = self._LEVEL_SPIN * level
        self._spin_cos, self._spin_sin = np.cos(spin), np.sin(spin)
        self._level_radius = params.rho ** level
        logger.debug("self-similar sampler: tail mass beyond depth %d is %.3e",
                     params.max_depth, params.tail_mass)

    def _draw_levels(self, rng: np.random.Generator, n: int, rows: int) -> np.ndarray:
        """The levels of n points, their uniforms drawn chunk by chunk of at
        most ``rows`` (which gives the values of one whole draw)."""
        p = self.params.p
        bounds = _chunk_bounds(n, rows)
        levels = np.zeros(n, dtype=np.int64)
        if p >= 1.0:
            return levels
        u = np.empty(min(rows, n))
        for lo, hi in bounds:
            # Clamped before the cast: for a tiny p the level, about 1/p,
            # would overflow int64 (or, for a subnormal p, the float).
            with np.errstate(over="ignore"):
                lev = np.floor(np.log1p(-rng.random(out=u[:hi - lo])) / math.log1p(-p))
            levels[lo:hi] = np.minimum(lev, self.params.max_depth)
        return levels

    # Azimuthal offset between consecutive levels (golden angle).  The caps
    # share an axis, but rotating each level's arc layout about it keeps
    # points of different levels from lining up with the origin to within
    # the arcs' own (tiny) widths, which would otherwise produce spurious
    # near-degenerate cross-level slivers.
    _LEVEL_SPIN = math.pi * (3.0 - math.sqrt(5.0))

    def _cap_points(self, planar: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Map planar arc-triple points onto the cap of each point's level."""
        theta = self.params.cap_half_angle
        # Tangent coordinates in radians, construction centered on the pole.
        tx = (planar[:, 0] - 0.5) * theta
        ty = planar[:, 1] * theta
        cs, sn = self._spin_cos.take(levels), self._spin_sin.take(levels)
        tx, ty = cs * tx - sn * ty, sn * tx + cs * ty
        psi = np.hypot(tx, ty)
        s = np.sinc(psi / math.pi)  # sin(psi)/psi, 1 at 0
        r = self._level_radius.take(levels)
        out = np.empty((levels.shape[0], 3))
        out[:, 0] = r * s * tx
        out[:, 1] = r * s * ty
        out[:, 2] = r * np.cos(psi)
        return out

    def sample(self, rng: np.random.Generator, n: int, consume=None):
        """n points, shape (n, 3); with ``consume``, returns
        ``consume(sample_chunks(rng, n, 3 * _BLOCK))`` instead."""
        if consume is None:
            return self.sample_with_levels(rng, n)[0]
        return consume(self.sample_chunks(rng, n, 3 * _BLOCK))

    def sample_with_levels(self, rng: np.random.Generator, n: int, consume=None):
        """n points, shape (n, 3), and their levels; with ``consume``,
        returns ``consume(level_chunks(rng, n, 3 * _BLOCK))`` instead."""
        if consume is None:
            return next(self.level_chunks(rng, n, max(n, 1)))
        return consume(self.level_chunks(rng, n, 3 * _BLOCK))

    def sample_chunks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        return (pts for pts, _ in self.level_chunks(rng, n, rows))

    def level_chunks(self, rng: np.random.Generator, n: int,
                     rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``sample_with_levels(rng, n)`` in order, as (points, levels)
        chunks of at most ``rows`` rows.

        Draws come in the order of one whole draw: every point's level
        uniform, then the in-cap layout's draws
        (``ArcTripleSampler.sample_chunks``), all taken chunk by chunk.  The
        levels of all n points are kept; every chunk of points is written
        into one buffer (with one chunk, the result), so a chunk is valid
        until the next is requested.
        """
        levels = self._draw_levels(rng, n, rows)
        out = np.empty((min(rows, n), 3))
        planar_chunks = self._arc_sampler.sample_chunks(rng, n, rows)
        for (lo, hi), planar in zip(_chunk_bounds(n, rows), planar_chunks):
            yield _blockwise(self._cap_points, out[:hi - lo], planar, levels[lo:hi]), levels[lo:hi]


def _category_weights(params: SelfSimilarParams) -> np.ndarray:
    """P(count of points at the triple's shallowest level = 1, 2, 3)."""
    q = params.level_probabilities()
    deeper = np.concatenate([np.cumsum(q[::-1])[::-1][1:], [0.0]])  # P(level > j)
    w3 = float(np.sum(q ** 3))
    w2 = float(np.sum(3.0 * q ** 2 * deeper))
    w1 = float(np.sum(3.0 * q * deeper ** 2))
    return np.array([w1, w2, w3])


@dataclass(frozen=True)
class SelfSimilarReport:
    """MC estimate plus the shallow-level pattern decomposition."""

    params: SelfSimilarParams
    samples: int
    seed: int
    tol: float
    counts: dict
    obtuse_hat: float
    acute_hat: float
    ci95: tuple[float, float]
    tail_mass: float                                  # (1-p)^(max_depth+1), beyond the truncation
    category_weights: tuple[float, float, float]      # analytic, shallow-count 1,2,3
    category_frequencies: tuple[float, float, float]  # observed
    category_acute: tuple[float, float, float]        # observed acute rate per category
    fixed_point_acute: float | None                   # x(p) for p < 1
    accounting_gap: float                             # sum w_c*q_c - overall acute
    accounting_sigma: float

    def to_dict(self) -> dict:
        return asdict(self)


SELF_SIMILAR_TOL = 1e-15


def mc_self_similar(params: SelfSimilarParams, samples: int, seed: int,
                    tol: float = SELF_SIMILAR_TOL, *,
                    shard_size: int = DEFAULT_SHARD_SIZE) -> SelfSimilarReport:
    """Monte Carlo classification of self-similar triples with per-pattern
    accounting.

    The construction makes extremely thin triangles, so the classification
    tolerance matters and is exposed.  The default 1e-15 sits just above
    coordinate-level roundoff (~2e-16 relative) and below every geometric
    margin the accounting relies on: sub-roundoff cases land in the Right
    class instead of flipping randomly between acute and obtuse, which keeps
    the obtuse fraction clean.
    """
    sampler = SelfSimilarSampler(params)

    def stratified(chunks):  # stratum: points at the shallowest level, minus one
        for pts, levels in chunks:
            # Column-wise: numpy reduces a length-3 axis far slower.
            l0, l1, l2 = levels.reshape(-1, 3).T
            shallow = np.minimum(np.minimum(l0, l1), l2)
            n_at_shallow = (l0 == shallow).astype(np.int64) + (l1 == shallow) + (l2 == shallow)
            yield pts, n_at_shallow - 1

    def draw(rng, shard, n, count):
        sampler.sample_with_levels(rng, 3 * n, consume=lambda chunks: count(stratified(chunks)))

    # Rows: shallow count 1, 2, 3.
    cat_class = _count_strata(draw, 3, 3, samples, seed, tol, shard_size)
    totals = cat_class.sum(axis=0)
    counts = class_counts(totals)
    acute = counts[TriangleClass.ACUTE]
    obtuse = counts[TriangleClass.OBTUSE]
    cat_n = cat_class.sum(axis=1)
    cat_freq = cat_n / samples
    cat_acute = cat_class[:, 0] / np.maximum(cat_n, 1)  # an empty category reads 0
    weights = _category_weights(params)
    acute_pred = float(np.dot(weights, cat_acute))
    acute_hat = acute / samples
    # Noise of the decomposition residual: multinomial category frequencies
    # against fixed conditional rates.
    var = (np.dot(weights, cat_acute ** 2) - np.dot(weights, cat_acute) ** 2) / samples
    var += float(np.sum(weights ** 2 * cat_acute * (1.0 - cat_acute) / np.maximum(cat_n, 1)))
    sigma = math.sqrt(max(var, 0.0))
    lo, hi = wilson_interval(obtuse, samples)
    return SelfSimilarReport(
        params=params,
        samples=samples,
        seed=seed,
        tol=tol,
        counts=counts,
        obtuse_hat=obtuse / samples,
        acute_hat=acute_hat,
        ci95=(lo, hi),
        tail_mass=params.tail_mass,
        category_weights=tuple(weights.tolist()),
        category_frequencies=tuple(cat_freq.tolist()),
        category_acute=tuple(cat_acute.tolist()),
        fixed_point_acute=(fixed_point_acute(params.p) if params.p < 1.0 else None),
        accounting_gap=acute_pred - acute_hat,
        accounting_sigma=sigma,
    )


# Other samplers available through DistributionSpec.

class SphereSampler:
    """Uniform distribution on the unit sphere S^{d-1}."""

    def __init__(self, d: int):
        d = operator.index(d)  # a float d is refused, not truncated
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        self.d = d

    @property
    def dim(self) -> int:
        return self.d

    def sample(self, rng: np.random.Generator, n: int, consume=None):
        """n points, shape (n, d); with ``consume``, returns
        ``consume(sample_chunks(rng, n, 3 * _BLOCK))`` instead."""
        if consume is None:
            return sample_sphere(self.d, rng, n)
        return consume(self.sample_chunks(rng, n, 3 * _BLOCK))

    def sample_chunks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        return sphere_chunks(self.d, rng, n, rows)


class SingleArcSampler:
    """Uniform distribution on one circular arc no longer than a semicircle.

    Every triple of points on such an arc forms an obtuse triangle, so this
    is the distribution with obtuse probability one.
    """

    dim = 2

    def __init__(self, arc_angle: float, radius: float = 1.0):
        if not (0.0 < arc_angle <= math.pi):
            raise ValueError(f"arc_angle must lie in (0, pi], got {arc_angle!r}")
        if not (0.0 < radius < math.inf):
            raise ValueError(f"radius must be finite and > 0, got {radius!r}")
        self.arc_angle = arc_angle
        self.radius = radius

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        phi = (rng.random(n) - 0.5) * self.arc_angle
        return np.column_stack([self.radius * np.cos(phi), self.radius * np.sin(phi)])


class MixtureSampler:
    """Finite mixture of samplers of equal dimension; points are drawn iid
    from the mixture (each of a triple's three points picks its own
    component)."""

    def __init__(self, components: list[tuple[float, object]]):
        if not components:
            raise ValueError("mixture needs at least one component")
        dims = {s.dim for _, s in components}
        if len(dims) != 1:
            raise ValueError(f"mixture components must share a dimension, got {sorted(dims)}")
        weights = np.array([w for w, _ in components], dtype=float)
        if not np.all((weights > 0.0) & (weights < math.inf)):
            raise ValueError(f"mixture weights must be finite and > 0, got {weights.tolist()}")
        self.weights = weights / weights.sum()
        self.samplers = [s for _, s in components]
        self.dim = self.samplers[0].dim

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        edges = np.cumsum(self.weights)
        which = np.searchsorted(edges, rng.random(n), side="right")
        which = np.minimum(which, len(self.samplers) - 1)
        out = np.empty((n, self.dim))
        for k, sampler in enumerate(self.samplers):
            mask = which == k
            cnt = int(mask.sum())
            if cnt:
                out[mask] = sampler.sample(rng, cnt)
        return out


@dataclass(frozen=True)
class DistributionSpec:
    """Declarative sampler description, the unit of the mc wire format."""

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "DistributionSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("distribution spec JSON needs a 'kind' field")
        return cls(kind=obj["kind"], params=obj.get("params", {}))


def build_sampler(spec: DistributionSpec):
    """Instantiate the sampler described by a DistributionSpec.  An unknown
    kind, or params missing, unexpected or of the wrong type, raise ValueError."""
    kind, params = spec.kind, spec.params
    if not isinstance(params, dict):
        raise ValueError(f"{kind} spec params must be an object, got {params!r}")
    try:
        if kind == "sphere":
            return SphereSampler(**params)
        if kind == "arc_triple":
            return ArcTripleSampler(ArcTripleParams(**params))
        if kind == "self_similar":
            p = dict(params)
            arc = p.pop("arc", None)
            arc_params = ArcTripleParams(**arc) if arc else _default_cap_arc()
            return SelfSimilarSampler(SelfSimilarParams(arc=arc_params, **p))
        if kind == "single_arc":
            return SingleArcSampler(**params)
        if kind == "mixture":
            comps = []
            for entry in params["components"]:
                sub = DistributionSpec(kind=entry["spec"]["kind"],
                                       params=entry["spec"].get("params", {}))
                comps.append((float(entry["weight"]), build_sampler(sub)))
            return MixtureSampler(comps)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"invalid {kind} spec params ({type(exc).__name__}: {exc})") from exc
    raise ValueError(f"unknown distribution kind {kind!r}")
