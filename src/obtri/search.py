"""Simulated-annealing search for point configurations minimizing non-acute
triangle counts.

An empirical probe of the counting bounds: in the plane the minimum number
of obtuse triangles among n points is (C(n,3) - floor(n/3))/3, and in R^3
it is (C(n,3) - 2n + k)/11.  The search never proves minimality; it
reports the best configuration found and the gap to the closed form.  A
search result below the closed-form bound in non-acute mode would falsify
either the bound or the classifier, so it is treated as a hard error.

Counting modes:
  * "non-acute" (default): Right + Obtuse + Degenerate.  This is the
    quantity the four-point argument genuinely bounds; the square shows
    why strict obtuse counting differs (it attains 0 obtuse with 4 right).
  * "strict-obtuse": Obtuse only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from obtri.bounds import _int_at_least, _real_in, base_case, closed_form
from obtri.geometry import (
    DEFAULT_TOL,
    Configuration,
    TriangleClass,
    classify_exact,
    count_classes,
    measure_batch,
)
from obtri.mc import SeedPolicy
from obtri.sphere import sample_sphere

MODES = ("non-acute", "strict-obtuse")

# Annealing schedule: temperature and move scale (in diameters) cool
# geometrically from the initial to the final value over each restart.
T_INITIAL = 2.0
T_FINAL = 1e-3
SCALE_INITIAL = 0.3
SCALE_FINAL = 1e-4


class InvariantViolation(AssertionError):
    """A search result contradicted a proven lower bound: a bug trap."""


@dataclass(frozen=True)
class SearchParams:
    n: int
    d: int
    iterations: int = 50_000
    restarts: int = 10
    seed: int = 0
    mode: str = "non-acute"
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name, low in (("n", 3), ("d", 2), ("iterations", 1), ("restarts", 1)):
            object.__setattr__(self, name, _int_at_least(name, getattr(self, name), low))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # The Monte Carlo engine's seed check, which gives the seed as an int.
        object.__setattr__(self, "seed", SeedPolicy(master_seed=self.seed).master_seed)
        object.__setattr__(self, "tol", _real_in("tol", self.tol, 0.0, math.inf, closed=0.0))

    def to_dict(self) -> dict:
        return {
            "n": self.n, "d": self.d, "iterations": self.iterations,
            "restarts": self.restarts, "t_initial": T_INITIAL,
            "t_final": T_FINAL, "scale_initial": SCALE_INITIAL,
            "scale_final": SCALE_FINAL, "seed": self.seed,
            "mode": self.mode, "tol": self.tol,
        }


def closed_form_bound(n: int, d: int) -> int | None:
    """``closed_form(d)`` at n: the minimum obtuse count for d in {2, 3},
    or None for other d or n below the base case."""
    form = closed_form(d)
    if form is None or n < base_case(d):
        return None
    return form(n)


@dataclass(frozen=True)
class SearchResult:
    params: SearchParams
    best: Configuration
    best_count: int
    counts: dict
    margin: float                    # min |dot|/scale over all triples
    bound: int | None
    per_restart: tuple[int, ...]

    @property
    def gap(self) -> int | None:
        return None if self.bound is None else self.best_count - self.bound

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "points": self.best.points.tolist(),
            "best_count": self.best_count,
            "counts": self.counts,
            "margin": self.margin,
            "bound": self.bound,
            "gap": self.gap,
            "per_restart": list(self.per_restart),
        }


def regular_polygon(n: int) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def cross_polytope(d: int) -> np.ndarray:
    """The 2d points +-e_i in R^d (octahedron for d = 3)."""
    eye = np.eye(d)
    return np.vstack([eye, -eye])


def _initial_points(rng: np.random.Generator, params: SearchParams, restart: int) -> np.ndarray:
    # Restart 0 gets a named warm start when one fits the (n, d) request.
    if restart == 0:
        if params.d == 2:
            return regular_polygon(params.n)
        if params.n == 2 * params.d:
            return cross_polytope(params.d)
    # Uniform in the unit ball: a uniform direction scaled by a radius U^(1/d).
    directions = sample_sphere(params.d, rng, params.n)
    return directions * (rng.random(params.n) ** (1.0 / params.d))[:, None]


def search_min(params: SearchParams) -> SearchResult:
    """Annealing over single-point Gaussian moves with geometric cooling.

    Fully deterministic for a fixed seed.  Ties on the objective are broken
    by pushing the configuration away from right angles (maximizing the
    minimum normalized |dot| margin).  The class code and margin of every
    triple are kept between moves; a move re-measures only the C(n-1, 2)
    triples that contain the moved point, and writes their codes back only
    when it is accepted.

    Raises:
        InvariantViolation: if the best non-acute count in d = 2 or 3 falls
            below the closed-form bound.
    """
    idx = np.array(list(combinations(range(params.n), 3)), dtype=np.intp)
    # For each point, the triples that contain it: all a move has to re-measure,
    # as their (m, 3) corner indices for one gather into a block every move
    # reuses (each point is in C(n-1, 2) triples).
    touching = [np.flatnonzero((idx == p).any(axis=1)) for p in range(params.n)]
    corners = [idx[t] for t in touching]
    block = np.empty(corners[0].shape + (params.d,))
    strict = params.mode == "strict-obtuse"
    cool = (T_FINAL / T_INITIAL) ** (1.0 / max(1, params.iterations - 1))
    shrink = (SCALE_FINAL / SCALE_INITIAL) ** (1.0 / max(1, params.iterations - 1))

    def margins_of(min_abs, scale):
        """Normalized margins min|dot|/scale, written over ``scale``."""
        return np.divide(min_abs, np.maximum(scale, 1e-300, out=scale), out=scale)

    def tally(codes):
        # Codes: 0 acute, 1 right, 2 obtuse, 3 degenerate.
        return int(np.count_nonzero(codes == 2) if strict else np.count_nonzero(codes))

    best_pts: np.ndarray | None = None
    best_count = None
    best_margin = -1.0
    per_restart = []

    for restart in range(params.restarts):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((params.seed, restart))))
        pts = np.array(_initial_points(rng, params, restart), dtype=float)
        codes, min_abs, scale = measure_batch(pts.take(idx, axis=0), tol=params.tol)
        margins = margins_of(min_abs, scale)
        count, margin = tally(codes), float(np.minimum.reduce(margins))
        local_pts, local_count, local_margin = pts.copy(), count, margin
        temp = T_INITIAL
        sigma = SCALE_INITIAL
        diameter = float(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1))) * 2.0 or 1.0
        for _ in range(params.iterations):
            k = int(rng.integers(0, params.n))
            step = rng.standard_normal(params.d) * sigma * diameter
            old = pts[k].copy()
            pts[k] = old + step
            t = touching[k]
            # mode="clip" (the indices are in range) lets take write into
            # the block without buffering it first.
            new_codes, min_abs, scale = measure_batch(
                pts.take(corners[k], axis=0, out=block, mode="clip"), tol=params.tol)
            cand_count = count - tally(codes[t]) + tally(new_codes)
            # A move that raises the count is decided by the count alone, so
            # a rejected one has written nothing but the point and computed
            # no margin.  Any other move needs the minimum margin with its
            # new margins in: a tie is kept only if that minimum does not fall.
            if cand_count > count and rng.random() >= math.exp((count - cand_count) / temp):
                pts[k] = old
            else:
                old_margins = margins[t]
                margins[t] = margins_of(min_abs, scale)
                cand_margin = float(np.minimum.reduce(margins))
                if cand_count != count or cand_margin >= margin:
                    codes[t] = new_codes
                    count, margin = cand_count, cand_margin
                    if count < local_count or (count == local_count and margin > local_margin):
                        local_pts, local_count, local_margin = pts.copy(), count, margin
                else:
                    pts[k] = old
                    margins[t] = old_margins
            temp *= cool
            sigma *= shrink
        per_restart.append(local_count)
        better = (best_count is None or local_count < best_count
                  or (local_count == best_count and local_margin > best_margin))
        if better:
            best_pts, best_count, best_margin = local_pts, local_count, local_margin

    config = Configuration(points=best_pts)
    counts = count_classes(config, params.tol)
    bound = closed_form_bound(params.n, params.d) if params.mode == "non-acute" else None
    if bound is not None and best_count < bound:
        raise InvariantViolation(
            f"search found {best_count} non-acute triangles for n={params.n}, "
            f"d={params.d}, below the proven bound {bound}: classifier or bound is broken"
        )
    return SearchResult(
        params=params,
        best=config,
        best_count=best_count,
        counts=counts,
        margin=best_margin,
        bound=bound,
        per_restart=tuple(per_restart),
    )


@dataclass(frozen=True)
class ExactCounts:
    """Tolerance-free counts; exact_coordinates is False when the input was
    float data (the counts are then exact for the stored binary rationals,
    which only approximate the intended configuration)."""

    counts: dict
    exact_coordinates: bool

    def count(self, cls: TriangleClass) -> int:
        return self.counts[cls]

    def nonacute(self) -> int:
        return (self.counts[TriangleClass.RIGHT] + self.counts[TriangleClass.OBTUSE]
                + self.counts[TriangleClass.DEGENERATE])


def certify_result_json(text: str) -> ExactCounts:
    """Replay a persisted search result through the exact classifier.

    ``text`` is an ``obtri search --output`` document (points under
    ``"result"``) or a bare ``SearchResult.to_dict()``; one without points
    raises ValueError.  The stored coordinates are floats, so the
    certification is exact for the stored binary rationals and flagged
    accordingly.
    """
    obj = json.loads(text)
    result = obj.get("result", obj) if isinstance(obj, dict) else None
    if not isinstance(result, dict) or "points" not in result:
        raise ValueError("search result JSON holds no points")
    return enumerate_exact(result["points"])


def enumerate_exact(points) -> ExactCounts:
    """Certify class counts of a configuration by exact rational arithmetic.

    ``points`` is a sequence of coordinate sequences.  Ints and Fractions
    are taken as exact; floats are converted exactly to binary rationals
    but flag the result as approximate-input.
    """
    pts = [tuple(p) for p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    exact_input = all(
        isinstance(x, (int, Fraction)) and not isinstance(x, bool)
        for p in pts for x in p
    )
    counts = {cls: 0 for cls in TriangleClass}
    for i, j, k in combinations(range(len(pts)), 3):
        counts[classify_exact(pts[i], pts[j], pts[k])] += 1
    return ExactCounts(counts=counts, exact_coordinates=exact_input)
