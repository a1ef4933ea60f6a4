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

from obtri.bounds import closed_form_2d, closed_form_3d
from obtri.geometry import (
    DEFAULT_TOL,
    Configuration,
    TriangleClass,
    classify_exact,
    counts_from_codes,
    measure_batch,
    triple_blocks,
)

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
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")

    def to_dict(self) -> dict:
        return {
            "n": self.n, "d": self.d, "iterations": self.iterations,
            "restarts": self.restarts, "t_initial": T_INITIAL,
            "t_final": T_FINAL, "scale_initial": SCALE_INITIAL,
            "scale_final": SCALE_FINAL, "seed": self.seed,
            "mode": self.mode, "tol": self.tol,
        }


def closed_form_bound(n: int, d: int) -> int | None:
    """Closed-form minimum obtuse count for d in {2, 3}, if defined at n."""
    if d == 2 and n >= 4:
        return closed_form_2d(n)
    if d == 3 and n >= 6:
        return closed_form_3d(n)
    return None


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
            "counts": {cls.value: cnt for cls, cnt in self.counts.items()},
            "margin": self.margin,
            "bound": self.bound,
            "gap": self.gap,
            "per_restart": list(self.per_restart),
        }


def _mode_count(counts_vec: np.ndarray, mode: str) -> int:
    # counts_vec indexed acute, right, obtuse, degenerate
    if mode == "strict-obtuse":
        return int(counts_vec[2])
    return int(counts_vec[1] + counts_vec[2] + counts_vec[3])


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
    pts = rng.standard_normal((params.n, params.d))
    radii = rng.random(params.n) ** (1.0 / params.d)
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0.0] = 1.0
    return pts / norms[:, None] * radii[:, None]


def search_min(params: SearchParams) -> SearchResult:
    """Annealing over single-point Gaussian moves with geometric cooling.

    Fully deterministic for a fixed seed.  Ties on the objective are broken
    by pushing the configuration away from right angles (maximizing the
    minimum normalized |dot| margin).  The class code and margin of every
    triple are kept between moves; a move re-measures only the C(n-1, 2)
    triples that contain the moved point.

    Raises:
        InvariantViolation: if the best non-acute count in d = 2 or 3 falls
            below the closed-form bound.
    """
    idx = np.concatenate(list(triple_blocks(params.n)))
    # For each point, the triples that contain it: all a move has to re-measure.
    touching = [np.flatnonzero((idx == p).any(axis=1)) for p in range(params.n)]
    corners = [(idx[t, 0], idx[t, 1], idx[t, 2]) for t in touching]
    cool = (T_FINAL / T_INITIAL) ** (1.0 / max(1, params.iterations - 1))
    shrink = (SCALE_FINAL / SCALE_INITIAL) ** (1.0 / max(1, params.iterations - 1))

    def measure(pts, i, j, k):
        """Class codes and normalized margins min|dot|/scale of the triples (i, j, k)."""
        codes, min_abs, scale = measure_batch(pts.take(i, axis=0), pts.take(j, axis=0),
                                              pts.take(k, axis=0), params.tol)
        return codes, min_abs / np.maximum(scale, 1e-300)

    def objective(codes, margins):
        return _mode_count(np.bincount(codes, minlength=4), params.mode), float(margins.min())

    best_pts: np.ndarray | None = None
    best_count = None
    best_margin = -1.0
    per_restart = []

    for restart in range(params.restarts):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((params.seed, restart))))
        pts = np.array(_initial_points(rng, params, restart), dtype=float)
        codes, margins = measure(pts, *idx.T)
        count, margin = objective(codes, margins)
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
            old_codes, old_margins = codes[t], margins[t]
            codes[t], margins[t] = measure(pts, *corners[k])
            cand_count, cand_margin = objective(codes, margins)
            accept = False
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
                codes[t], margins[t] = old_codes, old_margins
            temp *= cool
            sigma *= shrink
        per_restart.append(local_count)
        better = (best_count is None or local_count < best_count
                  or (local_count == best_count and local_margin > best_margin))
        if better:
            best_pts, best_count, best_margin = local_pts, local_count, local_margin

    config = Configuration(points=best_pts)
    counts = counts_from_codes(measure(best_pts, *idx.T)[0])
    bound = closed_form_bound(params.n, params.d) if params.mode == "non-acute" else None
    if bound is not None and best_count < bound:
        raise InvariantViolation(
            f"search found {best_count} non-acute triangles for n={params.n}, "
            f"d={params.d}, below the proven bound {bound}: classifier or bound is broken"
        )
    return SearchResult(
        params=params,
        best=config,
        best_count=int(best_count),
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
    """Replay a persisted SearchResult JSON through the exact classifier.

    The stored coordinates are floats, so the certification is exact for
    the stored binary rationals and flagged accordingly.
    """
    obj = json.loads(text)
    return enumerate_exact(obj["points"])


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
