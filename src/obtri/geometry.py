"""Triangle classification and obtuse-triangle counting in R^d.

Classification works purely on dot-product signs at the three vertices: a
triangle is obtuse iff exactly one vertex sees the other two along edge
vectors with a negative dot product.  No inverse trigonometry is involved,
so the test is cheap, vectorizes, and has an exact-rational twin for
certifying named configurations.

The tolerance ``tol`` is relative to the maximum squared edge length of the
triangle under test.  A dot product within ``tol * scale`` of zero is called
Right; a triangle whose area is at most ``tol * scale`` is Degenerate
(coincident or collinear points).  Degenerate wins over Right wins over
Obtuse, so every triangle lands in exactly one class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_TOL = 1e-12


class TriangleClass(str, Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"
    DEGENERATE = "degenerate"


def _as_point(p: Sequence[float]) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError(f"a point needs at least 2 coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite coordinate in point {p!r}")
    return a


@dataclass(frozen=True)
class Configuration:
    """A finite set of distinct points of equal dimension d >= 2."""

    points: np.ndarray  # shape (n, d)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        n, d = pts.shape
        if n < 3:
            raise ValueError(f"a configuration needs at least 3 points, got {n}")
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinate in configuration")
        # Exact duplicate detection; tolerance-near duplicates are legal.
        # Adding 0.0 turns -0.0 into 0.0, so the bytes compare as the values do.
        seen = set()
        for row in pts + 0.0:
            key = row.tobytes()
            if key in seen:
                raise ValueError("configuration contains two identical points")
            seen.add(key)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "points": self.points.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"dim", "points"} <= obj.keys():
            raise ValueError("configuration JSON needs 'dim' and 'points' fields")
        pts = np.asarray(obj["points"], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != obj["dim"]:
            raise ValueError("configuration JSON: points do not match declared dim")
        return cls(points=pts)


def _triangle_area(u: np.ndarray, v: np.ndarray,
                   l_ab: np.ndarray, l_ac: np.ndarray, l_bc: np.ndarray) -> np.ndarray:
    """Areas of triangles abc from the edge vectors u = b - a, v = c - a and
    the squared edge lengths, stable for needles.

    In 2 and 3 dimensions the cross product of the edge-difference vectors is
    used: the differences are computed first, so large common coordinates
    cancel exactly and the area keeps full relative accuracy even when it is
    tens of orders of magnitude below the edge lengths.  In higher dimension
    there is no cross product; Kahan's ordered Heron formula on the three
    edge lengths is the best length-only fallback.
    """
    d = u.shape[-1]
    if d == 2:
        return 0.5 * np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    if d == 3:
        cx = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
        cy = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
        cz = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)
    # Order the side lengths sa >= sb >= sc with a three-element min/max
    # network (it selects the same values as sorting), writing each result
    # into a buffer whose contents are no longer needed.
    x, y, z = np.sqrt(l_ab), np.sqrt(l_ac), np.sqrt(l_bc)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y, out=x)
    mid_hi = np.minimum(hi, z, out=y)
    sa = np.maximum(hi, z, out=hi)
    sc = np.minimum(lo, z, out=z)
    sb = np.maximum(lo, mid_hi, out=lo)
    prod = (sa + (sb + sc)) * np.maximum(sc - (sa - sb), 0.0) * (sc + (sa - sb)) * (sa + (sb - sc))
    return 0.25 * np.sqrt(prod)


def _block_edges(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge vectors ``(b - a, c - a, c - b)`` of a (..., 3, d) block.

    They share one (..., 3, d) buffer, filled without d-long inner loops:
    one subtraction over the flattened block, each row minus the one
    before, gives every b - a and c - b (and, in each triple's third slot,
    the next triple's a minus this c); then c - a is written over that
    third slot one coordinate at a time.
    """
    tri = np.ascontiguousarray(tri, dtype=float)
    if tri.ndim < 2 or tri.shape[-2] != 3:
        raise ValueError(f"a triangle block has shape (..., 3, d), got {tri.shape}")
    d = tri.shape[-1]
    flat = tri.reshape(-1)
    edges = np.empty_like(tri)
    np.subtract(flat[d:], flat[:flat.size - d], out=edges.reshape(-1)[:flat.size - d])
    for j in range(d):
        np.subtract(tri[..., 2, j], tri[..., 0, j], out=edges[..., 2, j])
    return edges[..., 0, :], edges[..., 2, :], edges[..., 1, :]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row dot products of two (..., d) arrays.

    In the plane they are written out as u0*v0 + u1*v1: a two-term sum has
    one rounding whatever the order, so this equals ``einsum`` bit for bit
    except that an exact zero may come out as -0.0 where ``einsum`` (which
    adds into a zeroed output) gives +0.0.  The kernel only compares the
    dot products and takes their absolute values, so its results do not
    change, and the plain form costs three ufunc calls instead of one
    ``einsum`` call with a much larger fixed cost.  From d = 3 on
    ``einsum`` stays: its summation order follows numpy's SIMD dispatch,
    and the pinned counts were computed with it.
    """
    if u.shape[-1] == 2:
        return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    return np.einsum("...i,...i->...", u, v)


def measure_batch(a: np.ndarray, b: np.ndarray | None = None, c: np.ndarray | None = None,
                  tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triangle-measure kernel: class codes with the quantities behind them.

    Takes the triangles in one of two forms:

    * vertex form, ``measure_batch(a, b, c, tol)``: stacked vertices of
      shape (..., d);
    * block form, ``measure_batch(tri, tol=tol)``: one array of shape
      (..., 3, d) whose rows are the vertices a, b, c, with ``tol`` passed
      by keyword.  Its edges come without d-long inner loops (see
      ``_block_edges``).  The Monte Carlo engine's shard blocks are
      C-contiguous; any other block is copied first.

    Both forms compute every edge, dot product and length by the same
    floating-point operations, so they return bit-identical results.

    Returns ``(codes, min_abs, scale)`` of shape (...,): the int8 class code
    (see ``classify_batch``), the smallest |vertex dot product| and the
    largest squared edge length.  ``min_abs / scale`` is the normalized
    right-angle margin that the annealing search maximizes.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if b is None and c is None:
        ab, ac, bc = _block_edges(a)
    elif b is None or c is None:
        raise ValueError("give the vertices a, b and c, or one (..., 3, d) block "
                         "with tol by keyword")
    else:
        a, b, c = (np.asarray(p, dtype=float) for p in (a, b, c))
        ab = b - a
        ac = c - a
        bc = c - b
    dot_a = _dot(ab, ac)
    dot_b = -_dot(ab, bc)
    dot_c = _dot(ac, bc)
    l_ab = _dot(ab, ab)
    l_ac = _dot(ac, ac)
    l_bc = _dot(bc, bc)
    # The (..., d) edge vectors are the largest temporaries: drop them as soon
    # as they are used, so a Monte Carlo shard's peak memory stays low.  (In
    # block form the three share one buffer, freed with the last of them.)
    del bc
    area = _triangle_area(ab, ac, l_ab, l_ac, l_bc)
    del ab, ac
    scale = np.maximum(l_ab, np.maximum(l_ac, l_bc))
    thresh = tol * scale

    min_dot = np.minimum(dot_a, np.minimum(dot_b, dot_c))
    min_abs = np.minimum(np.abs(dot_a), np.minimum(np.abs(dot_b), np.abs(dot_c)))

    out = np.zeros(np.shape(scale), dtype=np.int8)  # acute by default
    out[min_dot < -thresh] = 2
    out[min_abs <= thresh] = 1
    out[area <= thresh] = 3
    return out, min_abs, scale


def classify_batch(a: np.ndarray, b: np.ndarray | None = None, c: np.ndarray | None = None,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Classify stacked triangles; returns an int array (see ``CLASS_ORDER``).

    0 = acute, 1 = right, 2 = obtuse, 3 = degenerate.  Takes the vertex form
    ``(a, b, c, tol)`` or the block form ``(tri, tol=tol)`` of
    ``measure_batch``.
    """
    return measure_batch(a, b, c, tol)[0]


def triple_blocks(n: int) -> Iterator[np.ndarray]:
    """All index triples i < j < k of range(n), one (m, 3) block per first index i.

    Blocks come in ``itertools.combinations`` order, so concatenating them
    gives the same array as ``combinations(range(n), 3)``; the largest holds
    C(n-1, 2) rows, so a caller that consumes one block at a time needs
    O(n^2) memory rather than O(n^3).
    """
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        block = np.empty((j.size, 3), dtype=np.intp)
        block[:, 0] = i
        block[:, 1] = j + (i + 1)
        block[:, 2] = k + (i + 1)
        yield block


CLASS_ORDER = (TriangleClass.ACUTE, TriangleClass.RIGHT, TriangleClass.OBTUSE, TriangleClass.DEGENERATE)


def classify_triangle(a: Sequence[float], b: Sequence[float], c: Sequence[float],
                      tol: float = DEFAULT_TOL) -> TriangleClass:
    """Classify the triangle abc as Acute, Right, Obtuse or Degenerate."""
    pa, pb, pc = _as_point(a), _as_point(b), _as_point(c)
    if not (pa.shape == pb.shape == pc.shape):
        raise ValueError(
            f"dimension mismatch: {pa.shape[0]}, {pb.shape[0]}, {pc.shape[0]}"
        )
    code = int(classify_batch(pa[None, :], pb[None, :], pc[None, :], tol)[0])
    return CLASS_ORDER[code]


def class_counts(binc: Sequence[int]) -> dict[TriangleClass, int]:
    """The class dict of a length-4 count vector indexed like ``CLASS_ORDER``."""
    return {cls: int(n) for cls, n in zip(CLASS_ORDER, binc, strict=True)}


def count_classes(config: Configuration, tol: float = DEFAULT_TOL) -> dict[TriangleClass, int]:
    """Class counts over all C(n, 3) triples of a configuration.

    Counts are exact Python ints and always sum to C(n, 3).  Triples are
    classified one ``triple_blocks`` block at a time, from endpoints gathered
    once: the pairs j < k in ``triu_indices`` order run by j, so block i's
    pairs (those with j > i) are a contiguous suffix of them, classified
    against point i broadcast to the block's shape.
    """
    pts = config.points
    n = config.n
    j, k = np.triu_indices(n, 1)
    b_all, c_all = pts.take(j, axis=0), pts.take(k, axis=0)
    binc = np.zeros(4, dtype=np.int64)
    start = 0
    for i in range(n - 2):
        start += n - 1 - i  # pairs whose first index is i or less
        b, c = b_all[start:], c_all[start:]
        codes = classify_batch(np.broadcast_to(pts[i], b.shape), b, c, tol)
        binc += np.bincount(codes, minlength=4)
    return class_counts(binc)


def count_nonacute(config: Configuration, tol: float = DEFAULT_TOL) -> int:
    """Number of triples classified Right, Obtuse or Degenerate."""
    counts = count_classes(config, tol)
    return counts[TriangleClass.RIGHT] + counts[TriangleClass.OBTUSE] + counts[TriangleClass.DEGENERATE]


# Exact-rational classification, used to certify counts for configurations
# given with rational coordinates (no tolerance involved).

def _exact_dots(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    if not (len(a) == len(b) == len(c)):
        raise ValueError(f"dimension mismatch: {len(a)}, {len(b)}, {len(c)}")
    ab = [Fraction(y) - Fraction(x) for x, y in zip(a, b)]
    ac = [Fraction(y) - Fraction(x) for x, y in zip(a, c)]
    bc = [Fraction(y) - Fraction(x) for x, y in zip(b, c)]
    dot = lambda u, v: sum(ui * vi for ui, vi in zip(u, v))
    dot_a = dot(ab, ac)
    dot_b = -dot(ab, bc)
    dot_c = dot(ac, bc)
    area4_sq = dot(ab, ab) * dot(ac, ac) - dot_a * dot_a  # 4 * area^2, exact
    return dot_a, dot_b, dot_c, area4_sq


def classify_exact(a: Iterable, b: Iterable, c: Iterable) -> TriangleClass:
    """Tolerance-free classification from exact rational coordinates.

    Coordinates may be ints, Fractions, or floats (floats are binary
    rationals and convert exactly).
    """
    dot_a, dot_b, dot_c, area4_sq = _exact_dots(a, b, c)
    if area4_sq == 0:
        return TriangleClass.DEGENERATE
    dots = (dot_a, dot_b, dot_c)
    if any(d == 0 for d in dots):
        return TriangleClass.RIGHT
    if any(d < 0 for d in dots):
        return TriangleClass.OBTUSE
    return TriangleClass.ACUTE


def save_configuration(config: Configuration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.to_json())


def load_configuration(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return Configuration.from_json(fh.read())
