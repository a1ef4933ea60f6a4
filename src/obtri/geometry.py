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

One kernel, ``measure_batch``, computes the codes for every caller.  In R^2
and R^3 it works on coordinate-major edges, so each pass is a contiguous
loop over the triples and each dot product is summed in one fixed order on
every host; a block of at most ``_SMALL_BLOCK`` rows (the annealing
search's, the tail of an enumeration) takes all its products in one gather
and one multiply, since there a numpy call costs more than its arithmetic,
and gets the same bytes.  From d = 4 on the kernel keeps ``einsum`` on
row-major edges, which a C-contiguous block fills by one subtraction over
its whole buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from obtri.bounds import _int_at_least, _real_in

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
        _int_at_least("dimension", d, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinate in configuration")
        # Exact duplicate detection; tolerance-near duplicates are legal.
        # Adding 0.0 turns -0.0 into 0.0, so equal values give equal rows.
        if len(np.unique(pts + 0.0, axis=0)) < n:
            raise ValueError("configuration contains two identical points")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _triangle_area(l_ab: np.ndarray, l_ac: np.ndarray, l_bc: np.ndarray) -> np.ndarray:
    """Triangle areas by Kahan's ordered Heron formula on the squared edge
    lengths: stable for needles, and the best length-only form where there
    is no cross product (d = 1 and d >= 4)."""
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


def _lagged_edges(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges ``(b - a, c - a, c - b)`` of a C-contiguous (m, 3, d) block,
    as (m, d) views of one (m, 3, d) buffer.

    One subtraction of the block's flat buffer from itself shifted by d, each
    vertex row minus the one before, writes every b - a and c - b in one loop
    over the whole block instead of a loop of d elements per row; each
    triple's third slot, which it fills with the next triple's a minus this
    c, is then overwritten with c - a.  Every edge is the same subtraction
    as in the vertex form, so the edges are bit-identical to it.
    """
    d = tri.shape[-1]
    flat = tri.reshape(-1)
    edges = np.empty_like(tri)
    np.subtract(flat[d:], flat[:flat.size - d], out=edges.reshape(-1)[:flat.size - d])
    np.subtract(tri[:, 2], tri[:, 0], out=edges[:, 2])
    return edges[:, 0], edges[:, 2], edges[:, 1]


# Blocks of at most this many rows take their R^2 and R^3 products in one
# gather and one multiply (``_gathered_measures``).  At the search's 15 and
# 171 rows a numpy call costs more than its arithmetic, so fewer calls win;
# in larger blocks the gathered copy, 3.5 (d = 2) or 4 (d = 3) times the size
# of the edges, costs more than the calls it saves.  The two paths cross
# near 600 rows at d = 2 and 1,400 at d = 3 (README, numerical notes); the
# cut-over sits at the lower one, so every Monte Carlo chunk of 4,096 rows
# keeps the per-pass products of ``_coordinate_measures``.
_SMALL_BLOCK = 512


def _product_rows(d: int) -> np.ndarray:
    """Rows of the flattened (4d, m) edge buffer (slot s of coordinate j at
    row 4j + s) whose products ``_gathered_measures`` takes: the left
    factors, then as many right factors.

    Per coordinate j, six products: cur[j] * nxt[j] (the three vertex dots)
    and nxt[j] * nxt[j] (the squared |ab|, |bc|, |ac|); then the cross
    product's terms u_i v_k of u = ba and v = ac, in the order
    ``_coordinate_measures`` subtracts them: u0 v1 - u1 v0 at d = 2, and at
    d = 3 (u1 v2, u2 v0, u0 v1) - (u2 v1, u0 v2, u1 v0).
    """
    left, right = [], []
    for s in range(0, 4 * d, 4):
        left += [s, s + 1, s + 2, s + 1, s + 2, s + 3]
        right += [s + 1, s + 2, s + 3] * 2
    pairs = ((0, 1), (1, 0)) if d == 2 else ((1, 2), (2, 0), (0, 1), (2, 1), (0, 2), (1, 0))
    left += [4 * i + 1 for i, _ in pairs]
    right += [4 * k + 3 for _, k in pairs]
    return np.array(left + right, dtype=np.intp)


_PRODUCT_ROWS = {d: _product_rows(d) for d in (2, 3)}


def _gathered_measures(edges: np.ndarray):
    """``_coordinate_measures``'s result from its (d, 4, m) edge buffer,
    with every product from one ``take`` of the buffer's rows and one
    multiply (see ``_product_rows`` for the rows).

    The sums run in the same order on the same operands: the dots and
    squared lengths of coordinate 0 plus those of 1 at d = 2, (p0 + p2) + p1
    at d = 3, six rows per add; so every output is bit-identical to the
    per-pass products.  The outputs are rows of the one (2r, m) gathered
    buffer, r = 14 at d = 2 and 24 at d = 3.
    """
    d, _, m = edges.shape
    rows = _PRODUCT_ROWS[d]
    r = rows.size // 2
    prod = edges.reshape(4 * d, m).take(rows, axis=0)
    prod = np.multiply(prod[:r], prod[r:], out=prod[:r])
    sums = prod[:6]  # dots at a, b, c, then squared |ab|, |bc|, |ac|
    for j in (2, 1)[3 - d:]:
        sums += prod[6 * j:6 * j + 6]
    if d == 2:
        area = np.subtract(prod[12], prod[13], out=prod[12])
        np.abs(area, out=area)
    else:
        cross = np.subtract(prod[18:21], prod[21:24], out=prod[18:21])
        area = np.square(cross, out=cross)[0]
        area += cross[1]
        area += cross[2]
        np.sqrt(area, out=area)
    area *= 0.5
    lengths = sums[3:]
    scale = np.maximum(lengths[0], np.maximum(lengths[2], lengths[1], out=lengths[2]), out=lengths[2])
    return sums[:3], area, scale, lengths[:2]


def _coordinate_measures(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """``(dots, area, scale, work)`` in R^2 and R^3 from (m, d) vertex rows:
    the (3, m) dot products at a, b and c, the (m,) area and largest squared
    edge length, and ``work``, rows of the buffer that are free once these
    are computed.

    The edges go into one coordinate-major (d, 4, m) buffer, slots ca, ba,
    bc, ac, written from the transposed vertex rows (stride-0 rows are read
    in place), so every later pass is a contiguous loop over the triples.
    A block of at most ``_SMALL_BLOCK`` rows hands the buffer to
    ``_gathered_measures``; a larger one takes its products pass by pass.
    Adjacent slots are the two edges at a, b and c: with cur = slots 0..2
    and nxt = slots 1..3, the dot products are one sum over coordinates j
    of cur[j] * nxt[j], and the squared lengths of ba, bc, ac one sum of
    nxt[j]**2, each in ``einsum``'s order on the host that made the pinned
    digests: p0 + p1 at d = 2, (p0 + p2) + p1 at d = 3.  (Only an exact
    zero's sign may differ, which the kernel never looks at.)  Each pass
    covers all three vertices, or all three edges, at once: at m = 15 a
    numpy call costs far more than its arithmetic.  The area is half the
    norm of the cross product of ba and ac, whose differences cancel large
    common coordinates first, so needles keep full relative accuracy.
    Besides the buffer only the (3, m) dot products and one (3, m) scratch
    block are allocated: 18 values per triple at d = 3.
    """
    m, d = a.shape
    edges = np.empty((d, 4, m))
    at, bt, ct = a.T, b.T, c.T
    np.subtract(at, ct, out=edges[:, 0])
    np.subtract(at, bt, out=edges[:, 1])
    np.subtract(ct, bt, out=edges[:, 2])
    np.subtract(ct, at, out=edges[:, 3])
    if m <= _SMALL_BLOCK:
        return _gathered_measures(edges)
    cur, nxt = edges[:, :3], edges[:, 1:]
    dots, part = np.empty((3, m)), np.empty((3, m))
    rest = (-1, 1)[:d - 1]  # the terms after p0 in einsum's order: p1, or p2 then p1
    np.multiply(cur[0], nxt[0], out=dots)
    for j in rest:
        dots += np.multiply(cur[j], nxt[j], out=part)
    # The cross product of u = ba and v = ac, from products u_i v_j and
    # u_j v_i: in the scratch rows at d = 2; at d = 3 the u_i v_j go to
    # slot 0, free now, and the difference is written there too, since
    # numpy would buffer it into a contiguous output.
    u, v = edges[:, 1], edges[:, 3]
    if d == 2:
        np.multiply(u, v[::-1], out=part[:2])
        area = part[0]
        area -= part[1]
        np.abs(area, out=area)
    else:
        np.multiply(u[1:], v[::-2], out=edges[:2, 0])
        np.multiply(u[0], v[1], out=edges[2, 0])
        np.multiply(u[::-2], v[1:], out=part[:2])
        np.multiply(u[1], v[0], out=part[2])
        cross = np.subtract(edges[:, 0], part, out=edges[:, 0])
        area = np.square(cross, out=cross)[0]
        area += cross[1]
        area += cross[2]
        np.sqrt(area, out=area)
    area *= 0.5
    lengths = np.square(nxt, out=nxt)[0]  # squared |ab|, |bc|, |ac|
    for j in rest:
        lengths += nxt[j]
    scale = np.maximum(lengths[0], np.maximum(lengths[2], lengths[1], out=part[1]), out=part[1])
    return dots, area, scale, lengths


def measure_batch(a: np.ndarray, b: np.ndarray | None = None, c: np.ndarray | None = None,
                  tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triangle-measure kernel: class codes with the quantities behind them.

    Takes the triangles in one of two forms, with any leading shape:

    * vertex form, ``measure_batch(a, b, c, tol)``: vertex arrays of shape
      (..., d) that broadcast together, such as a (d,) point with (m, d) rows;
    * block form, ``measure_batch(tri, tol=tol)``: one array of shape
      (..., 3, d) whose rows are the vertices a, b, c, with ``tol`` passed
      by keyword.

    Only this function sees the leading shape: it takes either form as (m, d)
    vertex rows (a block as its views ``tri[:, 0]``, ``tri[:, 1]``,
    ``tri[:, 2]``) and gives each output that shape back.  In R^2 and R^3
    the rows go to ``_coordinate_measures``, which gives a block of at most
    ``_SMALL_BLOCK`` rows its products from one gather and one multiply
    (``_gathered_measures``) and a larger one pass by pass, with the same
    bytes either way; else the edges are the (m, d)
    rows ``b - a``, ``c - a``, ``c - b``, which ``_lagged_edges`` fills from
    a C-contiguous block (a Monte Carlo chunk, the search's gathered block).
    Every edge is the same subtraction in both forms, so they return
    bit-identical results.  Only leading axes broadcast: the
    three vertices must have one trailing length d.

    Returns ``(codes, min_abs, scale)`` of the leading shape: the int8 class
    code (see ``classify_batch``), the smallest |vertex dot product| and the
    largest squared edge length.  ``min_abs / scale`` is the normalized
    right-angle margin that the annealing search maximizes.  Each call
    returns fresh arrays that the caller may write; in R^2 and R^3
    ``min_abs`` and ``scale`` are rows of (3, m) buffers, or of the gathered
    (28, m) or (48, m) buffer in a small block, so keeping either keeps
    several values per triple alive.
    """
    tol = _real_in("tol", tol, 0.0, math.inf, closed=0.0)
    if b is None and c is None:
        tri = np.asarray(a, dtype=float)
        if tri.ndim < 2 or tri.shape[-2] != 3:
            raise ValueError(f"a triangle block has shape (..., 3, d), got {tri.shape}")
        lead, d = tri.shape[:-2], tri.shape[-1]
        tri = tri.reshape(math.prod(lead), 3, d)
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    elif b is None or c is None:
        raise ValueError("give the vertices a, b and c, or one (..., 3, d) block "
                         "with tol by keyword")
    else:
        tri = None
        a, b, c = (np.asarray(p, dtype=float) for p in (a, b, c))
        if not a.shape == b.shape == c.shape:
            if not a.shape[-1:] == b.shape[-1:] == c.shape[-1:]:
                raise ValueError(
                    f"dimension mismatch: vertex shapes {a.shape}, {b.shape}, {c.shape}")
            shape = np.broadcast(a, b, c).shape
            a, b, c = (p if p.shape == shape else np.broadcast_to(p, shape) for p in (a, b, c))
        lead, d = a.shape[:-1], a.shape[-1]
        a, b, c = (p.reshape(math.prod(lead), d) for p in (a, b, c))
    if d in (2, 3):
        dots, area, scale, work = _coordinate_measures(a, b, c)
    else:
        # The dot products stay on einsum, whose order follows numpy's SIMD
        # dispatch (see the README's numerical notes for the order measured
        # on the host that made the pinned digests).  It sums a row in that
        # order only when the row's coordinates are adjacent, so the edges
        # are written in C order whatever the vertices' layout.  The vertex
        # form's rows are already contiguous, and stacking them into a
        # block first would cost more than the fill saves.
        if tri is not None and tri.flags.c_contiguous:
            ab, ac, bc = _lagged_edges(tri)
        else:
            ab, ac, bc = (np.subtract(p, q, order="C") for p, q in ((b, a), (c, a), (c, b)))
        dot = lambda u, v, out=None: np.einsum("...i,...i->...", u, v, out=out)
        dots = np.empty((3, ab.shape[0]))
        dot(ab, ac, dots[0])
        np.negative(dot(ab, bc, dots[1]), out=dots[1])
        dot(ac, bc, dots[2])
        work = dot(ab, ab), dot(ac, ac), dot(bc, bc)  # squared |ab|, |ac|, |bc|
        # The edge vectors are the largest temporaries: drop them before the
        # area, so a Monte Carlo block's peak memory stays low.
        del ab, ac, bc
        area = _triangle_area(*work)
        scale = np.maximum(work[0], np.maximum(work[1], work[2]))
    # Temporaries go into free rows of ``work`` and min_abs into b's dot
    # product, so only the codes are allocated while the large buffers are
    # live: allocated after those are freed, they would split the space the
    # next block's buffers need, and a worker thread's heap would grow.  The
    # obtuse flags are written as the codes' bytes and doubled, so the one
    # dense class needs no masked store.
    dot_a, dot_b, dot_c = dots[0], dots[1], dots[2]
    thresh = np.multiply(scale, tol, out=work[0])
    low = np.minimum(dot_a, np.minimum(dot_b, dot_c, out=work[1]), out=work[1])
    np.abs(dots, out=dots)
    min_abs = np.minimum(dot_a, np.minimum(dot_b, dot_c, out=dot_b), out=dot_b)
    codes = np.greater(np.negative(low, out=low), thresh).view(np.int8)
    codes += codes  # 0 acute, 2 obtuse
    codes[min_abs <= thresh] = 1
    codes[area <= thresh] = 3
    return codes.reshape(lead), min_abs.reshape(lead), scale.reshape(lead)


def classify_batch(a: np.ndarray, b: np.ndarray | None = None, c: np.ndarray | None = None,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Classify stacked triangles; returns an int array (see ``CLASS_ORDER``).

    0 = acute, 1 = right, 2 = obtuse, 3 = degenerate.  Takes the vertex form
    ``(a, b, c, tol)`` or the block form ``(tri, tol=tol)`` of
    ``measure_batch``.
    """
    return measure_batch(a, b, c, tol)[0]


CLASS_ORDER = (TriangleClass.ACUTE, TriangleClass.RIGHT, TriangleClass.OBTUSE, TriangleClass.DEGENERATE)


def classify_triangle(a: Sequence[float], b: Sequence[float], c: Sequence[float],
                      tol: float = DEFAULT_TOL) -> TriangleClass:
    """Classify the triangle abc as Acute, Right, Obtuse or Degenerate."""
    pa, pb, pc = _as_point(a), _as_point(b), _as_point(c)
    if not (pa.shape == pb.shape == pc.shape):
        raise ValueError(
            f"dimension mismatch: {pa.shape[0]}, {pb.shape[0]}, {pc.shape[0]}"
        )
    code = int(classify_batch(pa, pb, pc, tol))
    return CLASS_ORDER[code]


def class_counts(binc: Sequence[int]) -> dict[TriangleClass, int]:
    """The class dict of a length-4 count vector indexed like ``CLASS_ORDER``."""
    return {cls: int(n) for cls, n in zip(CLASS_ORDER, binc, strict=True)}


def count_classes(config: Configuration, tol: float = DEFAULT_TOL) -> dict[TriangleClass, int]:
    """Class counts over all C(n, 3) triples of a configuration.

    Counts are exact Python ints and always sum to C(n, 3).  Triples are
    classified one first index i at a time, from endpoints gathered once:
    the pairs j < k in ``triu_indices`` order run by j, so the pairs with
    j > i are a contiguous suffix of them, (m, d) rows passed with the (d,)
    point i, which the kernel broadcasts as a stride-0 view.
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
        codes = classify_batch(pts[i], b, c, tol)
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

