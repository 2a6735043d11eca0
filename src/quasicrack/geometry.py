"""Planar crack-set geometry: polyline unions, length, Hausdorff metric.

Crack sets are finite unions of simple polyline arcs (single points allowed
as degenerate components). All types are immutable values; every operation
is pure.

Predicates are exact. `_orient` decides from floats when the determinant
clears Shewchuk's error bound, or when the signs of its two products
settle it (every axis-aligned collinear triple); only the rest is
recomputed in Fractions. The other predicates build on it behind
bounding-box tests, which float compares decide exactly.

Each crack set caches one exact union table: per supporting line, its
segments and the merged closed intervals they cover, with float endpoints.
The length of the union and exact containment (`contains`) are both read
from it. A crack builds its table segment by segment, except one
made by `extend_tip`, which tests its new segment exactly against only the
rows of its base whose bounding box meets it and takes the base's table
with that segment added. It keeps nothing else of its base. The one
Fraction left on this path is the slope of a multi-segment line that is
not axis-aligned.

Distances from arrays of points are one kernel, `segment_distances`, an
(N, S) matrix over segments in which an isolated point q is [q, q]. The
Hausdorff distance bounds it by branch and bound; the mesher's clearance
test computes its entries on the pairs that bounding boxes cannot rule out.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

Point = tuple[float, float]

#: Shewchuk's bound (3 + 16 eps) eps, eps = 2**-53, on the rounding error of
#: a 2x2 orientation determinant relative to the sum of its product magnitudes
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


class GeometryViolation(Exception):
    """A crack operation would produce an invalid set."""


def json_number(value, what: str, *, integer: bool = False):
    """`value` if it is a JSON number whose float is finite, or an integer
    where `integer`; else raise ValueError. A JSON boolean is not a number."""
    try:
        ok = type(value) in ((int,) if integer else (int, float)) and (integer or math.isfinite(value))
    except OverflowError:  # an integer with no finite float
        ok = False
    if not ok:
        raise ValueError(f"{what} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    return value


def json_point(value, what: str) -> Point:
    """`value` as a point if it is a JSON pair of numbers, else raise ValueError."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{what} must be a pair of numbers, got {value!r}")
    x, y = (json_number(v, what) for v in value)
    return (x, y)


# ---------------------------------------------------------------------------
# exact predicates
# ---------------------------------------------------------------------------


def _orient(a: Point, b: Point, c: Point) -> int:
    """Sign of cross(b - a, c - a): +1 left turn, -1 right turn, 0 collinear.

    The float determinant decides when it clears Shewchuk's error bound
    for this expression (plus an absolute term against underflow). Else
    the signs of the two products decide when they differ or one is zero:
    a float difference is zero only for equal operands and rounding keeps
    every sign, so this is exact and settles axis-aligned collinear
    triples. Only the rest is recomputed in Fractions (floats convert
    exactly).
    """
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = c[0] - a[0], c[1] - a[1]
    left, right = ux * vy, uy * vx
    det = left - right
    if abs(det) > _ORIENT_ERR * (abs(left) + abs(right)) + 1e-300:
        return 1 if det > 0 else -1
    sl = ((ux > 0) - (ux < 0)) * ((vy > 0) - (vy < 0))
    sr = ((uy > 0) - (uy < 0)) * ((vx > 0) - (vx < 0))
    if sl != sr or sl == 0:
        return (sl > sr) - (sl < sr)
    ax, ay = Fraction(a[0]), Fraction(a[1])
    det_exact = (Fraction(b[0]) - ax) * (Fraction(c[1]) - ay) - (
        Fraction(b[1]) - ay
    ) * (Fraction(c[0]) - ax)
    return (det_exact > 0) - (det_exact < 0)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact test: p lies on the closed segment [a, b]."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        and _orient(a, b, p) == 0
    )


def _segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Exact test: closed segments [p1,p2] and [p3,p4] share a point."""
    # disjoint closed bounding boxes share no point (float compares are exact)
    if (
        max(p1[0], p2[0]) < min(p3[0], p4[0])
        or max(p3[0], p4[0]) < min(p1[0], p2[0])
        or max(p1[1], p2[1]) < min(p3[1], p4[1])
        or max(p3[1], p4[1]) < min(p1[1], p2[1])
    ):
        return False
    o1 = _orient(p1, p2, p3)
    o2 = _orient(p1, p2, p4)
    o3 = _orient(p3, p4, p1)
    o4 = _orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p3, p1, p2):
        return True
    if o2 == 0 and _on_segment(p4, p1, p2):
        return True
    if o3 == 0 and _on_segment(p1, p3, p4):
        return True
    if o4 == 0 and _on_segment(p2, p3, p4):
        return True
    return False


def _segments_properly_cross(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Transversal crossing with the intersection interior to both segments."""
    o1 = _orient(p1, p2, p3)
    o2 = _orient(p1, p2, p4)
    o3 = _orient(p3, p4, p1)
    o4 = _orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _intersect_beyond_shared(seg: tuple[Point, Point], other: tuple[Point, Point]) -> bool:
    """True if two segments that share an end vertex meet anywhere else.

    Segments on different lines meet only at the shared vertex, so this
    is the exact test for a collinear overlap of positive length (a fold-back).
    """
    if _orient(other[0], other[1], seg[0]) != 0 or _orient(other[0], other[1], seg[1]) != 0:
        return False
    return max(min(other), min(seg)) != min(max(other), max(seg))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polyline:
    """A simple polyline arc; a single vertex is a degenerate point component."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 1:
            raise GeometryViolation("polyline needs at least one vertex")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise GeometryViolation("consecutive vertices must be distinct")
        self._check_simple()

    @classmethod
    def _unchecked(cls, vertices: tuple[Point, ...]) -> "Polyline":
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertices", vertices)
        return obj

    def _check_simple(self):
        segs = self.segments()
        n = len(segs)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1:
                    # adjacent segments may only share their common vertex
                    if _intersect_beyond_shared(segs[i], segs[j]):
                        raise GeometryViolation("polyline folds onto itself")
                elif _segments_intersect(*segs[i], *segs[j]):
                    raise GeometryViolation("polyline self-intersects")

    def segments(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        return [(v[i], v[i + 1]) for i in range(len(v) - 1)]

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1


@dataclass(frozen=True)
class Tip:
    """One free end of a polyline component, oriented out of the crack."""

    component_id: int
    end: str  # "start" | "finish"
    position: Point
    tangent: Point


@dataclass(frozen=True)
class CrackSet:
    """Finite union of polyline components with a component budget m."""

    components: tuple[Polyline, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.m < 1:
            raise GeometryViolation("component budget m must be >= 1")
        if component_count(self) > self.m:
            raise GeometryViolation(
                f"crack set has more than m={self.m} connected components"
            )

    @classmethod
    def _unchecked(cls, components: tuple[Polyline, ...], m: int) -> "CrackSet":
        obj = object.__new__(cls)
        object.__setattr__(obj, "components", components)
        object.__setattr__(obj, "m", m)
        return obj

    @property
    def is_empty(self) -> bool:
        return len(self.components) == 0

    def segments(self) -> list[tuple[Point, Point]]:
        out = []
        for comp in self.components:
            out.extend(comp.segments())
        return out

    def isolated_points(self) -> list[Point]:
        return [c.vertices[0] for c in self.components if c.is_point]

    def fingerprint(self) -> tuple:
        return tuple(c.vertices for c in self.components)

    @cached_property
    def _lines(self) -> tuple["_Line", ...]:
        return _union_table(self)

    @cached_property
    def _length(self) -> float:
        return _union_length(self._lines)

    @cached_property
    def _rows(self) -> tuple[list, np.ndarray]:
        """Each component's segments in order, a point component q as [q, q]:
        the (component, a, b) rows and their (R, 4) boxes
        [xmin, ymin, -xmax, -ymax], for the float filter of `extend_tip`."""
        rows = [
            (ci, a, b)
            for ci, comp in enumerate(self.components)
            for a, b in (comp.segments() or [(comp.vertices[0], comp.vertices[0])])
        ]
        arr = np.array([(a, b) for _, a, b in rows], float).reshape(-1, 2, 2)
        return rows, np.hstack([np.minimum(arr[:, 0], arr[:, 1]), -np.maximum(arr[:, 0], arr[:, 1])])

    def to_json(self) -> list:
        return [[[x, y] for x, y in c.vertices] for c in self.components]

    @classmethod
    def from_json(cls, data: Sequence, m: int) -> "CrackSet":
        return cls(tuple(Polyline(tuple(json_point(p, "crack vertex") for p in c)) for c in data), m)


# ---------------------------------------------------------------------------
# length (H^1 of the union, exact collinear-overlap dedup)
# ---------------------------------------------------------------------------


class _Line(NamedTuple):
    """One supporting line of a crack's union.

    `group` holds the crack's segments on the line, `group[0]` the first in
    `CrackSet.segments()` order and `comp` its component. `dom`, the
    dominant coordinate of `group[0]`, parametrizes the line; `merged`
    lists the disjoint closed intervals (touching ones joined) that the
    segments cover along it, in float endpoints. `unit` is the line's
    length per unit of `dom` for two or more segments, else None.
    """

    group: tuple[tuple[Point, Point], ...]
    comp: int
    dom: int
    merged: tuple[tuple[float, float], ...]
    unit: float | None


def _line(group: tuple, comp: int, unit: float | None = None) -> _Line:
    """The `_Line` of `group`; `unit` may carry over from a line with the
    same `group[0]`."""
    a0, b0 = group[0]
    dom = 0 if abs(b0[0] - a0[0]) >= abs(b0[1] - a0[1]) else 1
    merged: list[list[float]] = []
    for lo, hi in sorted((min(a[dom], b[dom]), max(a[dom], b[dom])) for a, b in group):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if len(group) > 1 and unit is None:
        oth = 1 - dom
        if b0[oth] == a0[oth]:
            unit = 1.0  # axis-aligned: slope 0
        else:
            slope = (Fraction(b0[oth]) - Fraction(a0[oth])) / (
                Fraction(b0[dom]) - Fraction(a0[dom])
            )
            unit = math.sqrt(1.0 + float(slope) ** 2)
    return _Line(group, comp, dom, tuple((lo, hi) for lo, hi in merged), unit)


def _find_line(table: tuple[_Line, ...], seg: tuple[Point, Point]) -> int:
    """Index of the line in `table` that holds `seg`, or -1 (exact)."""
    for k, line in enumerate(table):
        a0, b0 = line.group[0]
        if _orient(a0, b0, seg[0]) == 0 and _orient(a0, b0, seg[1]) == 0:
            return k
    return -1


def _with_segment(table: tuple[_Line, ...], seg, comp: int, end: str) -> tuple[_Line, ...]:
    """`table` with `seg` added at `end` ("start" or "finish") of component
    `comp`'s segments; only the line that holds `seg` is rebuilt."""
    k = _find_line(table, seg)
    if k < 0:
        return table + (_line((seg,), comp),)
    line = table[k]
    # a segment added before the line's first one becomes `group[0]`
    if line.comp > comp or (end == "start" and line.comp == comp):
        new = _line((seg,) + line.group, comp)
    else:
        new = _line(line.group + (seg,), line.comp, line.unit)
    return table[:k] + (new,) + table[k + 1 :]


def _union_table(crack: CrackSet) -> tuple[_Line, ...]:
    """The exact union of a crack, one `_Line` per line, segment by segment."""
    table: tuple[_Line, ...] = ()
    for ci, comp in enumerate(crack.components):
        for seg in comp.segments():
            table = _with_segment(table, seg, ci, "finish")
    return table


def length(crack: CrackSet) -> float:
    """Total H^1 measure of the union; exactly-collinear overlaps counted once.

    Memoized on the crack set, which is immutable.
    """
    return crack._length


def _union_length(table: tuple[_Line, ...]) -> float:
    # a width hi - lo of float endpoints is the exact width rounded once
    terms: list[float] = []
    for line in table:
        if line.unit is None:
            (a0, b0), = line.group
            terms.append(math.hypot(b0[0] - a0[0], b0[1] - a0[1]))
        else:
            terms.extend((hi - lo) * line.unit for lo, hi in line.merged)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# connected components of the union
# ---------------------------------------------------------------------------


def _components_touch(p: Polyline, q: Polyline) -> bool:
    if p.is_point and q.is_point:
        return p.vertices[0] == q.vertices[0]
    if p.is_point:
        return any(_on_segment(p.vertices[0], *s) for s in q.segments())
    if q.is_point:
        return any(_on_segment(q.vertices[0], *s) for s in p.segments())
    return any(
        _segments_intersect(*s, *t) for s in p.segments() for t in q.segments()
    )


def component_count(crack: CrackSet) -> int:
    """Number of connected components of the union (exact touch detection)."""
    comps = crack.components
    n = len(comps)
    if n == 0:
        return 0
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) != find(j) and _components_touch(comps[i], comps[j]):
                parent[find(j)] = find(i)
    return len({find(i) for i in range(n)})


# ---------------------------------------------------------------------------
# point-segment distances; Hausdorff metric (branch and bound, certified to `tol`)
# ---------------------------------------------------------------------------


def _dist_to_segment(p: Point, a: Point, b: Point) -> float:
    """Distance from p to the closed segment [a, b]; a == b is a point."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    t = 0.0 if dd == 0.0 else max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / dd))
    return math.hypot(a[0] + t * dx - p[0], a[1] + t * dy - p[1])


def segment_distances(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, S) distances from points (N, 2) to closed segments [a_j, b_j] (S, 2).

    A segment with a == b is a point. The operations are those of
    `_dist_to_segment` except that `sqrt` of the summed squares replaces
    `hypot`, so an entry may differ from it in the last bits.
    """
    return _distances(pts[:, 0, None], pts[:, 1, None], a, b)


def _distances(px: np.ndarray, py: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points (px, py) to closed segments [a, b] (..., 2),
    elementwise under broadcasting: a pair gives the same bits here as in
    the `segment_distances` matrix."""
    dx, dy = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    dd = np.maximum(dx * dx + dy * dy, 1e-300)
    t = np.clip(((px - a[..., 0]) * dx + (py - a[..., 1]) * dy) / dd, 0.0, 1.0)
    ex = a[..., 0] + t * dx - px
    ey = a[..., 1] + t * dy - py
    return np.sqrt(ex * ex + ey * ey)


def _elements(crack: CrackSet) -> tuple[np.ndarray, np.ndarray]:
    """End arrays (S, 2) of a crack's segments, each isolated point q as [q, q]."""
    segs = crack.segments() + [(q, q) for q in crack.isolated_points()]
    arr = np.array(segs, float).reshape(-1, 2, 2)
    return arr[:, 0], arr[:, 1]


def _directed_distance(src: CrackSet, tgt: CrackSet, tol: float) -> float:
    """sup over src of dist(., tgt), by branch and bound on source segments.

    Each target element is convex, so its distance is convex along a
    source piece and min_j max(d_j(a), d_j(b)) upper-bounds the piece;
    this bound is tight on plateaus (parallel features), which keeps the
    subdivision finite there.
    """
    a_t, b_t = _elements(tgt)

    def dists(pts) -> np.ndarray:
        return segment_distances(np.array(pts, float).reshape(-1, 2), a_t, b_t)

    best = float(np.max(dists(src.isolated_points()).min(axis=1), initial=0.0))
    heap: list = []
    counter = itertools.count()

    def push(a, b, da, db):
        nonlocal best
        ub = float(np.min(np.maximum(da, db)))
        half = 0.5 * math.hypot(b[0] - a[0], b[1] - a[1])
        ub = min(ub, max(float(np.min(da)), float(np.min(db))) + half)
        if ub > best + tol:
            heapq.heappush(heap, (-ub, next(counter), a, b, da, db))

    segs = src.segments()
    ends = dists([p for s in segs for p in s])
    for (a, b), da, db in zip(segs, ends[0::2], ends[1::2]):
        best = max(best, float(np.min(da)), float(np.min(db)))
        push(a, b, da, db)
    while heap:
        neg_ub, _, a, b, da, db = heapq.heappop(heap)
        if -neg_ub <= best + tol:
            break
        mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        dm = dists([mid])[0]
        best = max(best, float(np.min(dm)))
        push(a, mid, da, dm)
        push(mid, b, dm, db)
    return best


def hausdorff_distance(
    k1: CrackSet,
    k2: CrackSet,
    *,
    domain_diameter: float | None = None,
    tol: float = 1e-12,
) -> float:
    """Hausdorff distance between two crack sets, certified to `tol`.

    The empty-set convention dist(x, {}) = diam needs `domain_diameter`;
    it is only consulted when exactly one of the sets is empty.
    """
    e1, e2 = k1.is_empty, k2.is_empty
    if e1 and e2:
        return 0.0
    if e1 or e2:
        if domain_diameter is None:
            raise ValueError("domain_diameter required for empty-set convention")
        return float(domain_diameter)
    d12 = _directed_distance(k1, k2, tol)
    d21 = _directed_distance(k2, k1, tol)
    return max(d12, d21)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def contains(k_big: CrackSet, k_small: CrackSet) -> bool:
    """True iff every point of k_small lies on k_big (exact).

    Each isolated point of k_small must lie on k_big, and each segment in
    one merged interval of k_big's union table on its line, so
    prefix-preserving extensions certify containment with zero slack.
    """
    if k_small.is_empty:
        return True
    if k_big.is_empty:
        return False
    big_segs = k_big.segments()
    big_pts = set(k_big.isolated_points())
    for p in k_small.isolated_points():
        if p not in big_pts and not any(_on_segment(p, *s) for s in big_segs):
            return False
    lines = k_big._lines
    for seg in k_small.segments():
        k = _find_line(lines, seg)
        if k < 0:
            return False
        dom, merged = lines[k].dom, lines[k].merged
        lo, hi = min(seg[0][dom], seg[1][dom]), max(seg[0][dom], seg[1][dom])
        if not any(mlo <= lo and hi <= mhi for mlo, mhi in merged):
            return False
    return True


# ---------------------------------------------------------------------------
# tips and growth
# ---------------------------------------------------------------------------


def _normalize(v: tuple[float, float]) -> tuple[float, float]:
    n = math.hypot(v[0], v[1])
    return (v[0] / n, v[1] / n)


def crack_tips(crack: CrackSet) -> tuple[Tip, ...]:
    """Both ends of every non-degenerate component, tangents pointing out."""
    tips = []
    for ci, comp in enumerate(crack.components):
        if not comp.is_point:
            v = comp.vertices
            for end, p, q in (("start", v[0], v[1]), ("finish", v[-1], v[-2])):
                tips.append(Tip(ci, end, p, _normalize((p[0] - q[0], p[1] - q[1]))))
    return tuple(tips)


def tips_on_boundary(crack: CrackSet, domain) -> tuple[tuple[Tip, bool], ...]:
    """Each tip of `crack_tips(crack)` with whether `domain.on_boundary` holds it."""
    return tuple((t, domain.on_boundary(t.position)) for t in crack_tips(crack))


def extend_tip(
    crack: CrackSet,
    tip: Tip,
    angle: float,
    step: float,
    *,
    domain=None,
) -> CrackSet:
    """New crack set with one segment of length `step` appended at `tip`.

    The segment leaves the tip rotated by `angle` from the outward tangent;
    the kink bound on `angle` is the candidate policy's. The original vertex lists are preserved verbatim, so the result always
    contains the input exactly. `domain`, when given, must expose
    ``contains_segment(p, q)``; the extension may touch the boundary at its
    far endpoint but must not cross it. The new segment is tested exactly
    against the rows of the crack whose bounding box meets its own; the
    result's union table is its base's plus the new segment.
    """
    if step <= 0.0:
        raise GeometryViolation("extension step must be positive")
    if tip.component_id < 0 or tip.component_id >= len(crack.components):
        raise GeometryViolation("tip refers to a missing component")
    comp = crack.components[tip.component_id]
    if comp.is_point:
        raise GeometryViolation("cannot extend a point component")
    v = comp.vertices
    anchor, adjacent = (v[0], (v[0], v[1])) if tip.end == "start" else (v[-1], (v[-2], v[-1]))
    if anchor != tip.position:
        raise GeometryViolation("stale tip: position does not match component end")

    tx, ty = tip.tangent
    ca, sa = math.cos(angle), math.sin(angle)
    # snap cardinal rotations so axis-aligned growth stays exactly aligned
    if abs(ca) < 1e-15:
        ca = 0.0
    if abs(sa) < 1e-15:
        sa = 0.0
    dx, dy = ca * tx - sa * ty, sa * tx + ca * ty
    new_pt = (anchor[0] + step * dx, anchor[1] + step * dy)
    # oriented as `segments()` lists it
    new_seg = (new_pt, anchor) if tip.end == "start" else (anchor, new_pt)

    if domain is not None and not domain.contains_segment(anchor, new_pt):
        raise GeometryViolation("extension exits the domain or crosses its boundary")

    # rows whose closed box misses the new segment's cannot touch it
    rows, boxes = crack._rows
    reach = (
        max(anchor[0], new_pt[0]), max(anchor[1], new_pt[1]),
        -min(anchor[0], new_pt[0]), -min(anchor[1], new_pt[1]),
    )
    for i in np.flatnonzero((boxes <= reach).all(axis=1)).tolist():
        ci, a, b = rows[i]
        if a == b:
            if a != anchor and _on_segment(a, *new_seg):
                raise GeometryViolation("extension hits another component")
        elif ci == tip.component_id and (a, b) == adjacent:
            if _intersect_beyond_shared(new_seg, (a, b)):
                raise GeometryViolation("extension folds back onto the crack")
        elif _segments_intersect(*new_seg, a, b):
            raise GeometryViolation("extension intersects the existing crack")

    if tip.end == "start":
        new_vertices = (new_pt,) + v
    else:
        new_vertices = v + (new_pt,)
    comps = list(crack.components)
    comps[tip.component_id] = Polyline._unchecked(new_vertices)
    out = CrackSet._unchecked(tuple(comps), crack.m)
    object.__setattr__(
        out, "_lines", _with_segment(crack._lines, new_seg, tip.component_id, tip.end)
    )
    return out
