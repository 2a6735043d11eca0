"""Planar crack-set geometry: polyline unions, length, Hausdorff metric.

Crack sets are finite unions of simple polyline arcs (single points allowed
as degenerate components). All types are immutable values; every operation
is pure. Geometric predicates use a float fast path with a conservative
error filter and fall back to exact rational arithmetic on ties.

Each crack set caches one exact union table (`_union_table`): per
supporting line, its segments and the merged closed intervals they cover.
The length of the union and exact containment (`contains` at tol 0) are
both read from it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

Point = tuple[float, float]

#: coordinate tolerance for geometric predicates on a unit-scaled domain
EPS_GEOM = 1e-12


class GeometryViolation(Exception):
    """A crack operation would produce an invalid set."""


# ---------------------------------------------------------------------------
# exact predicates
# ---------------------------------------------------------------------------


def _orient(a: Point, b: Point, c: Point) -> int:
    """Sign of cross(b - a, c - a): +1 left turn, -1 right turn, 0 collinear.

    Float arithmetic decides when the determinant is safely above the
    rounding error; otherwise the sign is recomputed with Fractions
    (floats convert exactly, so this branch is exact).
    """
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = c[0] - a[0], c[1] - a[1]
    det = ux * vy - uy * vx
    scale = (abs(ux) + abs(uy)) * (abs(vx) + abs(vy))
    if abs(det) > 1e-12 * scale:
        return 1 if det > 0.0 else -1
    ax, ay = Fraction(a[0]), Fraction(a[1])
    det_exact = (Fraction(b[0]) - ax) * (Fraction(c[1]) - ay) - (
        Fraction(b[1]) - ay
    ) * (Fraction(c[0]) - ax)
    if det_exact > 0:
        return 1
    if det_exact < 0:
        return -1
    return 0


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact test: p lies on the closed segment [a, b]."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
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

    def arc_length(self) -> float:
        v = self.vertices
        return math.fsum(
            math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(v, v[1:])
        )


@dataclass(frozen=True)
class Tip:
    """One free end of a polyline component, oriented out of the crack."""

    component_id: int
    end: str  # "start" | "finish"
    position: Point
    tangent: Point
    arclength: float


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
    def _lines(self) -> dict:
        return _union_table(self.segments())

    @cached_property
    def _length(self) -> float:
        return _union_length(self._lines)

    def to_json(self) -> list:
        return [[[x, y] for x, y in c.vertices] for c in self.components]

    @classmethod
    def from_json(cls, data: Sequence, m: int | None = None) -> "CrackSet":
        comps = tuple(Polyline(tuple((x, y) for x, y in c)) for c in data)
        return cls(comps, m if m is not None else max(1, len(comps)))


# ---------------------------------------------------------------------------
# length (H^1 of the union, exact collinear-overlap dedup)
# ---------------------------------------------------------------------------


def _line_key(a: Point, b: Point):
    """Canonical exact key for the supporting line of segment [a, b]."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    nx, ny = ay - by, bx - ax  # normal
    c = nx * ax + ny * ay
    if nx != 0:
        return ("v", ny / nx, c / nx)
    return ("h", c / ny)


def _interval(seg: tuple[Point, Point], dom: int) -> tuple[Fraction, Fraction]:
    """Closed parameter interval of a segment along coordinate `dom`."""
    lo, hi = Fraction(seg[0][dom]), Fraction(seg[1][dom])
    return (lo, hi) if lo <= hi else (hi, lo)


def _union_table(segs: list[tuple[Point, Point]]) -> dict:
    """The exact union, one entry per supporting line: (dom, segments, merged).

    `dom` is the dominant coordinate of the line's first segment, which
    parametrizes the line; `merged` lists the disjoint closed intervals
    (touching ones joined) that the line's segments cover, in Fractions.
    """
    groups: dict = {}
    for s in segs:
        groups.setdefault(_line_key(*s), []).append(s)
    table = {}
    for key, group in groups.items():
        a0, b0 = group[0]
        dom = 0 if abs(b0[0] - a0[0]) >= abs(b0[1] - a0[1]) else 1
        merged: list[list[Fraction]] = []
        for lo, hi in sorted(_interval(s, dom) for s in group):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        table[key] = (dom, group, merged)
    return table


def length(crack: CrackSet) -> float:
    """Total H^1 measure of the union; exactly-collinear overlaps counted once.

    Memoized on the crack set, which is immutable.
    """
    return crack._length


def _union_length(table: dict) -> float:
    terms: list[float] = []
    for dom, group, merged in table.values():
        a0, b0 = group[0]
        if len(group) == 1:
            terms.append(math.hypot(b0[0] - a0[0], b0[1] - a0[1]))
            continue
        oth = 1 - dom
        slope = (Fraction(b0[oth]) - Fraction(a0[oth])) / (
            Fraction(b0[dom]) - Fraction(a0[dom])
        )
        unit = math.sqrt(1.0 + float(slope) ** 2)
        terms.extend(float(hi - lo) * unit for lo, hi in merged)
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
# Hausdorff metric (branch-and-bound, certified to `tol`)
# ---------------------------------------------------------------------------


def _dist_to_segment(p: Point, a: Point, b: Point) -> float:
    """Distance from p to the closed segment [a, b]; a == b is a point."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    t = 0.0 if dd == 0.0 else max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / dd))
    return math.hypot(a[0] + t * dx - p[0], a[1] + t * dy - p[1])


class _TargetSet:
    """Vectorized distance queries against a set of segments and points."""

    def __init__(self, crack: CrackSet):
        segs = [s for s in crack.segments()]
        self.a = np.array([s[0] for s in segs], float).reshape(-1, 2)
        self.b = np.array([s[1] for s in segs], float).reshape(-1, 2)
        d = self.b - self.a
        self.d = d
        self.dd = np.maximum((d * d).sum(axis=1), 1e-300)
        pts = crack.isolated_points()
        self.p = np.array(pts, float).reshape(-1, 2)

    def dist_vec(self, x: float, y: float) -> np.ndarray:
        """Distance to each target element (segments first, then points)."""
        parts = []
        if len(self.a):
            w = np.array([x, y]) - self.a
            t = np.clip((w * self.d).sum(axis=1) / self.dd, 0.0, 1.0)
            proj = self.a + t[:, None] * self.d
            dx = proj[:, 0] - x
            dy = proj[:, 1] - y
            parts.append(np.sqrt(dx * dx + dy * dy))
        if len(self.p):
            dx = self.p[:, 0] - x
            dy = self.p[:, 1] - y
            parts.append(np.sqrt(dx * dx + dy * dy))
        return np.concatenate(parts) if parts else np.array([math.inf])

    def dist(self, x: float, y: float) -> float:
        return float(np.min(self.dist_vec(x, y)))


def _directed_distance(src: CrackSet, tgt: _TargetSet, tol: float) -> float:
    """sup over src of dist(., tgt), by branch and bound on source segments.

    Each target element is convex, so its distance is convex along a
    source piece and min_j max(d_j(a), d_j(b)) upper-bounds the piece;
    this bound is tight on plateaus (parallel features), which keeps the
    subdivision finite there.
    """
    best = 0.0
    for x, y in src.isolated_points():
        best = max(best, tgt.dist(x, y))
    heap: list = []
    counter = itertools.count()

    def push(a, b, da, db):
        nonlocal best
        ub = float(np.min(np.maximum(da, db)))
        half = 0.5 * math.hypot(b[0] - a[0], b[1] - a[1])
        ub = min(ub, max(float(np.min(da)), float(np.min(db))) + half)
        if ub > best + tol:
            heapq.heappush(heap, (-ub, next(counter), a, b, da, db))

    for a, b in src.segments():
        da, db = tgt.dist_vec(*a), tgt.dist_vec(*b)
        best = max(best, float(np.min(da)), float(np.min(db)))
        push(a, b, da, db)
    while heap:
        neg_ub, _, a, b, da, db = heapq.heappop(heap)
        if -neg_ub <= best + tol:
            break
        mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        dm = tgt.dist_vec(*mid)
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
    d12 = _directed_distance(k1, _TargetSet(k2), tol)
    d21 = _directed_distance(k2, _TargetSet(k1), tol)
    return max(d12, d21)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def contains(k_big: CrackSet, k_small: CrackSet, tol: float) -> bool:
    """True iff every point of k_small is within tol of k_big.

    tol == 0 is exact: each segment of k_small must lie in one merged
    interval of k_big's union table on its line (so prefix-preserving
    extensions certify containment with zero slack); tol > 0 certifies
    the directed Hausdorff distance by branch and bound.
    """
    if k_small.is_empty:
        return True
    if k_big.is_empty:
        return False
    if tol == 0.0:
        big_segs = k_big.segments()
        big_pts = set(k_big.isolated_points())
        for p in k_small.isolated_points():
            if p not in big_pts and not any(_on_segment(p, *s) for s in big_segs):
                return False
        lines = k_big._lines
        for seg in k_small.segments():
            line = lines.get(_line_key(*seg))
            if line is None:
                return False
            dom, _, merged = line
            lo, hi = _interval(seg, dom)
            if not any(mlo <= lo and hi <= mhi for mlo, mhi in merged):
                return False
        return True
    gap = max(tol * 1e-9, 1e-15)
    d = _directed_distance(k_small, _TargetSet(k_big), gap)
    return d <= tol + gap


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
        if comp.is_point:
            continue
        v = comp.vertices
        tips.append(
            Tip(
                component_id=ci,
                end="start",
                position=v[0],
                tangent=_normalize((v[0][0] - v[1][0], v[0][1] - v[1][1])),
                arclength=0.0,
            )
        )
        tips.append(
            Tip(
                component_id=ci,
                end="finish",
                position=v[-1],
                tangent=_normalize((v[-1][0] - v[-2][0], v[-1][1] - v[-2][1])),
                arclength=comp.arc_length(),
            )
        )
    return tuple(tips)


def extend_tip(
    crack: CrackSet,
    tip: Tip,
    angle: float,
    step: float,
    *,
    domain=None,
    max_kink: float | None = None,
) -> CrackSet:
    """New crack set with one segment of length `step` appended at `tip`.

    The segment leaves the tip rotated by `angle` from the outward tangent.
    The original vertex lists are preserved verbatim, so the result always
    contains the input exactly. `domain`, when given, must expose
    ``contains_segment(p, q)``; the extension may touch the boundary at its
    far endpoint but must not cross it.
    """
    if step <= 0.0:
        raise GeometryViolation("extension step must be positive")
    if max_kink is not None and abs(angle) > max_kink + 1e-12:
        raise GeometryViolation(f"kink angle {angle} exceeds bound {max_kink}")
    if tip.component_id < 0 or tip.component_id >= len(crack.components):
        raise GeometryViolation("tip refers to a missing component")
    comp = crack.components[tip.component_id]
    if comp.is_point:
        raise GeometryViolation("cannot extend a point component")
    anchor = comp.vertices[0] if tip.end == "start" else comp.vertices[-1]
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
    new_seg = (anchor, new_pt)

    if domain is not None and not domain.contains_segment(anchor, new_pt):
        raise GeometryViolation("extension exits the domain or crosses its boundary")

    for ci, other in enumerate(crack.components):
        if other.is_point:
            if _on_segment(other.vertices[0], *new_seg) and other.vertices[0] != anchor:
                raise GeometryViolation("extension hits another component")
            continue
        segs = other.segments()
        for si, seg in enumerate(segs):
            adjacent = ci == tip.component_id and (
                (tip.end == "finish" and si == len(segs) - 1)
                or (tip.end == "start" and si == 0)
            )
            if adjacent:
                if _intersect_beyond_shared(new_seg, seg):
                    raise GeometryViolation("extension folds back onto the crack")
            elif _segments_intersect(*new_seg, *seg):
                raise GeometryViolation("extension intersects the existing crack")

    if tip.end == "start":
        new_vertices = (new_pt,) + comp.vertices
    else:
        new_vertices = comp.vertices + (new_pt,)
    comps = list(crack.components)
    comps[tip.component_id] = Polyline._unchecked(new_vertices)
    return CrackSet._unchecked(tuple(comps), crack.m)
