"""Polygonal domains with labeled Dirichlet/Neumann boundary arcs.

Point and segment queries are exact. Each edge keeps its closed bounding
box, and a query runs the exact orientation test (itself float-filtered,
see `geometry._orient`) only on the edges whose box the point or segment
meets; a point left of an edge's box is decided by the box alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (
    Point,
    _dist_to_segment,
    _on_segment,
    _orient,
    _segments_intersect,
    _segments_properly_cross,
    json_number,
    json_point,
)


class DomainError(Exception):
    """Invalid domain specification."""


@dataclass(frozen=True)
class DomainSpec:
    """Simple closed CCW polygon; boundary edges split into Dirichlet/Neumann.

    `dirichlet_arcs` are (start_vertex, end_vertex) index pairs walked
    counterclockwise; edge k joins vertex k to vertex k+1 (mod n). Arcs must
    not overlap; every edge not in a Dirichlet arc is Neumann.

    Point and segment queries are exact, except `distance_to_boundary`
    (float). `boundary_edge(p)` is the one lookup of the edge holding p; the
    mesher places boundary crack ends with it and `on_boundary` tests it
    for None.
    """

    boundary: tuple[Point, ...]
    dirichlet_arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.boundary)
        object.__setattr__(self, "boundary", verts)
        arcs = tuple((int(a), int(b)) for a, b in self.dirichlet_arcs)
        object.__setattr__(self, "dirichlet_arcs", arcs)
        n = len(verts)
        if n < 3:
            raise DomainError("polygon needs at least 3 vertices")
        if len(set(verts)) != n:
            raise DomainError("polygon vertices must be distinct")
        area2 = sum(
            verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
            for i in range(n)
        )
        if area2 <= 0:
            raise DomainError("polygon must be counterclockwise")
        edges = self.edges()
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue
                if _segments_intersect(*edges[i], *edges[j]):
                    raise DomainError("polygon boundary self-intersects")
        dir_edges = set()
        for a, b in arcs:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise DomainError(f"bad arc ({a},{b})")
            k = a
            while k != b:
                if k in dir_edges:
                    raise DomainError("dirichlet arcs overlap")
                dir_edges.add(k)
                k = (k + 1) % n
        object.__setattr__(self, "_dirichlet_edges", frozenset(dir_edges))
        # each edge with its closed box (xmin, xmax, ymin, ymax)
        object.__setattr__(self, "_edge_boxes", tuple(
            ((a, b), (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])))
            for a, b in edges
        ))

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.boundary
        n = len(v)
        return [(v[i], v[(i + 1) % n]) for i in range(n)]

    def edge_tag(self, k: int) -> str:
        return "dirichlet" if k in self._dirichlet_edges else "neumann"  # type: ignore[attr-defined]

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.boundary]
        ys = [p[1] for p in self.boundary]
        return min(xs), max(xs), min(ys), max(ys)

    # ------------------------------------------------------------------
    # point/segment queries
    # ------------------------------------------------------------------

    def boundary_edge(self, p: Point) -> int | None:
        """Index of the first edge whose closed segment holds p (exact), or None."""
        px, py = p
        for k, ((a, b), (x0, x1, y0, y1)) in enumerate(self._edge_boxes):  # type: ignore[attr-defined]
            if x0 <= px <= x1 and y0 <= py <= y1 and _orient(a, b, p) == 0:
                return k
        return None

    def on_boundary(self, p: Point) -> bool:
        return self.boundary_edge(p) is not None

    def along_boundary(self, p: Point, q: Point) -> bool:
        """Whether [p, q] runs along an edge: both ends lie on the edge's line
        and the two overlap in more than a point (exact).

        Collinear segments overlap in more than a point iff their boxes do
        along x, or along y for a vertical line. So [p, q] is caught when
        both its ends lie on one closed edge, and also where it runs on
        across a straight vertex into the next edge.
        """
        x0, x1 = min(p[0], q[0]), max(p[0], q[0])
        y0, y1 = min(p[1], q[1]), max(p[1], q[1])
        for (a, b), (ex0, ex1, ey0, ey1) in self._edge_boxes:  # type: ignore[attr-defined]
            if (
                (max(x0, ex0) < min(x1, ex1) or max(y0, ey0) < min(y1, ey1))
                and _orient(a, b, p) == 0
                and _orient(a, b, q) == 0
            ):
                return True
        return False

    def contains_point(self, p: Point) -> bool:
        """Point-in-polygon; boundary points count as inside."""
        return self._locate(p) >= 0

    def _locate(self, p: Point) -> int:
        """+1 inside, 0 on the boundary, -1 outside: an exact ray cast toward +x."""
        px, py = p
        inside = False
        for (a, b), (x0, x1, y0, y1) in self._edge_boxes:  # type: ignore[attr-defined]
            if py < y0 or py > y1 or px > x1:
                continue  # neither holds p nor meets the ray
            crosses = (a[1] > py) != (b[1] > py)
            if px < x0:
                inside ^= crosses  # the edge lies right of p
                continue
            side = _orient(a, b, p)
            if side == 0:
                return 0  # collinear and inside the edge's box
            if crosses and (b[1] > a[1]) == (side > 0):
                inside = not inside
        return 1 if inside else -1

    def contains_segment(self, p: Point, q: Point) -> bool:
        """Closed segment [p,q] stays in the closed polygon, never crossing out.

        [p, q] must cross no edge, and it is cut at the polygon vertices on
        it. Each open piece then misses the boundary or runs along one edge,
        so it is inside if one of its ends is strictly inside, and else if
        it leaves its first end into the polygon.
        """
        ends = [self._locate(p), self._locate(q)]
        if min(ends) < 0:
            return False
        x0, x1 = min(p[0], q[0]), max(p[0], q[0])
        y0, y1 = min(p[1], q[1]), max(p[1], q[1])
        cuts = []
        for (a, b), (ex0, ex1, ey0, ey1) in self._edge_boxes:  # type: ignore[attr-defined]
            if ex1 < x0 or ex0 > x1 or ey1 < y0 or ey0 > y1:
                continue
            if _segments_properly_cross(p, q, a, b):
                return False
            if a != p and a != q and _on_segment(a, p, q):
                cuts.append(a)
        sx, sy = (1.0 if q[0] >= p[0] else -1.0), (1.0 if q[1] >= p[1] else -1.0)
        pts = [p, *sorted(cuts, key=lambda c: (sx * c[0], sy * c[1])), q]
        where = [ends[0]] + [0] * len(cuts) + [ends[1]]  # cut vertices lie on the boundary
        return all(
            where[i] > 0 or where[i + 1] > 0 or self._leaves_inward(pts[i], pts[i + 1])
            for i in range(len(pts) - 1)
            if pts[i] != pts[i + 1]
        )

    def _leaves_inward(self, u: Point, v: Point) -> bool:
        """For u on the boundary: whether [u, v] starts into the closed
        polygon (left of u's edge, or inside the cone between the two edges
        at a vertex u; along an edge counts)."""
        k = self.boundary_edge(u)
        (a, b), _ = self._edge_boxes[k]  # type: ignore[attr-defined]
        if u != a and u != b:
            return _orient(a, b, v) >= 0
        n = len(self.boundary)
        j = k if u == a else (k + 1) % n
        prev, nxt = self.boundary[j - 1], self.boundary[(j + 1) % n]
        left_of_in, left_of_out = _orient(prev, u, v) >= 0, _orient(u, nxt, v) >= 0
        if _orient(prev, u, nxt) >= 0:  # convex or straight vertex
            return left_of_in and left_of_out
        return left_of_in or left_of_out

    def distance_to_boundary(self, p: Point) -> float:
        """Unsigned float distance from p to the boundary polyline."""
        return min(_dist_to_segment(p, a, b) for a, b in self.edges())

    # ------------------------------------------------------------------
    # constructors / serialization
    # ------------------------------------------------------------------

    @classmethod
    def all_dirichlet(cls, boundary) -> "DomainSpec":
        pts = tuple(boundary)
        return cls(pts, ((0, len(pts) - 1), (len(pts) - 1, 0)))

    def to_json(self) -> dict:
        return {
            "polygon": [[x, y] for x, y in self.boundary],
            "dirichlet_arcs": [[a, b] for a, b in self.dirichlet_arcs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DomainSpec":
        reject_unknown_keys(data, ("polygon", "dirichlet_arcs"), "domain")
        return cls(
            tuple(json_point(p, "polygon vertex") for p in data["polygon"]),
            tuple(
                tuple(json_number(i, "dirichlet arc index", integer=True) for i in arc)
                for arc in data.get("dirichlet_arcs", [])
            ),
        )


def reject_unknown_keys(cfg: dict, known, what: str) -> None:
    """Raise ValueError on a key outside `known`, which would go unread, and
    on a `cfg` that is not a JSON object."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}")


def _snap_unit(v: float) -> float:
    """Clean up cos/sin values at cardinal angles (sin(pi) != 0 in floats)."""
    for exact in (0.0, 1.0, -1.0):
        if abs(v - exact) < 1e-15:
            return exact
    return v


def regular_polygon_disk(n: int) -> tuple[Point, ...]:
    """Regular n-gon inscribed in the unit circle, CCW, starting at angle 0
    (contains (-1, 0) for even n)."""
    return tuple(
        (_snap_unit(math.cos(2.0 * math.pi * k / n)), _snap_unit(math.sin(2.0 * math.pi * k / n)))
        for k in range(n)
    )
