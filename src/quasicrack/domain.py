"""Polygonal domains with labeled Dirichlet/Neumann boundary arcs."""

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
)


class DomainError(Exception):
    """Invalid domain specification."""


@dataclass(frozen=True)
class DomainSpec:
    """Simple closed CCW polygon; boundary edges split into Dirichlet/Neumann.

    `dirichlet_arcs` are (start_vertex, end_vertex) index pairs walked
    counterclockwise; edge k joins vertex k to vertex k+1 (mod n). Arcs must
    not overlap; every edge not in a Dirichlet arc is Neumann.

    Point queries are exact, except `distance_to_boundary` (float).
    `boundary_edge(p)` is the one lookup of the edge holding p; the mesher
    places boundary crack ends with it and `on_boundary` tests it for None.
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

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.boundary
        n = len(v)
        return [(v[i], v[(i + 1) % n]) for i in range(n)]

    def edge_tag(self, k: int) -> str:
        return "dirichlet" if k in self._dirichlet_edges else "neumann"  # type: ignore[attr-defined]

    def area(self) -> float:
        v = self.boundary
        n = len(v)
        return 0.5 * math.fsum(
            v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1]
            for i in range(n)
        )

    def diameter(self) -> float:
        v = self.boundary
        return max(
            math.hypot(a[0] - b[0], a[1] - b[1])
            for i, a in enumerate(v)
            for b in v[i + 1 :]
        )

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.boundary]
        ys = [p[1] for p in self.boundary]
        return min(xs), max(xs), min(ys), max(ys)

    # ------------------------------------------------------------------
    # point/segment queries
    # ------------------------------------------------------------------

    def boundary_edge(self, p: Point) -> int | None:
        """Index of the first edge whose closed segment holds p (exact), or None."""
        return next((k for k, e in enumerate(self.edges()) if _on_segment(p, *e)), None)

    def on_boundary(self, p: Point) -> bool:
        return self.boundary_edge(p) is not None

    def contains_point(self, p: Point, *, strict: bool = False) -> bool:
        """Point-in-polygon; boundary points count as inside unless strict."""
        if self.on_boundary(p):
            return not strict
        v = self.boundary
        n = len(v)
        inside = False
        px, py = p
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            if (a[1] > py) != (b[1] > py):
                # exact side-of-edge decision at the crossing ordinate
                side = _orient(a, b, p)
                if side == 0:
                    return not strict
                upward = b[1] > a[1]
                if upward == (side > 0):
                    inside = not inside
        return inside

    def contains_segment(self, p: Point, q: Point) -> bool:
        """Closed segment [p,q] stays in the closed polygon, never crossing out."""
        if not self.contains_point(p) or not self.contains_point(q):
            return False
        for e in self.edges():
            if _segments_properly_cross(p, q, *e):
                return False
        mid = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
        return self.contains_point(mid)

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

    @classmethod
    def unit_square(cls, dirichlet_arcs=((0, 3), (3, 0))) -> "DomainSpec":
        return cls(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), dirichlet_arcs)

    def to_json(self) -> dict:
        return {
            "polygon": [[x, y] for x, y in self.boundary],
            "dirichlet_arcs": [[a, b] for a, b in self.dirichlet_arcs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DomainSpec":
        return cls(
            tuple((x, y) for x, y in data["polygon"]),
            tuple((a, b) for a, b in data.get("dirichlet_arcs", [])),
        )


def _snap_unit(v: float) -> float:
    """Clean up cos/sin values at cardinal angles (sin(pi) != 0 in floats)."""
    for exact in (0.0, 1.0, -1.0):
        if abs(v - exact) < 1e-15:
            return exact
    return v


def regular_polygon_disk(
    n: int = 128, *, center: Point = (0.0, 0.0), radius: float = 1.0
) -> tuple[Point, ...]:
    """Inscribed regular n-gon, CCW, starting at angle 0 (contains (-r, 0) for even n)."""
    cx, cy = center
    return tuple(
        (
            cx + radius * _snap_unit(math.cos(2.0 * math.pi * k / n)),
            cy + radius * _snap_unit(math.sin(2.0 * math.pi * k / n)),
        )
        for k in range(n)
    )
