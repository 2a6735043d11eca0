"""Total energy of a crack configuration and its localized/derivative forms.

Total energy = bulk (Dirichlet energy of the minimizer) + surface (length
of the crack). Every function here meshes and solves afresh; the memoized
per-run evaluation that evolutions use is `evolution._Evaluator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec
from .geometry import CrackSet, Point, Polyline, length
from .mesh import TriangleLocator, triangulate
from .solver import (
    BoundaryDatum,
    ScalarField,
    bulk_energy,
    gradient,
    inner_product,
    interpolate_at,
    solve,
)


@dataclass(frozen=True)
class EnergyRecord:
    """Bulk/surface split at one time; total is always recomputed."""

    time: float
    bulk: float
    surface: float
    power: float = 0.0

    @property
    def total(self) -> float:
        return self.bulk + self.surface

    def to_json(self) -> dict:
        return {
            "t": self.time,
            "bulk": self.bulk,
            "surface": self.surface,
            "total": self.total,
            "power": self.power,
        }


def total_energy(
    domain: DomainSpec,
    crack: CrackSet,
    g: BoundaryDatum,
    h_max: float,
    h_tip: float,
    *,
    time: float = 0.0,
    power: float = 0.0,
) -> tuple[EnergyRecord, ScalarField]:
    """Mesh, solve, and return the energy record with the minimizing field."""
    mesh = triangulate(domain, crack, h_max, h_tip)
    u = solve(mesh, g)
    rec = EnergyRecord(time=time, bulk=bulk_energy(u), surface=length(crack), power=power)
    return rec, u


def energy_power(u: ScalarField, gdot: BoundaryDatum | ScalarField) -> float:
    """The derivative diagnostic 2 (grad u | grad gdot) on u's mesh."""
    if isinstance(gdot, ScalarField):
        if gdot.mesh is not u.mesh and not np.array_equal(
            gdot.mesh.nodes, u.mesh.nodes
        ):
            from .solver import MeshMismatch

            raise MeshMismatch("gdot lives on a different mesh")
        gfield = gdot
    else:
        gfield = ScalarField(u.mesh, gdot.sample(u.mesh))
    return 2.0 * inner_product(gradient(u), gradient(gfield))


# ---------------------------------------------------------------------------
# localized energy on a ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallSpec:
    center: Point
    radius: float
    n_sides: int = 64


def _clip_crack_to_polygon(
    poly: list[Point], crack: CrackSet
) -> tuple[list[Point], CrackSet]:
    """Clip crack to a convex polygon; crossing points become polygon vertices."""
    n = len(poly)
    inserts: dict[int, list[tuple[float, Point]]] = {k: [] for k in range(n)}
    scale = max(
        max(p[0] for p in poly) - min(p[0] for p in poly),
        max(p[1] for p in poly) - min(p[1] for p in poly),
    )
    snap_tol = 1e-9 * scale

    def snap(p: Point) -> Point:
        for v in poly:
            if math.hypot(p[0] - v[0], p[1] - v[1]) <= snap_tol:
                return v
        return p

    def clip_segment(a: Point, b: Point):
        t0, t1 = 0.0, 1.0
        edge_in, edge_out = None, None
        dx, dy = b[0] - a[0], b[1] - a[1]
        for k in range(n):
            p, q = poly[k], poly[(k + 1) % n]
            ex, ey = q[0] - p[0], q[1] - p[1]
            # inward normal for a CCW polygon
            nx, ny = -ey, ex
            denom = nx * dx + ny * dy
            num = nx * (a[0] - p[0]) + ny * (a[1] - p[1])
            if abs(denom) < 1e-300:
                if num < 0:
                    return None
                continue
            t = -num / denom
            if denom > 0:
                if t > t0:
                    t0, edge_in = t, k
            else:
                if t < t1:
                    t1, edge_out = t, k
        if t0 >= t1:
            return None
        pa = snap((a[0] + t0 * dx, a[1] + t0 * dy)) if t0 > 0 else a
        pb = snap((a[0] + t1 * dx, a[1] + t1 * dy)) if t1 < 1 else b
        if t0 > 0 and edge_in is not None and pa not in poly:
            inserts[edge_in].append((t0, pa))
        if t1 < 1 and edge_out is not None and pb not in poly:
            inserts[edge_out].append((t1, pb))
        return pa, pb, t0 > 0, t1 < 1

    pieces: list[list[Point]] = []
    for comp in crack.components:
        if comp.is_point:
            continue  # zero length, no effect on the local problem
        current: list[Point] = []
        for a, b in comp.segments():
            res = clip_segment(a, b)
            if res is None:
                if len(current) >= 2:
                    pieces.append(current)
                current = []
                continue
            pa, pb, cut_in, cut_out = res
            if cut_in or not current:
                if len(current) >= 2:
                    pieces.append(current)
                current = [pa]
            if pb != current[-1]:
                current.append(pb)
            if cut_out:
                if len(current) >= 2:
                    pieces.append(current)
                current = []
        if len(current) >= 2:
            pieces.append(current)

    new_poly: list[Point] = []
    for k in range(n):
        new_poly.append(poly[k])
        if inserts[k]:
            p0 = poly[k]
            pts = sorted(
                {pt for _, pt in inserts[k]},
                key=lambda q: (q[0] - p0[0]) ** 2 + (q[1] - p0[1]) ** 2,
            )
            new_poly.extend(pt for pt in pts if pt != poly[k] and pt != poly[(k + 1) % n])

    comps = tuple(Polyline(tuple(p)) for p in pieces)
    clipped = CrackSet(comps, max(1, len(comps)))
    return new_poly, clipped


def local_energy(
    ball: BallSpec,
    crack: CrackSet,
    trace: BoundaryDatum,
    h_max: float,
    h_tip: float,
    *,
    time: float = 0.0,
) -> EnergyRecord:
    """Energy of the problem restricted to a ball with Dirichlet trace data.

    The ball is realized as an inscribed regular polygon; crack/boundary
    crossing points are inserted as polygon vertices so the clipped crack
    stays conforming.
    """
    from .domain import regular_polygon_disk

    poly = list(
        regular_polygon_disk(ball.n_sides, center=ball.center, radius=ball.radius)
    )
    new_poly, clipped = _clip_crack_to_polygon(poly, crack)
    dom = DomainSpec.all_dirichlet(tuple(new_poly))
    mesh = triangulate(dom, clipped, h_max, h_tip)
    u = solve(mesh, trace)
    return EnergyRecord(
        time=time, bulk=bulk_energy(u), surface=length(clipped)
    )


def trace_of(u: ScalarField, tag: str = "") -> BoundaryDatum:
    """Datum sampling an existing field by P1 interpolation (for local problems)."""
    locator = TriangleLocator(u.mesh)

    def ev(x: float, y: float) -> float:
        return float(interpolate_at(u, [(x, y)], locator)[0])

    return BoundaryDatum(evaluator=ev, tag=tag)
