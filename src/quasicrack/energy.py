"""Total energy E(g(t), K) = bulk + surface, evaluated on one path.

The bulk term is the Dirichlet energy of the minimizer with u = g(t) on
the Dirichlet boundary, the surface term the length of the crack.
`Evaluator` is the one place that meshes and solves for it: the run, both
audits, `replay_state` and the release rates of `sif` all go through one.
`local_energy` solves the ball-restricted problem for a single trace.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .domain import DomainSpec
from .geometry import CrackSet, Point, Polyline, length
from .mesh import TriangleLocator, triangulate
from .solver import (
    BoundaryDatum,
    ScalarField,
    bulk_energy,
    gram_matrix,
    interpolate_at,
    solve,
    solve_many,
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


# ---------------------------------------------------------------------------
# energy evaluation through the Gram matrix of a loading basis
# ---------------------------------------------------------------------------


def _quad(G, a, b) -> float:
    """a^T G b summed term by term; with one basis datum exactly a[0] * b[0] * G[0][0]."""
    terms = [a[j] * b[k] * G[j][k] for j in range(len(a)) for k in range(len(b))]
    return functools.reduce(operator.add, terms)


class Evaluator:
    """Energy/field evaluation of g(t) = sum_j c_j(t) g_j, memoized per crack.

    `basis` holds the data g_1..g_S and `coeffs(t)` returns (c(t), c'(t)).
    The solve is linear, so one mesh and S solves u_j per crack give, with
    G_jk = (grad u_j | grad u_k), bulk(t) = c^T G c, the exact discrete
    power 2 c^T G c' and u(t) = sum_j c_j u_j. The Gram matrix is kept for
    the evaluator's lifetime, the basis fields of the cracks meshed since
    the last `end_step` only until the next one: a winner meshed in its own
    step is not meshed twice, and memory does not grow with a run.
    """

    def __init__(self, domain: DomainSpec, basis, coeffs, h_max: float, h_tip: float):
        self.domain = domain
        self.basis = tuple(basis)
        self.coeffs = coeffs
        self.h_max = h_max
        self.h_tip = h_tip
        self._gram: dict[tuple, tuple] = {}
        self._fields: dict[tuple, list[ScalarField]] = {}
        self.solves = 0

    def _solved(self, crack: CrackSet, need_fields: bool = False) -> tuple:
        key = crack.fingerprint()
        if key not in self._gram or (need_fields and key not in self._fields):
            mesh = triangulate(self.domain, crack, self.h_max, self.h_tip)
            fields = solve_many(mesh, self.basis)
            self.solves += len(fields)
            self._gram[key] = gram_matrix(fields)
            self._fields[key] = fields
        return key

    def energy(self, crack: CrackSet, t: float) -> float:
        G = self._gram[self._solved(crack)]
        c, _ = self.coeffs(t)
        return _quad(G, c, c) + length(crack)

    def record(self, crack: CrackSet, t: float) -> tuple[EnergyRecord, ScalarField]:
        """Energy record at t, with the power, and the minimizing field u(t)."""
        key = self._solved(crack, need_fields=True)
        G, fields = self._gram[key], self._fields[key]
        c, cdot = self.coeffs(t)
        u = functools.reduce(
            operator.add, [cj * f.nodal_values for cj, f in zip(c, fields)]
        )
        rec = EnergyRecord(
            time=t,
            bulk=_quad(G, c, c),
            surface=length(crack),
            power=2.0 * _quad(G, c, cdot),
        )
        return rec, ScalarField(fields[0].mesh, u)

    def balance_increment(self, crack: CrackSet, t0: float, t1: float) -> float:
        """2 (grad u(t0) | grad(u(t1) - u(t0))) on one crack."""
        G = self._gram[self._solved(crack)]
        c0, _ = self.coeffs(t0)
        c1, _ = self.coeffs(t1)
        return 2.0 * _quad(G, c0, [b - a for a, b in zip(c0, c1)])

    def end_step(self, keep: CrackSet | None = None) -> None:
        """Drop the basis fields of every crack but `keep` (the next step's base)."""
        key = keep.fingerprint() if keep is not None else None
        self._fields = {k: v for k, v in self._fields.items() if k == key}


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


def trace_of(u: ScalarField) -> BoundaryDatum:
    """Datum sampling an existing field by P1 interpolation (for local problems)."""
    locator = TriangleLocator(u.mesh)

    def ev(x: float, y: float) -> float:
        return float(interpolate_at(u, [(x, y)], locator)[0])

    return BoundaryDatum(evaluator=ev)
