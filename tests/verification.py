"""Verification-only tools: the checks of the paper's proof, run by the tests.

The package computes the evolution and audits its conditions; the code
here is what only the tests need on top of it:
- Hausdorff-convergent scenario families with the gradient-distance check
  of minimizer convergence, the energy-continuity statistic across two
  step sizes, and surrogates for the lower semicontinuity of length and
  of length outside a neighborhood;
- data from per-node formulas (`pointwise`);
- the energy of the problem restricted to a ball with the trace of a
  field (`local_energy`, `trace_of`), for the localization inequality;
- the Galerkin residual, the harmonic conjugate on a sub-rectangle (with
  its Euler check from `oracles.edge_owners_loop`) and P1 interpolation
  through a centroid KD-tree (`TriangleLocator`);
- the point-to-crack distance `distance_to_crack`;
- the release-rate forward difference and its Richardson extrapolation
  for one datum, on a one-datum `energy.Evaluator`;
- the subcritical loading of the benchmark strip;
- the unit square, and a polygon's area and diameter;
- the mesh's crack record as the derived views the tests check (face
  pairs, tip nodes, released nodes) and the byte fingerprint that the
  pinned mesh hashes are taken of, all read off the crack chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from oracles import edge_owners_loop
from quasicrack.cases import growth_benchmark_config
from quasicrack.domain import DomainSpec, regular_polygon_disk
from quasicrack.energy import EnergyRecord, Evaluator
from quasicrack.geometry import (
    CrackSet,
    Point,
    Polyline,
    Tip,
    _elements,
    hausdorff_distance,
    length,
    segment_distances,
)
from quasicrack.mesh import CrackMesh, MeshFailure, triangulate
from quasicrack.sif import _forward_difference, release_rate_richardson_at
from quasicrack.solver import (
    BoundaryDatum,
    ScalarField,
    _assemble,
    _cg_solve,
    _dirichlet_mask,
    bulk_energy,
    gradient,
    solve,
    stiffness_matrix,
)


# ---------------------------------------------------------------------------
# convergence scenarios and lower-semicontinuity surrogates
# ---------------------------------------------------------------------------


#: the reference mesh of `check_minimizer_convergence` is this much finer
REFERENCE_REFINE = 2.0


@dataclass(frozen=True)
class ConvergenceScenario:
    """Sequence (K_n, g_n) -> (K, g), Hausdorff-convergent by construction."""

    name: str
    domain: DomainSpec
    family: tuple[tuple[CrackSet, BoundaryDatum], ...]
    target: tuple[CrackSet, BoundaryDatum]

    def hypothesis_distances(self) -> list[float]:
        diam = domain_diameter(self.domain)
        return [
            hausdorff_distance(k, self.target[0], domain_diameter=diam)
            for k, _ in self.family
        ]

    def certify_hypothesis(self, final_tol: float = 1e-3) -> bool:
        d = self.hypothesis_distances()
        decreasing = all(b <= a + 1e-15 for a, b in zip(d, d[1:]))
        return decreasing and d[-1] < final_tol


def _spearman(x: list[float], y: list[float]) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def check_minimizer_convergence(
    scenario: ConvergenceScenario, h_max: float, h_tip: float
) -> dict:
    """Gradient distance to the target solution across the family.

    Each member solves on its own mesh; gradients are compared at the
    centroids of a finer reference mesh built for the target pair. The
    report asserts last < first and a negative Spearman trend. The
    transfer-error floor (target at working resolution vs reference) is
    reported alongside.
    """
    dom = scenario.domain
    k_ref, g_ref = scenario.target
    ref_mesh = triangulate(dom, k_ref, h_max / REFERENCE_REFINE, h_tip / REFERENCE_REFINE)
    u_ref = solve(ref_mesh, g_ref)
    g_ref_grad = gradient(u_ref)
    cent = ref_mesh.nodes[ref_mesh.triangles].mean(axis=1)
    w = ref_mesh.areas

    def grad_distance(k: CrackSet, g: BoundaryDatum) -> float:
        mesh = triangulate(dom, k, h_max, h_tip)
        u = solve(mesh, g)
        loc = TriangleLocator(mesh)
        gv = gradient(u)
        diff2 = np.empty(len(cent))
        for i, p in enumerate(cent):
            ti, _ = loc.locate(p)
            d = gv[ti] - g_ref_grad[i]
            diff2[i] = d @ d
        return math.sqrt(float(np.sum(w * diff2)))

    distances = [grad_distance(k, g) for k, g in scenario.family]
    transfer_floor = grad_distance(*scenario.target)
    idx = list(range(len(distances)))
    rho = _spearman(idx, distances)
    passed = distances[-1] < distances[0] and rho < 0.0
    return {
        "name": scenario.name,
        "distances": distances,
        "transfer_floor": transfer_floor,
        "spearman": rho,
        "hypothesis_ok": scenario.certify_hypothesis(),
        "pass": bool(passed),
    }


def check_energy_continuity(state, state_half) -> dict:
    """Max jump of the total energy shrinks ~linearly in delta.

    Surface energy is allowed to jump; both statistics are reported.
    The second state must be the same scenario run at half the step.
    """

    def jumps(st):
        tot = [r.total for r in st.energies]
        sur = [r.surface for r in st.energies]
        jt = max((abs(b - a) for a, b in zip(tot, tot[1:])), default=0.0)
        js = max((abs(b - a) for a, b in zip(sur, sur[1:])), default=0.0)
        return jt, js

    jt1, js1 = jumps(state)
    jt2, js2 = jumps(state_half)
    return {
        "delta": state.grid.delta,
        "delta_half": state_half.grid.delta,
        "total_jump": jt1,
        "total_jump_half": jt2,
        "surface_jump": js1,
        "surface_jump_half": js2,
        "pass": bool(jt2 <= jt1 + 1e-12),
    }


def slit_length_family(
    domain: DomainSpec,
    datum: BoundaryDatum,
    *,
    base: float = 0.5,
    indices=(2, 4, 8, 16),
    m: int = 1,
) -> ConvergenceScenario:
    """Slit lengths a_n = base * (1 + 1/n) converging to base."""
    fam = []
    for n in indices:
        a = base * (1.0 + 1.0 / n)
        fam.append((CrackSet((Polyline(((-1.0, 0.0), (a - 1.0, 0.0))),), m), datum))
    target = (CrackSet((Polyline(((-1.0, 0.0), (base - 1.0, 0.0))),), m), datum)
    return ConvergenceScenario("slit_length", domain, tuple(fam), target)


def slit_angle_family(
    domain: DomainSpec,
    datum: BoundaryDatum,
    *,
    base_angle: float = 0.0,
    amplitude: float = 0.3,
    indices=(2, 4, 8, 16),
    slit_len: float = 0.9,
    m: int = 1,
) -> ConvergenceScenario:
    """Slit rotating about the boundary anchor, angle_n -> base_angle."""

    def crack_at(theta: float) -> CrackSet:
        tipx = -1.0 + slit_len * math.cos(theta)
        tipy = slit_len * math.sin(theta)
        return CrackSet((Polyline(((-1.0, 0.0), (tipx, tipy))),), m)

    fam = tuple(
        (crack_at(base_angle + amplitude / n), datum) for n in indices
    )
    target = (crack_at(base_angle), datum)
    return ConvergenceScenario("slit_angle", domain, tuple(fam), target)


def constant_family(
    domain: DomainSpec, crack: CrackSet, datum: BoundaryDatum, n: int = 4
) -> ConvergenceScenario:
    fam = tuple((crack, datum) for _ in range(n))
    return ConvergenceScenario("constant", domain, fam, (crack, datum))


def perturbed_family(
    crack: CrackSet, directions: list[tuple[float, float]], eps0: float, n: int
) -> list[CrackSet]:
    """Vertex-perturbed copies K_j -> K with deviation eps0 * 2^-j."""
    out = []
    for j in range(n):
        eps = eps0 * (0.5**j)
        comps = []
        di = 0
        for comp in crack.components:
            verts = []
            for v in comp.vertices:
                dx, dy = directions[di % len(directions)]
                di += 1
                verts.append((v[0] + eps * dx, v[1] + eps * dy))
            comps.append(Polyline(tuple(verts)))
        out.append(CrackSet(tuple(comps), crack.m))
    return out


def length_lsc_trend_ok(family: list[CrackSet], limit: CrackSet, slack: float = 1e-8) -> bool:
    """Tail-liminf surrogate: final family length >= limit length - slack.

    Sound for families whose last member deviates from the limit by well
    under slack / (2 * vertex count).
    """
    return length(family[-1]) >= length(limit) - slack


def difference_lsc_ok(
    k_family: list[CrackSet],
    k_limit: CrackSet,
    h_family: list[CrackSet],
    h_limit: CrackSet,
    eps: float,
    *,
    resolution: float = 1e-4,
    slack: float = 1e-6,
) -> bool:
    """liminf of length(K_n minus eps-neighborhood of H_n) >= the limit value.

    Lengths outside the neighborhood are measured by uniform subdivision
    at `resolution`, so the comparison carries an O(resolution) slack.
    """

    def length_outside(k: CrackSet, h: CrackSet) -> float:
        total = 0.0
        for a, b in k.segments():
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            n_sub = max(1, int(math.ceil(seg_len / resolution)))
            ts = (np.arange(n_sub) + 0.5) / n_sub
            pts = np.outer(1 - ts, a) + np.outer(ts, b)
            outside = int(np.count_nonzero(distance_to_crack(h, pts) > eps))
            total += seg_len * outside / n_sub
        return total

    lim = length_outside(k_limit, h_limit)
    final = length_outside(k_family[-1], h_family[-1])
    tol = slack + 4.0 * resolution * max(1, len(k_limit.segments()))
    return final >= lim - lim * 0.02 - tol


# ---------------------------------------------------------------------------
# energy localized on a ball
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
    (cx, cy), r = ball.center, ball.radius
    poly = [(cx + r * x, cy + r * y) for x, y in regular_polygon_disk(ball.n_sides)]
    new_poly, clipped = _clip_crack_to_polygon(poly, crack)
    dom = DomainSpec.all_dirichlet(tuple(new_poly))
    mesh = triangulate(dom, clipped, h_max, h_tip)
    u = solve(mesh, trace)
    return EnergyRecord(
        time=time, bulk=bulk_energy(u), surface=length(clipped)
    )


def pointwise(f) -> BoundaryDatum:
    """Datum of a per-node formula f(x, y), called at every node in turn."""
    return lambda mesh: np.array([f(x, y) for x, y in mesh.nodes], dtype=float)


def trace_of(u: ScalarField) -> BoundaryDatum:
    """Datum sampling an existing field by P1 interpolation (for local problems)."""
    locator = TriangleLocator(u.mesh)

    def ev(x: float, y: float) -> float:
        return float(interpolate_at(u, [(x, y)], locator)[0])

    return pointwise(ev)


# ---------------------------------------------------------------------------
# residual, harmonic conjugate and point location
# ---------------------------------------------------------------------------


class RegionNotSimplyConnected(Exception):
    """Conjugate recovery requested on a non-disk region."""


def residual_norm(u: ScalarField, g: BoundaryDatum) -> float:
    """Max |assembled residual| over free nodes (Galerkin orthogonality)."""
    mesh = u.mesh
    K = stiffness_matrix(mesh)
    r = K @ u.nodal_values
    free = ~_dirichlet_mask(mesh)
    return float(np.max(np.abs(r[free]))) if np.any(free) else 0.0


def harmonic_conjugate(
    u: ScalarField, region: tuple[float, float, float, float]
) -> ScalarField:
    """Least-squares potential v with grad v ~ R grad u on a sub-rectangle.

    R is the 90-degree rotation (x, y) -> (-y, x). The conjugate is
    single-valued across the crack, so face duplicates are merged before
    the recovery; the result is zero-mean on the region and NaN outside.
    """
    mesh = u.mesh
    xmin, xmax, ymin, ymax = region
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    sel = (
        (cent[:, 0] >= xmin)
        & (cent[:, 0] <= xmax)
        & (cent[:, 1] >= ymin)
        & (cent[:, 1] <= ymax)
    )
    tri_idx = np.flatnonzero(sel)
    if len(tri_idx) == 0:
        raise RegionNotSimplyConnected("region contains no triangles")
    tris = mesh.triangles[tri_idx]

    # merge crack-face duplicates: v is continuous across traction-free cracks
    canon = np.arange(mesh.n_nodes)
    for ch in mesh.crack_chains:
        canon[list(ch.minus_ids)] = ch.node_ids
    merged = canon[tris]
    used = np.unique(merged)
    local = -np.ones(mesh.n_nodes, dtype=np.int64)
    local[used] = np.arange(len(used))
    ltris = local[merged]

    # Euler check certifies the merged region is a disk
    euler = len(used) - len(edge_owners_loop(ltris)) + len(ltris)
    if euler != 1:
        raise RegionNotSimplyConnected(
            f"region Euler characteristic {euler} != 1 after face merge"
        )

    gu = gradient(u)
    rot = np.stack([-gu[tri_idx, 1], gu[tri_idx, 0]], axis=1)  # R grad u
    areas = mesh.areas[tri_idx]
    gx = mesh.grad_x[tri_idx]
    gy = mesh.grad_y[tri_idx]

    nloc = len(used)
    K = _assemble(ltris, areas, gx, gy, nloc)
    b = np.zeros(nloc)
    for i in range(3):
        np.add.at(
            b, ltris[:, i], areas * (gx[:, i] * rot[:, 0] + gy[:, i] * rot[:, 1])
        )

    # pin one node against the constant null space, then re-center
    free = np.ones(nloc, dtype=bool)
    free[0] = False
    vloc = np.zeros(nloc)
    vloc[free] = _cg_solve(K[free][:, free], b[free][None])[0]

    # area-weighted zero mean
    lumped = np.zeros(nloc)
    for i in range(3):
        np.add.at(lumped, ltris[:, i], areas / 3.0)
    vloc -= np.sum(lumped * vloc) / np.sum(lumped)

    vals_full = np.full(mesh.n_nodes, np.nan)
    has = local[canon] >= 0
    vals_full[has] = vloc[local[canon[has]]]
    return ScalarField(mesh, vals_full)


class TriangleLocator:
    """Deterministic point-to-triangle lookup via centroid KD-tree."""

    def __init__(self, mesh: CrackMesh):
        self.mesh = mesh
        self.centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        self.tree = cKDTree(self.centroids)

    def locate(self, p, k: int = 24) -> tuple[int, np.ndarray]:
        """Containing triangle index and barycentric coordinates of p."""
        mesh = self.mesh
        kq = min(k, len(self.centroids))
        while True:
            _, cand = self.tree.query(p, k=kq)
            cand = np.atleast_1d(cand)
            best = None
            for ti in cand:
                tri = mesh.triangles[ti]
                bary = self._bary(ti, p)
                neg = float(np.min(bary))
                if neg >= -1e-10:
                    return int(ti), bary
                if best is None or neg > best[0]:
                    best = (neg, int(ti), bary)
            if kq >= len(self.centroids):
                # fall back to the least-bad candidate (point on/near boundary)
                if best is not None and best[0] > -1e-6:
                    return best[1], best[2]
                raise MeshFailure(f"point {p} not inside any triangle")
            kq = min(4 * kq, len(self.centroids))

    def _bary(self, ti: int, p) -> np.ndarray:
        a, b, c = self.mesh.nodes[self.mesh.triangles[ti]]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        l1 = ((b[0] - p[0]) * (c[1] - p[1]) - (b[1] - p[1]) * (c[0] - p[0])) / det
        l2 = ((c[0] - p[0]) * (a[1] - p[1]) - (c[1] - p[1]) * (a[0] - p[0])) / det
        return np.array([l1, l2, 1.0 - l1 - l2])


def interpolate_at(u: ScalarField, pts, locator: TriangleLocator | None = None):
    """P1 interpolation of u at arbitrary points inside the domain."""
    loc = locator or TriangleLocator(u.mesh)
    out = np.empty(len(pts))
    for k, p in enumerate(pts):
        ti, bary = loc.locate(p)
        out[k] = float(bary @ u.nodal_values[u.mesh.triangles[ti]])
    return out


# ---------------------------------------------------------------------------
# distance to a crack
# ---------------------------------------------------------------------------


def distance_to_crack(crack: CrackSet, pts: np.ndarray) -> np.ndarray:
    """(N,) distance from each point (N, 2) to the crack; inf for an empty set."""
    a, b = _elements(crack)
    if not len(a):
        return np.full(len(pts), math.inf)
    return segment_distances(pts, a, b).min(axis=1)


# ---------------------------------------------------------------------------
# release rate of one datum
# ---------------------------------------------------------------------------


def _unit(t: float):
    """Coefficients of a one-datum basis: g itself at every time."""
    return (1.0,), (0.0,)


def release_rate_fd(
    domain: DomainSpec,
    crack: CrackSet,
    g: BoundaryDatum,
    tip: Tip,
    dsigma: float,
    h_max: float,
    h_tip: float,
) -> float:
    """[E(K extended straight by dsigma) - E(K)] / dsigma.

    Surface contributes +1 per unit length exactly; the bulk term tends
    to -kappa^2 as dsigma -> 0.
    """
    ev = Evaluator(domain, (g,), _unit, h_max, h_tip)
    return _forward_difference(ev, crack, tip, dsigma, 0.0)


def release_rate_richardson(
    domain: DomainSpec,
    crack: CrackSet,
    g: BoundaryDatum,
    tip: Tip,
    h_max: float,
    h_tip: float,
) -> float:
    """Richardson extrapolation of the forward difference over two steps.

    Both differences share one evaluator, so E(K) is meshed once.
    """
    ev = Evaluator(domain, (g,), _unit, h_max, h_tip)
    return release_rate_richardson_at(ev, crack, tip, 0.0)


# ---------------------------------------------------------------------------
# benchmark loadings
# ---------------------------------------------------------------------------


def subcritical_benchmark_config(delta: float = 1.0 / 16.0) -> dict:
    """Same strip loaded linearly well below critical: no growth, exact t^2 law."""
    cfg = growth_benchmark_config(delta=delta)
    cfg["loading"]["profile"] = {"type": "linear", "rate": 0.25}
    return cfg


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def unit_square(dirichlet_arcs=((0, 3), (3, 0))) -> DomainSpec:
    return DomainSpec(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), dirichlet_arcs)


def domain_area(domain: DomainSpec) -> float:
    v = domain.boundary
    n = len(v)
    return 0.5 * math.fsum(
        v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1] for i in range(n)
    )


def domain_diameter(domain: DomainSpec) -> float:
    v = domain.boundary
    return max(
        math.hypot(a[0] - b[0], a[1] - b[1]) for i, a in enumerate(v) for b in v[i + 1 :]
    )


# ---------------------------------------------------------------------------
# the mesh's crack record, read off its chains
# ---------------------------------------------------------------------------


def face_pairs(mesh: CrackMesh) -> list[tuple[Point, int, int]]:
    """(position, plus node, minus node) at every chain position whose
    faces are split, chain by chain along each chain."""
    return [
        (tuple(mesh.nodes[plus].tolist()), plus, minus)
        for ch in mesh.crack_chains
        for plus, minus in zip(ch.node_ids, ch.minus_ids)
        if plus != minus
    ]


def tip_nodes(mesh: CrackMesh) -> tuple[int, ...]:
    """The shared node of every crack tip: an end of a chain of 2+ nodes
    whose faces meet there; chain by chain, start before finish."""
    return tuple(
        ch.node_ids[i]
        for ch in mesh.crack_chains
        if len(ch.node_ids) >= 2
        for i in (0, -1)
        if ch.node_ids[i] == ch.minus_ids[i]
    )


def released_nodes(mesh: CrackMesh) -> frozenset[int]:
    """Ends of Dirichlet-tagged boundary edges that lie on a crack chain."""
    tagged = {v for i, j, tag in mesh.boundary_edges if tag == "dirichlet" for v in (i, j)}
    on_crack = {v for ch in mesh.crack_chains for v in ch.node_ids + ch.minus_ids}
    return frozenset(tagged & on_crack)


def fingerprint_bytes(mesh: CrackMesh) -> bytes:
    """The bytes whose sha256 `tests/test_mesh.py` pins: nodes, triangles,
    tagged boundary edges, tip nodes and face pairs."""
    parts = [mesh.nodes.tobytes(), mesh.triangles.tobytes()]
    parts.extend(f"{i},{j},{tag};".encode() for i, j, tag in mesh.boundary_edges)
    parts.append(repr(tip_nodes(mesh)).encode())
    parts.extend(f"{pos!r}:{plus}:{minus};".encode() for pos, plus, minus in face_pairs(mesh))
    return b"".join(parts)
