"""Independent brute-force oracles used by the tests.

These deliberately avoid the code paths they check: Hausdorff distances
come from dense point sampling with a KD-tree, not from the
branch-and-bound implementation; energies and powers come from a direct
solve of the datum g(t), not from the evaluator's Gram matrix; edge
topology and edge jumps come from per-triangle Python loops, not from the
sorted `edge_table`; the best joint tip move comes from an exhaustive loop
over every combination, not from the step search's candidate generator.
Geometric predicates are decided in `Fraction` arithmetic only, with no
float filter and no bounding-box rejection. The mesher's batched sampling,
lattice and thinning are checked against the per-point loops they
replaced: a recursive bisection, a nested-loop lattice with a `seen` set,
and a greedy thinning that rebuilds its KD-tree after every kept point.
The exact union table behind `length` and `contains(., ., 0)` is checked
against two direct scans: per-line interval merging for the length, and
a per-segment cover walk over every segment of the larger set. The
fit-window clearance is checked against explicit per-edge and
per-segment loops. The solver's block CG is checked against scipy's
`cg`, one right-hand side at a time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree


def sample_crack_points(crack, resolution: float) -> np.ndarray:
    pts = [np.array(p, float) for p in crack.isolated_points()]
    for a, b in crack.segments():
        a = np.array(a, float)
        b = np.array(b, float)
        n = max(1, int(math.ceil(np.linalg.norm(b - a) / resolution)))
        ts = np.linspace(0.0, 1.0, n + 1)
        pts.extend(a + t * (b - a) for t in ts)
    return np.array(pts)


def hausdorff_bruteforce(k1, k2, resolution: float = 1e-4) -> float:
    p1 = sample_crack_points(k1, resolution)
    p2 = sample_crack_points(k2, resolution)
    d12 = cKDTree(p2).query(p1)[0].max()
    d21 = cKDTree(p1).query(p2)[0].max()
    return float(max(d12, d21))


def random_crackset(rng, *, max_components: int = 3, max_vertices: int = 5):
    """Random disjoint-ish polyline union inside [0, 2]^2."""
    from quasicrack.geometry import CrackSet, Polyline

    for _ in range(200):
        n_comp = int(rng.integers(1, max_components + 1))
        comps = []
        try:
            for _ in range(n_comp):
                n_v = int(rng.integers(1, max_vertices + 1))
                if n_v == 1:
                    comps.append(
                        Polyline(((float(rng.uniform(0, 2)), float(rng.uniform(0, 2))),))
                    )
                    continue
                # random walk with bounded turn keeps the arc simple
                x, y = rng.uniform(0.2, 1.8, size=2)
                ang = rng.uniform(0, 2 * math.pi)
                verts = [(float(x), float(y))]
                for _ in range(n_v - 1):
                    ang += rng.uniform(-0.8, 0.8)
                    step = rng.uniform(0.05, 0.4)
                    x += step * math.cos(ang)
                    y += step * math.sin(ang)
                    verts.append((float(x), float(y)))
                comps.append(Polyline(tuple(verts)))
            return CrackSet(tuple(comps), m=n_comp)
        except Exception:
            continue
    raise RuntimeError("could not generate a random crack set")


def direct_energy_and_power(domain, crack, loading, t, h_max, h_tip):
    """(bulk, power) at time t from one direct solve of g(t) on a fresh mesh.

    g(t) and gdot(t) are built here from `loading.basis()` and
    `loading.coeffs(t)`; their samples are summed datum by datum, so data
    with a face-aware sampler keep their per-side values. The power is
    2 (grad u | grad gdot) against the nodal samples of gdot(t), the
    finite-difference form the Gram path must reproduce.
    """
    from quasicrack.mesh import triangulate
    from quasicrack.solver import (
        BoundaryDatum,
        ScalarField,
        bulk_energy,
        gradient,
        inner_product,
        solve,
    )

    basis = loading.basis()

    def combined(weights):
        return BoundaryDatum(
            evaluator=lambda x, y: sum(w * g.evaluator(x, y) for w, g in zip(weights, basis)),
            mesh_sampler=lambda mesh: sum(w * g.sample(mesh) for w, g in zip(weights, basis)),
        )

    c, cdot = loading.coeffs(t)
    mesh = triangulate(domain, crack, h_max, h_tip)
    u = solve(mesh, combined(c))
    gdot = ScalarField(mesh, combined(cdot).sample(mesh))
    return bulk_energy(u), 2.0 * inner_product(gradient(u), gradient(gdot))


def best_joint_extension(domain, base, policy, h_tip, energy_fn):
    """(crack, energy) minimizing `energy_fn` over every combination of at
    most one ladder segment per interior tip of `base`, the empty one
    included.

    Each combination is built with `extend_tip` from the policy's angles and
    step lengths; ties go to the smaller added length, then the smaller
    largest |angle|, then the earlier combination.
    """
    from quasicrack.geometry import GeometryViolation, crack_tips, extend_tip, length

    def tip_of(crack, key):
        return next(t for t in crack_tips(crack) if (t.component_id, t.end) == key)

    keys = sorted(
        (t.component_id, t.end)
        for t in crack_tips(base)
        if not domain.on_boundary(t.position)
    )
    moves = [None] + [
        (ang, ell) for ell in policy.step_lengths(h_tip) if ell > 0.0 for ang in policy.angles
    ]
    best = None
    for combo in itertools.product(moves, repeat=len(keys)):
        crack, max_ang = base, 0.0
        try:
            for key, move in zip(keys, combo):
                if move is not None:
                    ang, ell = move
                    crack = extend_tip(
                        crack, tip_of(crack, key), ang, ell,
                        domain=domain, max_kink=policy.theta_max,
                    )
                    max_ang = max(max_ang, abs(ang))
        except GeometryViolation:
            continue
        score = (energy_fn(crack), length(crack) - length(base), max_ang)
        if best is None or score < best[0]:
            best = (score, crack)
    return best[1], best[0][0]


def scipy_cg_solve(A, rhs, x0=None):
    """One Jacobi-preconditioned `scipy.sparse.linalg.cg` solve of A x = rhs."""
    from scipy.sparse.linalg import LinearOperator, cg

    from quasicrack.solver import CG_MAXITER_FACTOR, CG_RTOL, SolveFailure

    diag = np.asarray(A.diagonal())
    if np.any(diag <= 0):
        raise SolveFailure("singular stiffness diagonal (beyond pinning rule)")
    n = len(diag)
    M = LinearOperator((n, n), matvec=lambda v: v / diag)
    x, info = cg(
        A, rhs, x0=x0, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER_FACTOR * n, M=M
    )
    if info != 0:
        raise SolveFailure(f"conjugate gradient did not converge (info={info})")
    return x


def edge_owners_loop(triangles) -> dict:
    """{(lo, hi): [triangle ids]} in first-seen order, one Python loop per edge."""
    edge_tris: dict = {}
    for ti, tri in enumerate(np.asarray(triangles).tolist()):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            e = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edge_tris.setdefault(e, []).append(ti)
    return edge_tris


def tangential_jump_max_loop(u, *, away_from=None, clearance: float = 0.0) -> float:
    """Max |(R grad u)_1 - (R grad u)_2| . t over interior edges, edge by edge."""
    from quasicrack.geometry import _dist_to_segment
    from quasicrack.solver import gradient

    mesh = u.mesh
    g = gradient(u).values
    elements = []
    if away_from is not None and clearance > 0.0:
        elements = away_from.segments() + [(q, q) for q in away_from.isolated_points()]
    worst = 0.0
    for (i, j), owners in edge_owners_loop(mesh.triangles).items():
        if len(owners) != 2:
            continue
        mid = tuple((0.5 * (mesh.nodes[i] + mesh.nodes[j])).tolist())
        if any(_dist_to_segment(mid, a, b) < clearance for a, b in elements):
            continue
        t = mesh.nodes[j] - mesh.nodes[i]
        t = t / np.linalg.norm(t)
        rot = [np.array([-g[o, 1], g[o, 0]]) for o in owners]
        worst = max(worst, abs(float((rot[0] - rot[1]) @ t)))
    return worst


def orient_exact(a, b, c) -> int:
    """Sign of cross(b - a, c - a), computed in Fractions only."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    det = (Fraction(b[0]) - ax) * (Fraction(c[1]) - ay) - (
        Fraction(b[1]) - ay
    ) * (Fraction(c[0]) - ax)
    return (det > 0) - (det < 0)


def folds_back_exact(shared, a, b) -> bool:
    """[shared, a] and [shared, b] meet beyond `shared`, in Fractions only:
    a, b and shared are collinear and a, b lie on the same side of it."""
    sx, sy = Fraction(shared[0]), Fraction(shared[1])
    dot = (Fraction(a[0]) - sx) * (Fraction(b[0]) - sx) + (Fraction(a[1]) - sy) * (
        Fraction(b[1]) - sy
    )
    return orient_exact(shared, a, b) == 0 and dot > 0


def on_segment_exact(p, a, b) -> bool:
    """p lies on the closed segment [a, b], in Fractions only."""
    return (
        orient_exact(a, b, p) == 0
        and min(Fraction(a[0]), Fraction(b[0])) <= Fraction(p[0])
        <= max(Fraction(a[0]), Fraction(b[0]))
        and min(Fraction(a[1]), Fraction(b[1])) <= Fraction(p[1])
        <= max(Fraction(a[1]), Fraction(b[1]))
    )


def segments_intersect_exact(p1, p2, p3, p4) -> bool:
    """Closed segments [p1,p2] and [p3,p4] share a point, in Fractions only."""
    on_segment = on_segment_exact
    o1, o2 = orient_exact(p1, p2, p3), orient_exact(p1, p2, p4)
    o3, o4 = orient_exact(p3, p4, p1), orient_exact(p3, p4, p2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        on_segment(p3, p1, p2)
        or on_segment(p4, p1, p2)
        or on_segment(p1, p3, p4)
        or on_segment(p2, p3, p4)
    )


def bisect_polyline(a, b, size) -> list:
    """Recursive midpoint subdivision of [a, b] against a size field."""
    mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    if math.hypot(b[0] - a[0], b[1] - a[1]) <= float(size(np.array([mid]))[0]):
        return [a, b]
    return bisect_polyline(a, mid, size)[:-1] + bisect_polyline(mid, b, size)


def hex_lattice_loop(anchored, s, xmin, xmax, ymin, ymax) -> list:
    """Hex lattice points per (anchor, box), point by point, first seen first."""
    dy = s * math.sqrt(3.0) / 2.0
    seen: set = set()
    cand = []
    for (ax, ay), (bx0, bx1, by0, by1) in anchored:
        j0 = int(math.floor((max(by0, ymin) - ay) / dy))
        j1 = int(math.ceil((min(by1, ymax) - ay) / dy))
        for j in range(j0, j1 + 1):
            y = ay + j * dy
            off = 0.5 * s if (j % 2) else 0.0
            i0 = int(math.floor((max(bx0, xmin) - ax - off) / s))
            i1 = int(math.ceil((min(bx1, xmax) - ax - off) / s))
            for i in range(i0, i1 + 1):
                p = (ax + off + i * s, y)
                if p not in seen:
                    seen.add(p)
                    cand.append(p)
    return cand


def thin_greedy_loop(pts, radius) -> list:
    """Indices kept when each point, in order, is dropped if the nearest
    point kept so far is closer than its radius."""
    kept: list = []
    tree = None
    for i in range(len(pts)):
        if tree is not None and tree.query(pts[i])[0] < radius[i]:
            continue
        kept.append(i)
        tree = cKDTree(pts[kept])
    return kept


def _line_key_exact(a, b):
    """Exact key of the supporting line of [a, b]: normal-form coefficients."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    nx, ny = ay - by, bx - ax
    c = nx * ax + ny * ay
    return ("v", ny / nx, c / nx) if nx != 0 else ("h", c / ny)


def union_length_scan(crack) -> float:
    """H^1 of the union: segments grouped by exact line, each group's
    dominant-coordinate intervals merged (touching ones joined) in
    Fractions. The float terms are the ones `length` sums: `hypot` for a
    lone segment, merged interval width times the line's unit stretch."""
    groups: dict = {}
    for s in crack.segments():
        groups.setdefault(_line_key_exact(*s), []).append(s)
    terms = []
    for group in groups.values():
        if len(group) == 1:
            a, b = group[0]
            terms.append(math.hypot(b[0] - a[0], b[1] - a[1]))
            continue
        a0, b0 = group[0]
        dom = 0 if abs(b0[0] - a0[0]) >= abs(b0[1] - a0[1]) else 1
        oth = 1 - dom
        slope = (Fraction(b0[oth]) - Fraction(a0[oth])) / (
            Fraction(b0[dom]) - Fraction(a0[dom])
        )
        unit = math.sqrt(1.0 + float(slope) ** 2)
        intervals = sorted(
            (min(Fraction(a[dom]), Fraction(b[dom])), max(Fraction(a[dom]), Fraction(b[dom])))
            for a, b in group
        )
        merged = [list(intervals[0])]
        for lo, hi in intervals[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        terms.extend(float(hi - lo) * unit for lo, hi in merged)
    return math.fsum(terms)


def covered_scan(seg, cover) -> bool:
    """[a, b] lies in the union of the cover segments on its exact line:
    a reach walk over the clipped cover intervals, parametrized by the
    dominant coordinate of [a, b] itself."""
    key = _line_key_exact(*seg)
    a, b = seg
    dom = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
    lo, hi = sorted((Fraction(a[dom]), Fraction(b[dom])))
    pieces = []
    for c in cover:
        if _line_key_exact(*c) != key:
            continue
        clo, chi = sorted((Fraction(c[0][dom]), Fraction(c[1][dom])))
        if chi < lo or clo > hi:
            continue
        pieces.append((max(clo, lo), min(chi, hi)))
    reach = lo
    for plo, phi in sorted(pieces):
        if plo > reach:
            return False
        reach = max(reach, phi)
    return bool(pieces) and reach >= hi


def contains_scan(big, small) -> bool:
    """Exact containment of `small` in `big`, point by point and segment by segment."""
    if small.is_empty:
        return True
    if big.is_empty:
        return False
    cover = big.segments()
    for p in small.isolated_points():
        if p not in big.isolated_points() and not any(
            on_segment_exact(p, *s) for s in cover
        ):
            return False
    return all(covered_scan(s, cover) for s in small.segments())


def boundary_distance_loop(domain, p) -> float:
    """Distance from p to the domain boundary, one edge at a time."""
    best = math.inf
    for (ax, ay), (bx, by) in domain.edges():
        dx, dy = bx - ax, by - ay
        dd = dx * dx + dy * dy
        t = 0.0 if dd == 0 else max(0.0, min(1.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / dd))
        best = min(best, math.hypot(ax + t * dx - p[0], ay + t * dy - p[1]))
    return best


def fit_window_loop(domain, crack, tip, h_tip) -> tuple:
    """The [4, 16] h_tip window shrunk to 0.95 of the tip's clearance from
    the boundary, the other components' segments and their point components."""
    p = tip.position
    clearance = boundary_distance_loop(domain, p)
    for ci, comp in enumerate(crack.components):
        if ci == tip.component_id:
            continue
        for a, b in comp.segments():
            dx, dy = b[0] - a[0], b[1] - a[1]
            dd = dx * dx + dy * dy
            t = max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / max(dd, 1e-300)))
            clearance = min(clearance, math.hypot(a[0] + t * dx - p[0], a[1] + t * dy - p[1]))
        if comp.is_point:
            q = comp.vertices[0]
            clearance = min(clearance, math.hypot(q[0] - p[0], q[1] - p[1]))
    return 4.0 * h_tip, min(16.0 * h_tip, 0.95 * clearance)
