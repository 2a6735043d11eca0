"""Independent brute-force oracles used by the tests.

These deliberately avoid the code paths they check: Hausdorff distances
come from dense point sampling with a KD-tree, not from the
branch-and-bound implementation; energies and powers come from a direct
solve of the datum g(t), not from the evaluator's Gram matrix; the
built-in data's array samplers are checked against their scalar formulas
(`taper_reference`, `linear_reference`, `constant_reference`); edge
topology (`edge_owners_loop`, which the Euler checks and the mesher's loop
version count edges with) and edge jumps come from per-triangle Python
loops, not from the mesher's sorted edge keys; the best joint tip move
comes from an exhaustive loop over every combination, not from the step
search's candidate generator. Each JSON profile type keeps its own closed
form (`profile_reference`), and sampled loading its hat weights written
out (`hat_weights_reference`).
Geometric predicates are decided in `Fraction` arithmetic only, with no
float filter and no bounding-box rejection; the domain's point queries
use explicit crossing abscissae, and segment containment cuts the segment
at every parameter where it meets the boundary. The mesher's batched sampling,
lattice and thinning are checked against the per-point loops they
replaced: a recursive bisection, a nested-loop lattice, and a greedy
thinning that rebuilds its KD-tree after every kept point.
The exact union table behind `length` and `contains` is checked
against two direct scans: per-line interval merging for the length, and
a per-segment cover walk over every segment of the larger set. The
fit-window clearance is checked against explicit per-edge and
per-segment loops. The solver's node components come from a flood fill
over the triangles' edges, not from the stiffness matrix. The whole mesher is checked against
`triangulate_loops`: the same pipeline with a loop wherever the mesher
works on arrays (recursive bisection, point-by-point dedupe, one lattice
level at a time with a `seen` set for the points tip anchors share, a
per-edge ray cast, a set of required edges, and a node-by-node, row-by-row
unzip).
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
    `loading.coeffs(t)`; their samples are summed datum by datum, so
    face-aware data keep their per-side values. The power is
    2 (grad u | grad gdot) against the nodal samples of gdot(t), the
    finite-difference form the Gram path must reproduce.
    """
    from quasicrack.mesh import triangulate
    from quasicrack.solver import ScalarField, gram_matrix, solve

    basis = loading.basis()

    def combined(weights):
        return lambda mesh: sum(w * g(mesh) for w, g in zip(weights, basis))

    c, cdot = loading.coeffs(t)
    mesh = triangulate(domain, crack, h_max, h_tip)
    u = solve(mesh, combined(c))
    gdot = ScalarField(mesh, combined(cdot)(mesh))
    G = gram_matrix([u, gdot])
    return G[0][0], 2.0 * G[0][1]


# each JSON profile type by its own closed form, and sampled loading's
# hat weights written out, as `Profile` and `LoadingProgram.coeffs`
# computed them before every profile was one of two closed forms


def profile_reference(kind: str, params: tuple):
    """(value, derivative) functions of t for a JSON profile type."""
    if kind == "linear":
        (rate,) = params
        return (lambda t: rate * t), (lambda t: rate)
    if kind == "constant":
        (v,) = params
        return (lambda t: v), (lambda t: 0.0)
    if kind == "affine_sqrt":
        amp, c0, c1 = params
        return (
            lambda t: amp * math.sqrt(max(c0 + c1 * t, 0.0)),
            lambda t: amp * 0.5 * c1 / math.sqrt(max(c0 + c1 * t, 1e-300)),
        )
    if kind == "power_sqrt":
        amp, c0, c1, p = params

        def derivative(t):
            tp = t ** (p - 1.0) if t > 0.0 else (1.0 if p == 1.0 else 0.0)
            return amp * 0.5 * c1 * p * tp / math.sqrt(max(c0 + c1 * t**p, 1e-300))

        return (lambda t: amp * math.sqrt(max(c0 + c1 * t**p, 0.0))), derivative
    ts, vs = params  # pw_linear

    def slope(t):
        k = _interval_loop(ts, t)
        return (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])

    return (lambda t: float(np.interp(t, ts, vs))), slope


def _interval_loop(ts, t) -> int:
    """Index of the knot interval that holds t: the right one at an inner
    knot, the first or last one outside [ts[0], ts[-1]]."""
    k = 0
    while k < len(ts) - 2 and ts[k + 1] <= t:
        k += 1
    return k


def hat_weights_reference(ts, t) -> tuple[tuple, tuple]:
    """(c(t), c'(t)) of sampled loading at sample times ts: 1 - w and w on
    the two samples of t's interval, -1/dt and 1/dt their rates, 0 elsewhere."""
    k = _interval_loop(ts, t)
    t0, t1 = ts[k], ts[k + 1]
    w, dt = (t - t0) / (t1 - t0), t1 - t0
    c, cdot = [0.0] * len(ts), [0.0] * len(ts)
    c[k], c[k + 1] = 1.0 - w, w
    cdot[k], cdot[k + 1] = -1.0 / dt, 1.0 / dt
    return tuple(c), tuple(cdot)


# the built-in data as scalar formulas f(x, y), one node at a time


def taper_reference(length_x: float = 2.0, h0: float = 0.35, h1: float = 0.60):
    def f(x, y):
        H = h0 + (h1 - h0) * x / length_x
        return y / H

    return f


def linear_reference(cx: float = 1.0, cy: float = 0.0):
    return lambda x, y: cx * x + cy * y


def constant_reference(c: float):
    return lambda x, y: c


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
        (ang, ell) for ell in policy.step_lengths(h_tip) for ang in policy.angles
    ]
    best = None
    for combo in itertools.product(moves, repeat=len(keys)):
        crack, max_ang = base, 0.0
        try:
            for key, move in zip(keys, combo):
                if move is not None:
                    ang, ell = move
                    crack = extend_tip(crack, tip_of(crack, key), ang, ell, domain=domain)
                    max_ang = max(max_ang, abs(ang))
        except GeometryViolation:
            continue
        score = (energy_fn(crack), length(crack) - length(base), max_ang)
        if best is None or score < best[0]:
            best = (score, crack)
    return best[1], best[0][0]


def edge_owners_loop(triangles) -> dict:
    """{(lo, hi): [triangle ids]} in first-seen order, one Python loop per edge."""
    edge_tris: dict = {}
    for ti, tri in enumerate(np.asarray(triangles).tolist()):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            e = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edge_tris.setdefault(e, []).append(ti)
    return edge_tris


def node_components_loop(mesh) -> list[list[int]]:
    """Sorted node lists of the triangle-edge graph's components, ordered by
    their lowest node, from a flood fill over `edge_owners_loop`'s edges."""
    neighbours = [[] for _ in range(mesh.n_nodes)]
    for i, j in edge_owners_loop(mesh.triangles):
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen = [False] * mesh.n_nodes
    components = []
    for start in range(mesh.n_nodes):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in neighbours[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(sorted(members))
    return components


def tangential_jump_max_loop(u, *, away_from=None, clearance: float = 0.0) -> float:
    """Max |(R grad u)_1 - (R grad u)_2| . t over interior edges, edge by edge."""
    from quasicrack.geometry import _dist_to_segment
    from quasicrack.solver import gradient

    mesh = u.mesh
    g = gradient(u)
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


def boundary_edge_exact(domain, p):
    """Index of the first polygon edge holding p, in Fractions only."""
    return next((k for k, e in enumerate(domain.edges()) if on_segment_exact(p, *e)), None)


def contains_point_exact(domain, p, strict=False) -> bool:
    """Point-in-polygon in Fractions only: the boundary first, then the
    parity of the edges whose explicit crossing abscissa lies right of p."""
    if boundary_edge_exact(domain, p) is not None:
        return not strict
    px, py = Fraction(p[0]), Fraction(p[1])
    inside = False
    for a, b in domain.edges():
        ax, ay, bx, by = (Fraction(c) for c in (*a, *b))
        if (ay > py) != (by > py) and px < ax + (py - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


def contains_segment_exact(domain, p, q) -> bool:
    """[p, q] lies in the closed polygon, in Fractions only: every parameter
    at which [p, q] meets the boundary (a crossing, a touch, or the ends of
    a collinear overlap) cuts it, and the midpoint of each piece, like
    both ends, must be inside."""
    P, Q = (Fraction(p[0]), Fraction(p[1])), (Fraction(q[0]), Fraction(q[1]))
    if not contains_point_exact(domain, P) or not contains_point_exact(domain, Q):
        return False
    dx, dy = Q[0] - P[0], Q[1] - P[1]
    if dx == 0 and dy == 0:
        return True
    ts = {Fraction(0), Fraction(1)}
    for a, b in domain.edges():
        A, B = (Fraction(a[0]), Fraction(a[1])), (Fraction(b[0]), Fraction(b[1]))
        ex, ey = B[0] - A[0], B[1] - A[1]
        den = dx * ey - dy * ex
        if den == 0:
            if orient_exact(P, Q, A) == 0:  # collinear: the edge's ends along [p, q]
                for E in (A, B):
                    t = ((E[0] - P[0]) * dx + (E[1] - P[1]) * dy) / (dx * dx + dy * dy)
                    if 0 <= t <= 1:
                        ts.add(t)
        elif segments_intersect_exact(P, Q, A, B):
            ts.add(((A[0] - P[0]) * ey - (A[1] - P[1]) * ex) / den)
    ts = sorted(ts)
    return all(
        contains_point_exact(domain, (P[0] + (t0 + t1) / 2 * dx, P[1] + (t0 + t1) / 2 * dy))
        for t0, t1 in zip(ts, ts[1:])
    )


def bisect_polyline(a, b, size) -> list:
    """Recursive midpoint subdivision of [a, b] against a size field."""
    mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    if math.hypot(b[0] - a[0], b[1] - a[1]) <= float(size(np.array([mid]))[0]):
        return [a, b]
    return bisect_polyline(a, mid, size)[:-1] + bisect_polyline(mid, b, size)


def hex_lattice_loop(anchored, s, xmin, xmax, ymin, ymax) -> list:
    """Hex lattice points per (anchor, box), point by point; a point that
    several anchors share comes once per anchor."""
    dy = s * math.sqrt(3.0) / 2.0
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
                cand.append((ax + off + i * s, y))
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


# ---------------------------------------------------------------------------
# the mesher as per-point, per-level and per-node loops
# ---------------------------------------------------------------------------


def points_in_polygon_loop(pts, poly) -> np.ndarray:
    """Ray-cast parity, one polygon edge at a time."""
    x, y = pts[:, 0], pts[:, 1]
    n = len(poly)
    inside = np.zeros(len(pts), dtype=bool)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        crosses = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (y - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (x < xint)
    return inside


def min_angle_loop(mesh) -> float:
    """Smallest interior angle in degrees: an `arccos` per corner, then the minimum."""
    p = mesh.nodes[mesh.triangles]
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        cosang = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def _size_field_norm(tips, h_max, h_tip):
    """The mesher's size field, distances from `np.linalg.norm`."""
    from quasicrack.mesh import _GRADING, _TIP_RADIUS_FACTOR

    tips = np.array(tips, float).reshape(-1, 2)

    def size(pts):
        pts = np.asarray(pts, float).reshape(-1, 2)
        if len(tips) == 0:
            return np.full(len(pts), h_max)
        d = np.min(np.linalg.norm(pts[:, None, :] - tips[None, :, :], axis=2), axis=1)
        return np.clip(h_tip + _GRADING * (d - _TIP_RADIUS_FACTOR * h_tip), h_tip, h_max)

    return size


def triangulate_loops(domain, crack, h_max, h_tip):
    """`mesh.triangulate` with a Python loop wherever the mesher works on arrays.

    Sampling is a recursive bisection per piece and a point-by-point
    `add_point` dedupe; the lattice is deduped and filtered level by level
    with a full KD-tree query; the required edges are a Python set checked
    against `edge_owners_loop`; the unzip keeps per-node incidence lists,
    counts edges with `edge_owners_loop`, splits each fan triangle by
    triangle, rewrites one row at a time and tags the boundary edge by edge.
    The base mesh it builds, closed chains and the boundary cycle's edges
    tagged by their polygon edges, goes to `unzip_loop`; returns the mesh
    and its constrained nodes as `unzip_loop` finds them.
    """
    from quasicrack.geometry import segment_distances, tips_on_boundary
    from quasicrack.mesh import (
        _GRADING,
        _JUNCTION_CLEARANCE,
        _PT_CLEARANCE,
        _SEG_CLEARANCE,
        _TIP_RADIUS_FACTOR,
        CrackChain,
        CrackMesh,
        MeshFailure,
        _validate_crack,
    )

    if h_tip > h_max:
        raise MeshFailure("h_tip must not exceed h_max")
    _validate_crack(domain, crack, h_tip)
    tips = []
    poly = domain.boundary
    n_poly = len(poly)
    boundary_pts_on_edge = {k: [] for k in range(n_poly)}
    mandatory = list(poly)
    for t, on in tips_on_boundary(crack, domain):
        if not on:
            tips.append(t)
        elif t.position not in poly:
            boundary_pts_on_edge[domain.boundary_edge(t.position)].append(t.position)
            mandatory.append(t.position)
    size = _size_field_norm([t.position for t in tips], h_max, h_tip)
    pieces, parents = [], []
    for k, (a, b) in enumerate(domain.edges()):
        anchors = [a] + sorted(
            boundary_pts_on_edge[k],
            key=lambda p: (p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2,
        ) + [b]
        pieces.extend(zip(anchors, anchors[1:]))
        parents.extend([k] * (len(anchors) - 1))
    for comp in crack.components:
        if not comp.is_point:
            pieces.extend(comp.segments())
    sampled = [bisect_polyline(a, b, size) for a, b in pieces]
    boundary_samples = [(p, k) for pts, k in zip(sampled, parents) for p in pts[:-1]]
    mand_set = set(mandatory)
    mand_arr = np.array(mandatory, float)
    bpts = np.array([p for p, _ in boundary_samples], float)
    dmin = np.min(np.linalg.norm(mand_arr[None, :, :] - bpts[:, None, :], axis=2), axis=1)
    clear = dmin >= _JUNCTION_CLEARANCE * size(bpts)
    boundary_samples = [
        pk for pk, ok in zip(boundary_samples, clear.tolist()) if ok or pk[0] in mand_set
    ]
    crack_sample_chains = []
    seg_samples = iter(sampled[len(parents):])
    for comp in crack.components:
        chain = [comp.vertices[0]]
        for _ in comp.segments():
            chain.extend(next(seg_samples)[1:])
        crack_sample_chains.append(chain)

    index_of, points = {}, []

    def add_point(p):
        idx = index_of.get(p)
        if idx is None:
            idx = len(points)
            index_of[p] = idx
            points.append(p)
        return idx

    boundary_cycle = [(add_point(p), k) for p, k in boundary_samples]
    chain_ids = [[add_point(p) for p in chain] for chain in crack_sample_chains]
    n_feature = len(points)
    feature_arr = np.array(points, float)
    feat_segs = list(domain.edges())
    for comp in crack.components:
        feat_segs.extend(comp.segments())
    feat_a, feat_b = np.array(feat_segs, float).reshape(-1, 2, 2).transpose(1, 0, 2)

    xmin, xmax, ymin, ymax = domain.bbox()
    poly_arr = np.array(poly, float)
    accepted = [feature_arr]
    n_levels = (
        0
        if not tips or h_tip >= h_max
        else int(math.ceil(math.log(h_tip / h_max) / math.log(0.7) - 1e-12))
    )
    for level in range(n_levels + 1):
        s = h_max * (0.7**level)
        if level == 0:
            anchored = [((xmin, ymin), (xmin, xmax, ymin, ymax))]
        else:
            reach = _TIP_RADIUS_FACTOR * h_tip + (h_max * (0.7 ** (level - 1)) - h_tip) / max(
                _GRADING, 1e-9
            )
            reach += 2.0 * s
            anchored = [
                (t.position, (t.position[0] - reach, t.position[0] + reach,
                              t.position[1] - reach, t.position[1] + reach))
                for t in tips
            ]
        # a point that several tip anchors share is kept once, where first seen
        cand, seen = [], set()
        for p in hex_lattice_loop(anchored, s, xmin, xmax, ymin, ymax):
            if p not in seen:
                seen.add(p)
                cand.append(p)
        cand_arr = np.array(cand, float).reshape(-1, 2)
        if not len(cand_arr):
            continue
        sz = size(cand_arr)
        with np.errstate(divide="ignore"):
            lev = np.ceil(np.log(sz / h_max) / math.log(0.7) - 1e-12)
        at_level = np.clip(lev, 0, n_levels).astype(int) == level
        cand_arr, sz = cand_arr[at_level], sz[at_level]
        keep = points_in_polygon_loop(cand_arr, poly_arr)
        keep[keep] = (
            segment_distances(cand_arr[keep], feat_a, feat_b).min(axis=1)
            >= _SEG_CLEARANCE * sz[keep]
        )
        if not np.any(keep):
            continue
        cand_arr, sz = cand_arr[keep], sz[keep]
        dist, _ = cKDTree(np.vstack(accepted)).query(cand_arr)
        ok = dist >= _PT_CLEARANCE * sz
        if not np.any(ok):
            continue
        cand_arr, sz = cand_arr[ok], sz[ok]
        if len(tips) > 1 and level > 0:
            cand_arr = cand_arr[thin_greedy_loop(cand_arr, _PT_CLEARANCE * sz)]
        accepted.append(cand_arr)

    required = set()
    for ids in chain_ids:
        for u, v in zip(ids, ids[1:]):
            required.add((min(u, v), max(u, v)))
    cyc = boundary_cycle
    for (u, _), (v, _) in zip(cyc, cyc[1:] + cyc[:1]):
        required.add((min(u, v), max(u, v)))
    pts_arr = np.vstack(accepted)
    tris = delaunay_with_required_loop(pts_arr, required, n_feature)

    p = pts_arr[tris]
    det = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    extent2 = ((p.max(axis=1) - p.min(axis=1)) ** 2).sum(axis=1)
    keep = np.abs(det) > 1e-12 * extent2
    keep[keep] = points_in_polygon_loop(p[keep].mean(axis=1), poly_arr)
    tris = tris[keep]
    flip = det[keep] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    boundary_edges = [
        (u, v, domain.edge_tag(k))
        for (u, k), (v, _) in zip(boundary_cycle, boundary_cycle[1:] + boundary_cycle[:1])
    ]
    base = CrackMesh(
        nodes=pts_arr,
        triangles=tris,
        boundary_edges=tuple(boundary_edges),
        crack_chains=tuple(CrackChain(tuple(ids), tuple(ids)) for ids in chain_ids),
        h_max=h_max,
        h_tip=h_tip,
    )
    return unzip_loop(base)


def delaunay_with_required_loop(pts_arr, required, n_feature):
    """qhull, the required edges as a set checked against `edge_owners_loop`,
    and one repair pass."""
    from scipy.spatial import Delaunay

    from quasicrack.mesh import MeshFailure

    if len(pts_arr) < 3:
        raise MeshFailure("not enough points to triangulate")
    n = len(pts_arr)
    req = np.array(sorted(required), dtype=np.int64).reshape(-1, 2)
    keep_mask = np.ones(n, dtype=bool)
    for attempt in range(2):
        idx_map = np.flatnonzero(keep_mask)
        tris = idx_map[Delaunay(pts_arr[keep_mask]).simplices]
        edges = edge_owners_loop(tris)
        missing = req[[(u, v) not in edges for u, v in req.tolist()]]
        if not len(missing):
            return tris
        if attempt == 1:
            raise MeshFailure(f"{len(missing)} required edges missing after repair")
        for u, v in missing:
            mid = 0.5 * (pts_arr[u] + pts_arr[v])
            rad = 0.5 * np.linalg.norm(pts_arr[v] - pts_arr[u])
            d = np.linalg.norm(pts_arr - mid, axis=1)
            bad = (d < rad * 1.05) & keep_mask
            bad[:n_feature] = False
            keep_mask &= ~bad


def _fan_sides_loop(coords, tris, incident, v, theta_b, theta_a):
    """Split the triangle fan at node v by the CCW interval theta_b -> theta_a."""
    gap = (theta_a - theta_b) % (2.0 * math.pi)
    pv = coords[v]
    left, right = [], []
    for ti in incident:
        others = [n for n in tris[ti] if n != v]
        p1, p2 = coords[others[0]], coords[others[1]]
        t1 = math.atan2(p1[1] - pv[1], p1[0] - pv[0])
        t2 = math.atan2(p2[1] - pv[1], p2[0] - pv[0])
        d12 = (t2 - t1) % (2.0 * math.pi)
        if d12 <= math.pi:
            mid = t1 + 0.5 * d12
        else:
            mid = t2 + 0.5 * ((t1 - t2) % (2.0 * math.pi))
        rel = (mid - theta_b) % (2.0 * math.pi)
        (left if rel < gap else right).append(ti)
    return left, right


def unzip_loop(base):
    """The crack unzip of a base mesh with closed chains, node by node.

    The end kinds are read off the base edge by edge: a chain end is a tip
    unless it is a node of a base boundary edge, and a one-node chain is a
    point; both stay single nodes.

    Each fan is split by angles: at an interior node by the CCW interval
    between its two crack edges, at a boundary end by the side of the crack
    edge each triangle's centroid lies on. The centroid test is right only
    while each side of a boundary end's fan spans at most 180 degrees, so
    this is the reference for `mesh.unzip`, which walks the fans, only
    there: not, for one, at a crack from a re-entrant corner.

    Returns the mesh and, computed here edge by edge, its constrained
    nodes: the Dirichlet-tagged ones less the crack nodes.
    """
    from quasicrack.mesh import _MIN_ANGLE_DEG, CrackChain, CrackMesh, MeshFailure

    chain_ids = [list(ch.node_ids) for ch in base.crack_chains]
    pts_arr = base.nodes
    tris = base.triangles.copy()
    n_orig = len(pts_arr)
    coords = pts_arr.tolist()
    origin = list(range(n_orig))
    crack_nodes = sorted({u for ids in chain_ids for u in ids})
    incident = {u: [] for u in crack_nodes}
    for ti, col in zip(*np.nonzero(np.isin(tris, crack_nodes))):
        incident[int(tris[ti, col])].append(int(ti))
    two_sided = {e for e, owners in edge_owners_loop(tris).items() if len(owners) == 2}
    on_cycle = set()
    for u, v, _ in base.boundary_edges:
        on_cycle.update((u, v))

    chains = []
    for ids in chain_ids:
        if len(ids) == 1:
            chains.append(CrackChain(tuple(ids), tuple(ids)))
            continue
        k = len(ids) - 1
        if not all((min(u, v), max(u, v)) in two_sided for u, v in zip(ids, ids[1:])):
            raise MeshFailure("interior crack edge lacks two triangles")
        minus_ids = list(ids)
        for i, v in enumerate(ids):
            if (i == 0 or i == k) and v not in on_cycle:
                continue
            pv = coords[v]
            if i > 0:
                pa = coords[ids[i - 1]]
                theta_a = math.atan2(pa[1] - pv[1], pa[0] - pv[0])
            if i < k:
                pb = coords[ids[i + 1]]
                theta_b = math.atan2(pb[1] - pv[1], pb[0] - pv[0])
            if 0 < i < k:
                left, right = _fan_sides_loop(coords, tris, incident[v], v, theta_b, theta_a)
            else:
                travel = (
                    (pb[0] - pv[0], pb[1] - pv[1]) if i == 0 else (pv[0] - pa[0], pv[1] - pa[1])
                )
                left, right = [], []
                for ti in incident[v]:
                    others = [n for n in tris[ti] if n != v]
                    p1, p2 = coords[others[0]], coords[others[1]]
                    cx = (p1[0] + p2[0] + pv[0]) / 3.0
                    cy = (p1[1] + p2[1] + pv[1]) / 3.0
                    cross = travel[0] * (cy - pv[1]) - travel[1] * (cx - pv[0])
                    (left if cross > 0 else right).append(ti)
            if not left or not right:
                raise MeshFailure("crack unzip found an empty face side")
            dup = len(origin)
            origin.append(v)
            coords.append(pv)
            minus_ids[i] = dup
            for ti in right:
                row = tris[ti]
                row[row == v] = dup
        chains.append(CrackChain(tuple(ids), tuple(minus_ids)))

    pts_arr = pts_arr[origin]
    owners_of = edge_owners_loop(tris)
    free = sorted(e for e, owners in owners_of.items() if len(owners) == 1)
    face_edges = set()
    for ch in chains:
        for ids in (ch.node_ids, ch.minus_ids):
            face_edges.update((min(u, v), max(u, v)) for u, v in zip(ids, ids[1:]))
    if not face_edges.issubset(free):
        raise MeshFailure("crack face edge not free after unzip")
    if any(len(owners) > 2 for owners in owners_of.values()):
        raise MeshFailure("non-manifold edge")
    tag_of = {(min(u, v), max(u, v)): tag for u, v, tag in base.boundary_edges}
    boundary_edges = []
    for e in free:
        if e in face_edges:
            boundary_edges.append((e[0], e[1], "crack_face"))
            continue
        u, v = origin[e[0]], origin[e[1]]
        tag = tag_of.get((min(u, v), max(u, v)))
        if tag is None:
            raise MeshFailure("untagged boundary edge (hole in mesh?)")
        boundary_edges.append((e[0], e[1], tag))
    dirichlet_nodes = set()
    for i, j, tag in boundary_edges:
        if tag == "dirichlet":
            dirichlet_nodes.update((i, j))
    crack_ids = set()
    for ch in chains:
        crack_ids.update(ch.node_ids)
        crack_ids.update(ch.minus_ids)
    mesh = CrackMesh(
        nodes=pts_arr,
        triangles=tris,
        boundary_edges=tuple(boundary_edges),
        crack_chains=tuple(chains),
        h_max=base.h_max,
        h_tip=base.h_tip,
    )
    if np.any(mesh.areas <= 0):
        raise MeshFailure("non-positive triangle area")
    ang = min_angle_loop(mesh)
    if ang < _MIN_ANGLE_DEG:
        raise MeshFailure(f"min angle {ang:.2f} deg below bound {_MIN_ANGLE_DEG}")
    return mesh, frozenset(dirichlet_nodes - crack_ids)
