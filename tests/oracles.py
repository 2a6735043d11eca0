"""Independent brute-force oracles used by the tests.

These deliberately avoid the code paths they check: Hausdorff distances
come from dense point sampling with a KD-tree, not from the
branch-and-bound implementation; energies and powers come from a direct
solve of the datum g(t), not from the evaluator's Gram matrix; edge
topology and edge jumps come from per-triangle Python loops, not from the
sorted `edge_table`; the best joint tip move comes from an exhaustive loop
over every combination, not from the step search's candidate generator.
"""

import itertools
import math

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

    The power is 2 (grad u | grad gdot) against the nodal samples of
    gdot(t), the finite-difference form the Gram path must reproduce.
    """
    from quasicrack.energy import energy_power, total_energy

    rec, u = total_energy(domain, crack, loading.datum_at(t), h_max, h_tip)
    return rec.bulk, energy_power(u, loading.datum_dot_at(t))


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
    from quasicrack.geometry import _TargetSet
    from quasicrack.solver import gradient

    mesh = u.mesh
    g = gradient(u).values
    tgt = _TargetSet(away_from) if away_from is not None and clearance > 0.0 else None
    worst = 0.0
    for (i, j), owners in edge_owners_loop(mesh.triangles).items():
        if len(owners) != 2:
            continue
        if tgt is not None:
            mid = 0.5 * (mesh.nodes[i] + mesh.nodes[j])
            if tgt.dist(float(mid[0]), float(mid[1])) < clearance:
                continue
        t = mesh.nodes[j] - mesh.nodes[i]
        t = t / np.linalg.norm(t)
        rot = [np.array([-g[o, 1], g[o, 0]]) for o in owners]
        worst = max(worst, abs(float((rot[0] - rot[1]) @ t)))
    return worst
