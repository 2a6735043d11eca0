"""Desk-scale convergence checks tying the solver back to the limit theory.

Scenario families converge in the Hausdorff metric to a target crack;
the check asserts a decreasing trend of the gradient distance to the
target solution on a common reference mesh — a finite surrogate for the
strong L2 convergence of minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec
from .geometry import CrackSet, Polyline, hausdorff_distance, length
from .mesh import TriangleLocator, triangulate
from .solver import BoundaryDatum, gradient, solve

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
        diam = self.domain.diameter()
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
    g_ref_grad = gradient(u_ref).values
    cent = ref_mesh.nodes[ref_mesh.triangles].mean(axis=1)
    w = ref_mesh.areas

    def grad_distance(k: CrackSet, g: BoundaryDatum) -> float:
        mesh = triangulate(dom, k, h_max, h_tip)
        u = solve(mesh, g)
        loc = TriangleLocator(mesh)
        gv = gradient(u).values
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


def aggregate_reports(reports: list[dict]) -> dict:
    """Pass/fail rollup of scenario reports (the shape CI consumes)."""
    return {
        "n_scenarios": len(reports),
        "n_passed": sum(1 for r in reports if r.get("pass")),
        "failed": [r.get("name", "?") for r in reports if not r.get("pass")],
        "pass": all(r.get("pass") for r in reports),
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


# ---------------------------------------------------------------------------
# scenario generators
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# lower-semicontinuity surrogates on generated polyline families
# ---------------------------------------------------------------------------


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
        from .geometry import _TargetSet

        tgt = _TargetSet(h)
        total = 0.0
        for a, b in k.segments():
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            n_sub = max(1, int(math.ceil(seg_len / resolution)))
            ts = (np.arange(n_sub) + 0.5) / n_sub
            pts = np.outer(1 - ts, a) + np.outer(ts, b)
            outside = sum(1 for p in pts if tgt.dist(p[0], p[1]) > eps)
            total += seg_len * outside / n_sub
        return total

    lim = length_outside(k_limit, h_limit)
    final = length_outside(k_family[-1], h_family[-1])
    tol = slack + 4.0 * resolution * max(1, len(k_limit.segments()))
    return final >= lim - lim * 0.02 - tol
