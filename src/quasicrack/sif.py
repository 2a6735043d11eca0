"""Stress intensity factors at crack tips and the Griffith-criterion audit.

Two independent estimators: an annulus least-squares fit of the nodal
field against the singular shape sqrt(2 rho / pi) sin(theta / 2), and a
finite difference of the total energy under a straight tip extension,
evaluated by an `energy.Evaluator`.
The release rate of the singular field is 1 - kappa^2 per unit length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec
from .energy import Evaluator
from .geometry import CrackSet, Tip, _dist_to_segment, extend_tip
from .solver import ScalarField

#: tip neighborhood must be straight within this angle for the fit window
KINK_TOLERANCE_RAD = math.radians(10.0)
#: minimum number of annulus nodes for a trustworthy fit
MIN_FIT_NODES = 8
#: the two forward-difference steps of the Richardson release rate, in h_tip
RICHARDSON_FACTORS = (4.0, 8.0)


class AnnulusUnresolved(Exception):
    """Fit annulus is not resolved by the mesh."""


class TipGeometryInvalid(Exception):
    """Tip neighborhood violates the straightness/clearance assumptions."""


@dataclass(frozen=True)
class SifEstimate:
    """Least-squares mode-III stress intensity factor at one tip."""

    kappa: float
    fit_residual: float


def _straight_run_length(mesh, tip: Tip) -> float:
    """Arclength from the tip along the crack while direction stays straight."""
    ids = list(mesh.crack_chains[tip.component_id].node_ids)
    order = ids if tip.end == "start" else ids[::-1]
    pts = [mesh.nodes[i] for i in order]
    tx, ty = tip.tangent
    run = 0.0
    for a, b in zip(pts, pts[1:]):
        dx, dy = a[0] - b[0], a[1] - b[1]  # direction pointing toward the tip
        seg = math.hypot(dx, dy)
        if seg == 0.0:
            continue
        cosang = (dx * tx + dy * ty) / seg
        if cosang < math.cos(KINK_TOLERANCE_RAD):
            break
        run += seg
    return run


def fit_sif(u: ScalarField, tip: Tip, r1: float, r2: float) -> SifEstimate:
    """Annulus least-squares fit of u against the singular tip field.

    The angle theta is measured from the outward tip tangent and the
    crack-face duplicates are assigned theta = +-pi by their side. The
    even-in-theta remainder is absorbed by fitting an intercept along
    with kappa.
    """
    mesh = u.mesh
    if r1 >= r2:
        raise AnnulusUnresolved("need r1 < r2")
    if r1 < 2.0 * mesh.h_tip * (1.0 - 1e-9):
        raise AnnulusUnresolved(f"r1={r1} under-resolved (h_tip={mesh.h_tip})")

    run = _straight_run_length(mesh, tip)
    r2_eff = min(r2, run)
    if r2_eff <= r1 * (1.0 + 1e-9):
        raise TipGeometryInvalid(
            f"straight tip run {run:.4g} too short for window ({r1:.4g}, {r2:.4g})"
        )

    px, py = tip.position
    tx, ty = tip.tangent
    w = u.mesh.nodes - np.array([px, py])
    rho = np.hypot(w[:, 0], w[:, 1])
    in_ann = (rho >= r1) & (rho <= r2_eff)

    # face copies on this component override the atan2 branch
    ch = mesh.crack_chains[tip.component_id]
    side_sign = 1.0 if tip.end == "finish" else -1.0
    theta = np.arctan2(
        tx * w[:, 1] - ty * w[:, 0],  # cross(t, w)
        tx * w[:, 0] + ty * w[:, 1],  # dot(t, w)
    )
    for plus, minus in zip(ch.node_ids, ch.minus_ids):
        if plus != minus:
            theta[plus] = side_sign * math.pi
            theta[minus] = -side_sign * math.pi

    # exclude nodes of other crack components (their theta is meaningless)
    for ci, c in enumerate(mesh.crack_chains):
        if ci != tip.component_id:
            in_ann[list(c.node_ids + c.minus_ids)] = False

    idx = np.flatnonzero(in_ann)
    if len(idx) < MIN_FIT_NODES:
        raise AnnulusUnresolved(f"only {len(idx)} nodes in the fit annulus")

    phi = np.sqrt(2.0 * rho[idx] / math.pi) * np.sin(theta[idx] / 2.0)
    uu = u.nodal_values[idx]
    n = float(len(idx))
    sp, spp = float(phi.sum()), float((phi * phi).sum())
    su, spu = float(uu.sum()), float((phi * uu).sum())
    det = spp * n - sp * sp
    if abs(det) < 1e-300:
        raise AnnulusUnresolved("degenerate fit system")
    kappa = (spu * n - sp * su) / det
    const = (spp * su - sp * spu) / det
    resid = uu - kappa * phi - const
    denom = float(np.linalg.norm(uu - uu.mean()))
    rel = float(np.linalg.norm(resid)) / max(denom, 1e-300)
    return SifEstimate(kappa=float(kappa), fit_residual=rel)


def safe_fit_window(
    domain: DomainSpec, crack: CrackSet, tip: Tip, h_tip: float
) -> tuple[float, float]:
    """Default window [4, 16] h_tip shrunk clear of the boundary and other crack parts."""
    r1, r2 = 4.0 * h_tip, 16.0 * h_tip
    p = tip.position
    others = [c for ci, c in enumerate(crack.components) if ci != tip.component_id]
    clearance = min(
        [domain.distance_to_boundary(p)]
        + [_dist_to_segment(p, a, b) for c in others for a, b in c.segments()]
        + [_dist_to_segment(p, q, q) for c in others if c.is_point for q in c.vertices]
    )
    return r1, min(r2, 0.95 * clearance)


# ---------------------------------------------------------------------------
# energy-release finite difference
# ---------------------------------------------------------------------------


def _forward_difference(ev: Evaluator, crack: CrackSet, tip: Tip, dsigma: float, t: float) -> float:
    """[E(K extended straight by dsigma) - E(K)] / dsigma at time t; E(K) is memoized by `ev`."""
    e0 = ev.energy(crack, t)
    extended = extend_tip(crack, tip, 0.0, dsigma, domain=ev.domain)
    return (ev.energy(extended, t) - e0) / dsigma


def release_rate_richardson_at(ev: Evaluator, crack: CrackSet, tip: Tip, t: float) -> float:
    """Release rate of the datum g(t) of an existing evaluator: the
    Richardson extrapolation of the forward difference over two steps.

    Steps are RICHARDSON_FACTORS times the evaluator's h_tip. Both
    differences share E(K), which the evaluator memoizes, and with an
    S-datum basis each mesh is solved once for all S data. The surface term contributes +1 per unit
    length exactly; the bulk term tends to -kappa^2 as the step shrinks.
    """
    d1, d2 = (_forward_difference(ev, crack, tip, f * ev.h_tip, t) for f in RICHARDSON_FACTORS)
    w = RICHARDSON_FACTORS[1] / RICHARDSON_FACTORS[0]
    return (w * d1 - d2) / (w - 1.0)


# ---------------------------------------------------------------------------
# Griffith audit over an evolution
# ---------------------------------------------------------------------------


def griffith_audit(
    state,
    *,
    tol_kappa: float = 0.1,
    tol_growth: float = 0.15,
) -> dict:
    """Per-step, per-tip complementarity report for a completed evolution.

    Checks: cumulative sigma is nondecreasing (exact); kappa^2 <= 1 +
    tol_kappa on no-growth steps; |1 - kappa^2| <= tol_growth on growth
    steps. Steps where the winning candidate kinked are reported
    separately, not counted as violations.
    """
    rows = []
    violations = []
    prev = None
    for step in state.steps:
        for key, (sigma, kappa, _) in step.tips.items():
            dsig = sigma - prev.tips[key][0] if prev else sigma
            grew = dsig > 0.0
            row = {
                "step": step.step,
                "t": step.energy.time,
                "tip": f"{key[0]}:{key[1]}",
                "sigma": sigma,
                "dsigma": dsig,
                "kappa": kappa,
                "grew": grew,
            }
            if dsig < 0.0:
                violations.append({**row, "kind": "sigma_decreasing"})
            if kappa is not None:
                k2 = kappa * kappa
                if step.kinked:
                    row["near_kink"] = True
                elif grew and abs(1.0 - k2) > tol_growth:
                    violations.append({**row, "kind": "growth_off_critical"})
                elif not grew and k2 > 1.0 + tol_kappa:
                    violations.append({**row, "kind": "rest_above_critical"})
            rows.append(row)
        prev = step
    return {
        "rows": rows,
        "violations": violations,
        "kink_steps": [s.step for s in state.steps if s.kinked],
        "tol_kappa": tol_kappa,
        "tol_growth": tol_growth,
        "pass": not violations,
    }
