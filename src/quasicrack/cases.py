"""Built-in analytic verification cases and benchmark configurations.

The slit disk carries the closed-form anti-plane singular field
kappa * sqrt(2 rho / pi) * sin(theta / 2) about the tip, whose bulk
energy on the unit disk is exactly kappa^2. The tapered strip is the
stable-growth benchmark: its release rate decreases with crack length,
so quasi-static growth tracks the critical load instead of jumping.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .domain import DomainSpec, regular_polygon_disk, reject_unknown_keys
from .geometry import CrackSet, Point, Polyline, json_number, json_point
from .mesh import CrackMesh
from .solver import BoundaryDatum


# ---------------------------------------------------------------------------
# unit slit disk (tip at the origin, slit along the negative x-axis)
# ---------------------------------------------------------------------------


def slit_disk_domain(n_sides: int = 128) -> DomainSpec:
    return DomainSpec.all_dirichlet(regular_polygon_disk(n_sides))


def slit_disk_crack() -> CrackSet:
    return CrackSet((Polyline(((-1.0, 0.0), (0.0, 0.0))),), 1)


def mode3_values(pts: np.ndarray, kappa: float = 1.0, tip: Point = (0.0, 0.0)) -> np.ndarray:
    """Singular field at points; atan2 branch cut along the negative x-axis."""
    x = pts[:, 0] - tip[0]
    y = pts[:, 1] - tip[1]
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    return kappa * np.sqrt(2.0 * rho / math.pi) * np.sin(theta / 2.0)


def mode3_datum(kappa: float = 1.0, tip: Point = (0.0, 0.0)) -> BoundaryDatum:
    """Side-aware nodal datum of the slit-aligned singular field.

    The field's branch cut coincides with the slit, so plus-side face
    copies take theta = +pi and minus-side copies theta = -pi.
    """

    def sample(mesh: CrackMesh) -> np.ndarray:
        vals = mode3_values(mesh.nodes, kappa, tip)
        amp = kappa * np.sqrt(2.0 / math.pi)
        for ch in mesh.crack_chains:
            for plus, minus in zip(ch.node_ids, ch.minus_ids):
                if plus != minus:
                    x, y = mesh.nodes[plus].tolist()
                    root = math.sqrt(math.hypot(x - tip[0], y - tip[1]))
                    vals[plus], vals[minus] = amp * root, -amp * root  # theta = +pi, -pi
        return vals

    return sample


# ---------------------------------------------------------------------------
# tapered strip (stable growth benchmark)
# ---------------------------------------------------------------------------


def taper_domain(
    length_x: float = 2.0, h0: float = 0.35, h1: float = 0.60
) -> DomainSpec:
    """Trapezoid widening along +x; top and bottom edges are Dirichlet.

    Vertices CCW: (0,-h0), (L,-h1), (L,h1), (0,h0). Edge 0 (bottom) and
    edge 2 (top) carry the antisymmetric shear datum; the short ends are
    traction free.
    """
    boundary = (
        (0.0, -h0),
        (length_x, -h1),
        (length_x, h1),
        (0.0, h0),
    )
    return DomainSpec(boundary, dirichlet_arcs=((0, 1), (2, 3)))


def taper_crack(a0: float) -> CrackSet:
    return CrackSet((Polyline(((0.0, 0.0), (a0, 0.0))),), 1)


def taper_datum(
    length_x: float = 2.0, h0: float = 0.35, h1: float = 0.60
) -> BoundaryDatum:
    """Antisymmetric shear profile h(x, y) = y / H(x), +-1 on the long edges."""

    def sample(mesh: CrackMesh) -> np.ndarray:
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        return y / (h0 + (h1 - h0) * x / length_x)

    return sample


def linear_datum(cx: float = 1.0, cy: float = 0.0) -> BoundaryDatum:
    return lambda mesh: cx * mesh.nodes[:, 0] + cy * mesh.nodes[:, 1]


def constant_datum(c: float) -> BoundaryDatum:
    return lambda mesh: np.full(mesh.n_nodes, c, dtype=float)


def zero_datum() -> BoundaryDatum:
    return constant_datum(0.0)


# each datum type's builder, called with the config's other keys
DATUM_BUILDERS = {
    "mode3": mode3_datum,
    "taper": taper_datum,
    "linear": linear_datum,
    "constant": lambda value=0.0: constant_datum(value),
    "zero": zero_datum,
}


def datum_from_config(cfg: dict) -> BoundaryDatum:
    kind = cfg["type"]
    if kind not in DATUM_BUILDERS:
        raise ValueError(f"unknown datum type {kind!r}")
    build = DATUM_BUILDERS[kind]
    params = {k: v for k, v in cfg.items() if k != "type"}
    reject_unknown_keys(params, inspect.signature(build).parameters, f"{kind} datum")
    # `tip` (mode3) is the one point among the builders' parameters
    return build(**{
        k: (json_point if k == "tip" else json_number)(v, f"{kind} datum {k}")
        for k, v in params.items()
    })


# ---------------------------------------------------------------------------
# frozen benchmark configuration (calibrated once; see scripts/)
# ---------------------------------------------------------------------------

TAPER_L = 3.0
TAPER_H0 = 0.35
TAPER_H1 = 0.725
TAPER_A0 = 0.7
#: critical unit-datum SIF at a0 measured at h_tip=1/64 is ~2.1103;
#: amp below puts kappa(0) ~ 0.93 with onset near t = 0.42
GROWTH_AMP = 0.4407
GROWTH_C1 = 0.345


def growth_benchmark_config(delta: float = 1.0 / 64.0, refine: int = 1) -> dict:
    """Stable-growth benchmark: proportional loading on the tapered strip."""
    h_tip = 1.0 / (64.0 * refine)
    return {
        "domain": {
            "polygon": [
                [0.0, -TAPER_H0],
                [TAPER_L, -TAPER_H1],
                [TAPER_L, TAPER_H1],
                [0.0, TAPER_H0],
            ],
            "dirichlet_arcs": [[0, 1], [2, 3]],
        },
        "initial_crack": [[[0.0, 0.0], [TAPER_A0, 0.0]]],
        "m": 1,
        "delta": delta,
        "mesh": {"h_max": 8.0 * h_tip, "h_tip": h_tip},
        "policy": {
            "angles": [0.0],
            "ell0": 2.0 * h_tip,
            "length_max": 20.0 * h_tip,
            "multi_segment": 3,
        },
        "loading": {
            "mode": "proportional",
            "datum": {
                "type": "taper",
                "length_x": TAPER_L,
                "h0": TAPER_H0,
                "h1": TAPER_H1,
            },
            "profile": {
                "type": "affine_sqrt",
                "amp": GROWTH_AMP,
                "c0": 1.0,
                "c1": GROWTH_C1,
            },
        },
        "audit": {"enabled": True, "monotone_pairs": 10},
    }
