#!/usr/bin/env python3
"""Measure the unit-datum tip intensity along the tapered strip and print
loading constants for the stable-growth benchmark.

The loading phi(t) = amp * sqrt(1 + c1 t) is pinned by two choices: the
intensity at t=0 (kappa0, slightly subcritical) and the target final tip
position a1. Run after changing the strip geometry, then freeze the
printed constants in quasicrack.cases.
"""

import argparse

import numpy as np

from quasicrack.cases import TAPER_H0, TAPER_H1, TAPER_L, taper_crack, taper_datum, taper_domain
from quasicrack.geometry import crack_tips
from quasicrack.mesh import triangulate
from quasicrack.sif import fit_sif, safe_fit_window
from quasicrack.solver import solve


def kappa_unit(domain, datum, a, h_max, h_tip):
    crack = taper_crack(a)
    mesh = triangulate(domain, crack, h_max, h_tip)
    u = solve(mesh, datum)
    tip = crack_tips(crack)[1]
    r1, r2 = safe_fit_window(domain, crack, tip, h_tip)
    return fit_sif(u, tip, r1, r2).kappa


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h-tip", type=float, default=1 / 64)
    ap.add_argument("--kappa0", type=float, default=0.93, help="intensity at t=0")
    ap.add_argument("--a0", type=float, default=0.7)
    ap.add_argument("--a1", type=float, default=1.3, help="target final tip")
    args = ap.parse_args()

    domain = taper_domain(TAPER_L, TAPER_H0, TAPER_H1)
    datum = taper_datum(TAPER_L, TAPER_H0, TAPER_H1)
    h_max = 8.0 * args.h_tip

    grid = np.arange(0.3, 2.01, 0.1)
    kus = []
    for a in grid:
        ku = kappa_unit(domain, datum, float(a), h_max, args.h_tip)
        kus.append(ku)
        print(f"a={a:.2f}  kappa_unit={ku:.4f}")

    ku0 = kappa_unit(domain, datum, args.a0, h_max, args.h_tip)
    ku1 = kappa_unit(domain, datum, args.a1, h_max, args.h_tip)
    amp = args.kappa0 / ku0
    c1 = 1.0 / (amp * ku1) ** 2 - 1.0
    print()
    print(f"kappa_unit(a0={args.a0}) = {ku0:.4f}")
    print(f"kappa_unit(a1={args.a1}) = {ku1:.4f}")
    print(f"amp = {amp:.4f}")
    print(f"c1  = {c1:.4f}")
    onset = (1.0 / args.kappa0**2 - 1.0) / c1
    print(f"predicted onset t ~ {onset:.2f}")

    # stability check: kappa_unit must decrease beyond a0
    i0 = int(np.searchsorted(grid, args.a0))
    tail = kus[i0:]
    if any(b > a + 1e-3 for a, b in zip(tail, tail[1:])):
        print("WARNING: kappa_unit not decreasing beyond a0; growth may jump")


if __name__ == "__main__":
    main()
