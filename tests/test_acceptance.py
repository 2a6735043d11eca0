"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
suite asserts every criterion at its stated tolerance.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np

from quasicrack.cases import (
    growth_benchmark_config,
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
)
from quasicrack.cli import _run_from_config
from quasicrack.evolution import audit_monotone_loading, energy_balance
from quasicrack.geometry import (
    CrackSet,
    Polyline,
    contains,
    crack_tips,
    hausdorff_distance,
)
from quasicrack.mesh import triangulate
from quasicrack.sif import fit_sif, griffith_audit
from quasicrack.solver import ScalarField, bulk_energy, solve

from oracles import hausdorff_bruteforce, random_crackset
from verification import (
    length_lsc_trend_ok,
    perturbed_family,
    release_rate_richardson,
    subcritical_benchmark_config,
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. mode-III energy oracle
# ---------------------------------------------------------------------------


def test_criterion_1_mode3_energy_oracle():
    domain = slit_disk_domain(128)
    crack = slit_disk_crack()
    g = mode3_datum(1.0)
    results = []
    for h_tip, tol in ((1 / 256, 0.03), (1 / 512, 0.015)):
        t0 = time.perf_counter()
        mesh = triangulate(domain, crack, 32.0 * h_tip, h_tip)
        u = solve(mesh, g)
        e = bulk_energy(u)
        elapsed = time.perf_counter() - t0
        ok = abs(e - 1.0) <= tol and elapsed <= 60.0
        results.append(
            report(
                "criterion-1",
                ok,
                f"h_tip=1/{round(1 / h_tip)} bulk={e:.5f} err={abs(e - 1.0):.4%} "
                f"(tol {tol:.1%}) runtime={elapsed:.1f}s (cap 60s)",
            )
        )
    assert all(results)


# ---------------------------------------------------------------------------
# 2. SIF recovery
# ---------------------------------------------------------------------------


def test_criterion_2_sif_recovery():
    domain = slit_disk_domain(128)
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    h_tip = 1 / 256
    mesh = triangulate(domain, crack, 32.0 * h_tip, h_tip)
    u = solve(mesh, mode3_datum(1.0))
    est = fit_sif(u, tip, 16.0 * h_tip, 64.0 * h_tip)
    ok_k = abs(est.kappa - 1.0) <= 0.02
    alpha = -0.3174
    est2 = fit_sif(ScalarField(mesh, alpha * u.nodal_values), tip, 16.0 * h_tip, 64.0 * h_tip)
    lin_err = abs(est2.kappa - alpha * est.kappa)
    ok_lin = lin_err <= 1e-10
    ok = report(
        "criterion-2",
        ok_k and ok_lin,
        f"kappa={est.kappa:.4f} (tol 0.02), linearity error {lin_err:.2e} (tol 1e-10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. energy-release law
# ---------------------------------------------------------------------------


def test_criterion_3_energy_release_law():
    domain = slit_disk_domain(128)
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    h_tip = 1 / 64
    h_max = 32.0 * h_tip
    mesh = triangulate(domain, crack, h_max, h_tip)
    results = []
    for kappa_load in (0.0, 0.5, 1.0):
        g = mode3_datum(kappa_load)
        if kappa_load == 0.0:
            k_fit = 0.0
        else:
            k_fit = fit_sif(solve(mesh, g), tip, 16.0 * h_tip, 0.9).kappa
        fd = release_rate_richardson(domain, crack, g, tip, h_max, h_tip)
        gap = abs(fd - (1.0 - k_fit**2))
        results.append(
            report(
                "criterion-3",
                gap <= 0.1,
                f"kappa^2={kappa_load ** 2:.2f}: fd={fd:.4f} vs 1-k^2={1.0 - k_fit ** 2:.4f} "
                f"gap={gap:.4f} (tol 0.1)",
            )
        )
    assert all(results)


# ---------------------------------------------------------------------------
# 4. irreversibility and monotone surface energy (64-step growth scenario)
# ---------------------------------------------------------------------------


def test_criterion_4_irreversibility(benchmark_state):
    state = benchmark_state
    cracks = [s.crack for s in state.steps]
    n = len(cracks)
    assert n == 65  # 64 steps plus t=0
    ok_contain = all(
        contains(cracks[i + 1], cracks[i]) for i in range(n - 1)
    ) and contains(cracks[-1], cracks[0])
    surf = [r.surface for r in state.energies]
    ok_surf = all(b >= a for a, b in zip(surf, surf[1:]))
    ok = report(
        "criterion-4",
        ok_contain and ok_surf and sum(state.grew) > 0,
        f"containment exact on {n} steps, surface nondecreasing, "
        f"{sum(state.grew)} growth steps",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. energy balance
# ---------------------------------------------------------------------------


def test_criterion_5_energy_balance():
    t_start = time.perf_counter()
    # subcritical proportional run: exact t^2 law, all pairs
    sub = _run_from_config(subcritical_benchmark_config(delta=1 / 16), with_audit=False)
    resid = energy_balance(sub)["max_pair_residual"]
    tol = 1e-6 * abs(sub.energies[-1].total)
    ok_sub = report(
        "criterion-5a",
        (not any(sub.grew)) and resid <= tol,
        f"subcritical residual {resid:.2e} <= 1e-6*E(1) = {tol:.2e}, no growth",
    )
    # growth run: the one-sided balance defect decays at first order in delta
    defects = []
    for dd in (16, 32, 64):
        st = _run_from_config(growth_benchmark_config(delta=1.0 / dd), with_audit=False)
        defects.append(energy_balance(st)["one_sided_defect"])
    r1 = defects[0] / defects[1]
    r2 = defects[1] / defects[2]
    elapsed = time.perf_counter() - t_start
    ok_growth = report(
        "criterion-5b",
        r1 >= 1.5 and r2 >= 1.5 and elapsed <= 600.0,
        f"defects {defects[0]:.2e} -> {defects[1]:.2e} -> {defects[2]:.2e}, "
        f"decay x{r1:.2f}, x{r2:.2f} (need >= 1.5), runtime {elapsed:.0f}s (cap 600s)",
    )
    assert ok_sub and ok_growth


# ---------------------------------------------------------------------------
# 6. Griffith complementarity
# ---------------------------------------------------------------------------


def _griffith_check(state, tol_kappa, tol_growth, label):
    rep = griffith_audit(state, tol_kappa=tol_kappa, tol_growth=tol_growth)
    ks = [
        (r["grew"], r["kappa"])
        for r in rep["rows"]
        if r["kappa"] is not None and r["step"] not in rep["kink_steps"]
    ]
    worst_rest = max((k * k for g, k in ks if not g), default=0.0)
    worst_growth = max((abs(1.0 - k * k) for g, k in ks if g), default=0.0)
    ok = report(
        "criterion-6",
        rep["pass"],
        f"{label}: rest max kappa^2={worst_rest:.3f} (tol {1 + tol_kappa}), "
        f"growth max |1-kappa^2|={worst_growth:.3f} (tol {tol_growth})",
    )
    return ok


def test_criterion_6_griffith(benchmark_state, benchmark_state_refined):
    ok_default = _griffith_check(benchmark_state, 0.1, 0.15, "default mesh")
    ok_refined = _griffith_check(
        benchmark_state_refined, 0.05, 0.075, "refined mesh (halved tolerances)"
    )
    assert ok_default and ok_refined


# ---------------------------------------------------------------------------
# 7. proportional comparison inequality
# ---------------------------------------------------------------------------


def test_criterion_7_monotone_loading(benchmark_state):
    rows = audit_monotone_loading(benchmark_state, n_pairs=10, seed=123)
    worst = max(r["E_t_Kt"] - r["E_t_Ks"] for r in rows)
    ok = report(
        "criterion-7",
        all(r["pass"] for r in rows),
        f"10 random pairs, worst E(g(t),K(t)) - E(g(t),K(s)) = {worst:.2e} "
        f"(tol 1e-6*E(1))",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. geometry oracles
# ---------------------------------------------------------------------------


def test_criterion_8_geometry_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k1 = random_crackset(rng)
        k2 = random_crackset(rng)
        d = hausdorff_distance(k1, k2)
        d_ref = hausdorff_bruteforce(k1, k2, resolution=1e-4)
        worst = max(worst, abs(d - d_ref))
    ok_h = report(
        "criterion-8a",
        worst <= 1e-3,
        f"100 random pairs, worst |bnb - bruteforce| = {worst:.2e} (tol 1e-3)",
    )
    base = CrackSet(
        (
            Polyline(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))),
            Polyline(((0.2, 0.6), (0.9, 0.8))),
        ),
        m=2,
    )
    n_pass = 0
    for trial in range(20):
        dirs = [
            (math.cos(a), math.sin(a))
            for a in rng.uniform(0.0, 2.0 * math.pi, size=8)
        ]
        fam = perturbed_family(base, dirs, eps0=1e-3, n=25)
        if length_lsc_trend_ok(fam, base):
            n_pass += 1
    ok_g = report(
        "criterion-8b",
        n_pass == 20,
        f"length lower-semicontinuity trend holds on {n_pass}/20 generated convergent families",
    )
    assert ok_h and ok_g


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


# sha256 of each file `quasicrack run` writes for the audited delta=1/16
# growth benchmark; like the pinned mesh hashes these depend on the qhull
# (scipy) and floating-point (numpy) bits of numpy 2.4 and scipy 1.17
PINNED_RUN = {
    "evolution.jsonl": "fcee858413b001bb72a702843cd25605002015a8e4baaf96fa942c2cf44246d3",
    "cracks.json": "85bffa6bdcd0f34df99abfbeebe66a41e7d8a4cd75b2c945da0d2b8fee8a4a3f",
    "audit.json": "4b117dde9d75491859988a388e3c24c721e44fc1b913d7de69d25b17d675d076",
    "state.json": "cd7959958cb64b56b6d404a9326d3f6817f4c38f4271ac3679d51a244dcdef0b",
}


def test_criterion_9_determinism(tmp_path):
    cfg = growth_benchmark_config(delta=1 / 16)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1", "r2"):
        r = subprocess.run(
            [sys.executable, "-m", "quasicrack.cli", "run", str(path),
             "--output-dir", str(tmp_path / name)],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append({f: (tmp_path / name / f).read_bytes() for f in PINNED_RUN})
    hashes = {f: hashlib.sha256(b).hexdigest() for f, b in outs[0].items()}
    ok = report(
        "criterion-9",
        outs[0] == outs[1] and hashes == PINNED_RUN,
        "two audited CLI runs wrote byte-identical files with the pinned sha256 "
        f"({len(outs[0]['evolution.jsonl'])} bytes of JSONL)",
    )
    assert ok
