import math

import numpy as np
import pytest

from quasicrack.cases import (
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
    taper_crack,
    taper_datum,
    taper_domain,
    zero_datum,
)
from quasicrack.evolution import CandidatePolicy, LoadingProgram, Profile, TimeGrid, run_evolution
from quasicrack.geometry import CrackSet, Polyline, hausdorff_distance

from verification import (
    check_energy_continuity,
    check_minimizer_convergence,
    constant_family,
    difference_lsc_ok,
    length_lsc_trend_ok,
    perturbed_family,
    slit_angle_family,
    slit_length_family,
)


MESH = (1 / 8, 1 / 48)


def test_constant_family_is_floor():
    dom = slit_disk_domain()
    scen = constant_family(dom, slit_disk_crack(), mode3_datum(1.0), n=3)
    assert scen.certify_hypothesis()
    rep = check_minimizer_convergence(scen, *MESH)
    # identical members: distances equal the transfer floor
    assert max(rep["distances"]) == pytest.approx(rep["transfer_floor"], rel=1e-9)


def test_slit_length_family_converges():
    dom = slit_disk_domain()
    scen = slit_length_family(dom, mode3_datum(1.0), base=0.85, indices=(2, 4, 8, 16))
    assert scen.certify_hypothesis(final_tol=0.06)
    rep = check_minimizer_convergence(scen, *MESH)
    assert rep["pass"], rep
    assert rep["spearman"] < 0.0
    assert rep["distances"][-1] < rep["distances"][0]


def test_slit_angle_family_converges():
    dom = slit_disk_domain()
    scen = slit_angle_family(
        dom, mode3_datum(1.0), amplitude=0.25, indices=(2, 4, 8), slit_len=0.9
    )
    rep = check_minimizer_convergence(scen, *MESH)
    assert rep["pass"], rep


def test_scenario_hypothesis_certification():
    dom = slit_disk_domain()
    scen = slit_length_family(dom, mode3_datum(1.0), base=0.8, indices=(2, 4, 8, 16, 1000))
    d = scen.hypothesis_distances()
    assert all(b <= a + 1e-15 for a, b in zip(d, d[1:]))
    assert d[-1] < 1e-3


def test_energy_continuity_zero_loading():
    dom = taper_domain(3.0, 0.35, 0.725)
    k0 = taper_crack(0.7)
    loading = LoadingProgram(
        "proportional", datum=zero_datum(), profile=Profile("constant", (0.0,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 8)
    st1 = run_evolution(dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32,
                        with_audit=False)
    st2 = run_evolution(dom, k0, loading, TimeGrid(1 / 8), policy, 1 / 8, 1 / 32,
                        with_audit=False)
    rep = check_energy_continuity(st1, st2)
    assert rep["total_jump"] == pytest.approx(0.0, abs=1e-14)
    assert rep["pass"]


def test_energy_continuity_growth_run():
    dom = taper_domain(3.0, 0.35, 0.725)
    k0 = taper_crack(0.7)
    loading = LoadingProgram(
        "proportional", datum=taper_datum(3.0, 0.35, 0.725),
        profile=Profile("affine_sqrt", (0.4407, 1.0, 0.345)),
    )
    ht = 1 / 64
    policy = CandidatePolicy(angles=(0.0,), ell0=2 * ht, length_max=20 * ht)
    st1 = run_evolution(dom, k0, loading, TimeGrid(1 / 8), policy, 1 / 8, ht,
                        with_audit=False)
    st2 = run_evolution(dom, k0, loading, TimeGrid(1 / 16), policy, 1 / 8, ht,
                        with_audit=False)
    rep = check_energy_continuity(st1, st2)
    # surface may jump; the total-energy jump statistic must not grow
    assert rep["pass"], rep
    assert rep["surface_jump"] > 0.0


def test_length_lsc_trend_on_generated_families():
    rng = np.random.default_rng(7)
    base = CrackSet(
        (
            Polyline(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))),
            Polyline(((0.2, 0.6), (0.8, 0.7))),
        ),
        m=2,
    )
    for trial in range(20):
        dirs = [
            (math.cos(a), math.sin(a))
            for a in rng.uniform(0.0, 2.0 * math.pi, size=8)
        ]
        fam = perturbed_family(base, dirs, eps0=1e-3, n=25)
        d = [
            hausdorff_distance(k, base, domain_diameter=3.0) for k in fam[-3:]
        ]
        assert all(b <= a + 1e-15 for a, b in zip(d, d[1:]))
        assert length_lsc_trend_ok(fam, base)


def test_difference_lsc_on_generated_instances():
    rng = np.random.default_rng(11)
    k_limit = CrackSet((Polyline(((0.0, 0.0), (1.0, 0.0), (1.5, 0.4))),), 1)
    h_limit = CrackSet((Polyline(((0.4, -0.2), (0.6, 0.2))),), 1)
    for eps in (1e-2, 1e-3):
        dirs = [(1.0, 0.0), (0.0, 1.0), (-0.7, 0.7)]
        k_fam = perturbed_family(k_limit, dirs, eps0=5e-4, n=12)
        h_fam = perturbed_family(h_limit, dirs[::-1], eps0=5e-4, n=12)
        assert difference_lsc_ok(k_fam, k_limit, h_fam, h_limit, eps)
