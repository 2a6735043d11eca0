import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicrack.cases import (
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
    zero_datum,
)
from quasicrack.domain import DomainSpec, regular_polygon_disk
from quasicrack.geometry import CrackSet, Polyline, crack_tips
from quasicrack.mesh import triangulate
from quasicrack.sif import (
    AnnulusUnresolved,
    TipGeometryInvalid,
    fit_sif,
    griffith_audit,
    release_rate_richardson_at,
    safe_fit_window,
)
from quasicrack.solver import ScalarField, solve

from oracles import boundary_distance_loop, fit_window_loop, random_crackset
from verification import release_rate_fd, release_rate_richardson


@pytest.fixture(scope="module")
def slit_setup():
    domain = slit_disk_domain()
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    mesh = triangulate(domain, crack, 1 / 8, 1 / 64)
    return domain, crack, tip, mesh


def test_fit_exact_field_unit_kappa(slit_setup):
    _, _, tip, mesh = slit_setup
    u = ScalarField(mesh, mode3_datum(1.0)(mesh))
    est = fit_sif(u, tip, 4 / 64, 16 / 64)
    assert est.kappa == pytest.approx(1.0, abs=1e-10)
    assert est.fit_residual <= 1e-12
    assert 1.0 - est.kappa**2 == pytest.approx(0.0, abs=1e-9)


def test_fit_zero_field(slit_setup):
    _, _, tip, mesh = slit_setup
    u = ScalarField(mesh, np.zeros(mesh.n_nodes))
    est = fit_sif(u, tip, 4 / 64, 16 / 64)
    assert est.kappa == 0.0
    assert 1.0 - est.kappa**2 == 1.0


def test_fit_negative_kappa_and_linearity(slit_setup):
    _, _, tip, mesh = slit_setup
    u1 = ScalarField(mesh, mode3_datum(1.0)(mesh))
    est1 = fit_sif(u1, tip, 4 / 64, 16 / 64)
    u2 = ScalarField(mesh, -0.5 * u1.nodal_values)
    est2 = fit_sif(u2, tip, 4 / 64, 16 / 64)
    assert est2.kappa == pytest.approx(-0.5 * est1.kappa, abs=1e-10)
    assert 1.0 - est2.kappa**2 == pytest.approx(0.75, abs=1e-9)


def test_fit_fem_field_accuracy(slit_setup):
    domain, crack, tip, mesh = slit_setup
    u = solve(mesh, mode3_datum(1.0))
    est = fit_sif(u, tip, 16 / 64, 64 / 64 * 0.9)
    assert est.kappa == pytest.approx(1.0, abs=0.02)


def test_window_robustness(slit_setup):
    _, _, tip, mesh = slit_setup
    u = solve(mesh, mode3_datum(1.0))
    k1 = fit_sif(u, tip, 2 / 64, 8 / 64).kappa
    k2 = fit_sif(u, tip, 4 / 64, 16 / 64).kappa
    assert abs(k1 - k2) <= 0.05 * abs(k2)


def test_annulus_unresolved(slit_setup):
    _, _, tip, mesh = slit_setup
    u = ScalarField(mesh, mode3_datum(1.0)(mesh))
    with pytest.raises(AnnulusUnresolved):
        fit_sif(u, tip, 1 / 64, 16 / 64)  # r1 below 2 h_tip
    with pytest.raises(AnnulusUnresolved):
        fit_sif(u, tip, 8 / 64, 4 / 64)  # r1 >= r2


def test_tip_geometry_invalid_on_kink():
    # 45-degree kink 1.5 h_tip behind the tip: no straight run fits (2h, 16h)
    dom = slit_disk_domain()
    h_tip = 1 / 64
    back = 1.5 * h_tip / math.sqrt(2.0)
    crack = CrackSet(
        (Polyline(((-1.0, 0.0), (-back, 0.0), (0.0, back))),), 1
    )
    mesh = triangulate(dom, crack, 1 / 8, h_tip)
    tip = crack_tips(crack)[1]
    u = ScalarField(mesh, mode3_datum(1.0)(mesh))
    with pytest.raises(TipGeometryInvalid):
        fit_sif(u, tip, 2 * h_tip, 16 * h_tip)


def test_safe_fit_window_shrinks_near_boundary():
    dom = slit_disk_domain()
    crack = CrackSet((Polyline(((-1.0, 0.0), (0.9, 0.0))),), 1)  # tip close to the wall
    tip = crack_tips(crack)[1]
    r1, r2 = safe_fit_window(dom, crack, tip, 1 / 64)
    assert r2 <= 0.95 * dom.distance_to_boundary(tip.position) + 1e-12


@given(st.integers(4, 64), st.integers(0, 2**32 - 1), st.sampled_from([1 / 16, 1 / 64, 1 / 512]))
@settings(max_examples=100)
def test_safe_fit_window_matches_clearance_loop(n, seed, h_tip):
    # random multi-component cracks around the centre of a regular n-gon
    dom = DomainSpec.all_dirichlet(
        tuple((1.0 + 1.3 * x, 1.0 + 1.3 * y) for x, y in regular_polygon_disk(n))
    )
    crack = random_crackset(np.random.default_rng(seed), max_components=4)
    for tip in crack_tips(crack):
        assert dom.distance_to_boundary(tip.position) == boundary_distance_loop(dom, tip.position)
        assert safe_fit_window(dom, crack, tip, h_tip) == fit_window_loop(dom, crack, tip, h_tip)


def test_release_rate_zero_datum_is_one(slit_setup):
    domain, crack, tip, _ = slit_setup
    fd = release_rate_fd(domain, crack, zero_datum(), tip, 4 / 64, 1 / 8, 1 / 64)
    assert fd == pytest.approx(1.0, abs=1e-9)


def test_release_rate_cross_validation(slit_setup):
    domain, crack, tip, mesh = slit_setup
    g = mode3_datum(0.5)
    fd = release_rate_richardson(domain, crack, g, tip, 1 / 8, 1 / 64)
    k_fit = fit_sif(solve(mesh, g), tip, 16 / 64, 0.9).kappa
    assert abs(fd - (1.0 - k_fit**2)) <= 0.1


def test_release_rate_richardson_pinned(slit_setup):
    # exact bits on the slit disk; they depend on numpy 2.4 and scipy 1.17, like the mesh pins
    domain, crack, tip, _ = slit_setup
    fd = release_rate_richardson(domain, crack, mode3_datum(0.5), tip, 1 / 8, 1 / 64)
    assert fd == 0.7489298257844101


def test_richardson_meshes_base_crack_once(slit_setup, monkeypatch):
    import quasicrack.energy

    domain, crack, tip, _ = slit_setup
    g = mode3_datum(0.5)
    meshes = []

    def counting(*args, **kwargs):
        meshes.append(args[1])
        return triangulate(*args, **kwargs)

    monkeypatch.setattr(quasicrack.energy, "triangulate", counting)
    fd = release_rate_richardson(domain, crack, g, tip, 1 / 8, 1 / 64)
    assert len(meshes) == 3 and meshes.count(crack) == 1
    d1 = release_rate_fd(domain, crack, g, tip, 4 / 64, 1 / 8, 1 / 64)
    d2 = release_rate_fd(domain, crack, g, tip, 8 / 64, 1 / 8, 1 / 64)
    assert fd == (2.0 * d1 - d2) / (2.0 - 1.0)


def test_richardson_on_a_multi_datum_evaluator(slit_setup):
    # one-hot coefficients pick each datum of one evaluator; every value
    # equals the single-datum path's bit for bit
    from quasicrack.energy import Evaluator

    domain, crack, tip, _ = slit_setup
    data = [mode3_datum(0.5), zero_datum(), mode3_datum(1.0)]

    def one_hot(t):
        return tuple(float(j == t) for j in range(3)), (0.0,) * 3

    ev = Evaluator(domain, data, one_hot, 1 / 8, 1 / 64)
    for j, g in enumerate(data):
        want = release_rate_richardson(domain, crack, g, tip, 1 / 8, 1 / 64)
        assert release_rate_richardson_at(ev, crack, tip, j) == want
    assert release_rate_richardson_at(ev, crack, tip, 0) == 0.7489298257844101


def test_estimator_consistency_improves():
    domain = slit_disk_domain()
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    g = mode3_datum(0.5)
    gaps = []
    for h_max, h_tip in [(1 / 8, 1 / 64), (1 / 16, 1 / 128)]:
        mesh = triangulate(domain, crack, h_max, h_tip)
        k_fit = fit_sif(solve(mesh, g), tip, 16 * h_tip, 0.9).kappa
        fd = release_rate_richardson(domain, crack, g, tip, h_max, h_tip)
        gaps.append(abs(fd - (1.0 - k_fit**2)))
    assert gaps[1] < gaps[0]


def test_griffith_audit_subcritical_no_growth(benchmark_state):
    # restrict to the pre-onset prefix: all rest steps, kappa^2 < 1
    state = benchmark_state
    rep = griffith_audit(state)
    assert rep["pass"], rep["violations"]
    pre = [r for r in rep["rows"] if not r["grew"]]
    assert pre and all(
        r["kappa"] is None or r["kappa"] ** 2 <= 1.0 + rep["tol_kappa"] for r in pre
    )


def test_griffith_audit_sigma_nondecreasing(benchmark_state):
    steps = benchmark_state.steps
    for key in steps[0].tips:
        sig = [s.tips[key][0] for s in steps]
        assert all(b >= a for a, b in zip(sig, sig[1:]))


def test_griffith_audit_kink_steps_reported_separately():
    # an off-critical growth step is excluded from violations when the
    # winning candidate kinked (reported in kink_steps instead)
    from quasicrack.energy import EnergyRecord
    from quasicrack.evolution import (
        CandidatePolicy,
        EvolutionState,
        LoadingProgram,
        Profile,
        StepRecord,
        TimeGrid,
    )
    from quasicrack.cases import taper_crack, taper_domain, zero_datum

    key = (0, "finish")
    state = EvolutionState(
        domain=taper_domain(),
        grid=TimeGrid(0.5),
        policy=CandidatePolicy(angles=(0.0,)),
        loading=LoadingProgram(
            "proportional", datum=zero_datum(), profile=Profile("constant", (0.0,))
        ),
        h_max=1 / 8,
        h_tip=1 / 64,
        initial_crack=taper_crack(0.7),
    )
    state.steps = [
        StepRecord(
            step=i,
            crack=taper_crack(0.7),
            energy=EnergyRecord(0.5 * i, 0.0, 0.7),
            grew=i == 1,
            candidates=1,
            tips={key: (sigma, kappa, 0.0)},
            kinked=i == 1,
        )
        for i, (sigma, kappa) in enumerate([(0.0, 0.5), (0.1, 0.5), (0.1, 0.6)])
    ]
    rep = griffith_audit(state)
    # step 1 grew at kappa far from 1 but is shielded by the kink report
    assert rep["pass"]
    assert rep["kink_steps"] == [1]
    assert any(r.get("near_kink") for r in rep["rows"])
    # without the kink flag the same history is a violation
    state.steps = [dataclasses.replace(s, kinked=False) for s in state.steps]
    rep2 = griffith_audit(state)
    assert not rep2["pass"]
    assert rep2["violations"][0]["kind"] == "growth_off_critical"


def test_griffith_audit_and_csv_same_after_replay(benchmark_state, tmp_path):
    # the benchmark policy has one angle, so no step kinked: the run-only
    # kink flag (not saved) does not enter the comparison
    from quasicrack.cli import replay_state

    assert not any(s.kinked for s in benchmark_state.steps)
    benchmark_state.save(str(tmp_path / "state.json"))
    replayed = replay_state(str(tmp_path / "state.json"))
    assert griffith_audit(replayed) == griffith_audit(benchmark_state)
    assert [s.tips for s in replayed.steps] == [s.tips for s in benchmark_state.steps]
