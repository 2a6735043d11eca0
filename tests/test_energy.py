import json
import math

import numpy as np
import pytest

from quasicrack.cases import (
    linear_datum,
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
    zero_datum,
)
from quasicrack.domain import DomainSpec
from quasicrack.energy import (
    BallSpec,
    EnergyRecord,
    energy_power,
    local_energy,
    total_energy,
    trace_of,
)
from quasicrack.evolution import LoadingProgram, Profile, _Evaluator
from quasicrack.geometry import CrackSet, Polyline, length
from quasicrack.mesh import triangulate
from quasicrack.solver import BoundaryDatum, ScalarField, bulk_energy, combine_datums, solve


SQUARE = DomainSpec.all_dirichlet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def test_total_energy_square_linear():
    rec, u = total_energy(SQUARE, CrackSet((), 1), linear_datum(1.0, 0.0), 0.25, 0.25)
    assert rec.bulk == pytest.approx(1.0, abs=1e-9)
    assert rec.surface == 0.0
    assert rec.total == pytest.approx(1.0, abs=1e-9)


def test_total_energy_zero_datum_is_length():
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    rec, u = total_energy(SQUARE, crack, zero_datum(), 0.1, 0.02)
    assert rec.bulk <= 1e-18
    assert rec.total == pytest.approx(length(crack), abs=1e-15)


def test_total_energy_slit_disk_mode3():
    # closed form: bulk = kappa^2 = 1 on the unit disk, surface = slit length 1
    rec, _ = total_energy(
        slit_disk_domain(), slit_disk_crack(), mode3_datum(1.0), 1 / 8, 1 / 64
    )
    assert rec.bulk == pytest.approx(1.0, rel=0.03)
    assert rec.surface == pytest.approx(1.0, abs=1e-15)
    assert rec.total == pytest.approx(2.0, rel=0.02)


def test_energy_record_json():
    rec = EnergyRecord(time=0.5, bulk=1.25, surface=0.5, power=0.1)
    assert rec.total == 1.75
    assert rec.to_json() == {
        "t": 0.5,
        "bulk": 1.25,
        "surface": 0.5,
        "total": 1.75,
        "power": 0.1,
    }


def test_energy_power_cases():
    mesh = triangulate(SQUARE, CrackSet((), 1), 0.25, 0.25)
    u = solve(mesh, linear_datum(1.0, 0.0))
    assert energy_power(u, zero_datum()) == 0.0
    assert energy_power(u, linear_datum(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    # proportional loading g = t*h at t: power = 2*bulk/t
    t = 0.4
    ut = ScalarField(mesh, t * u.nodal_values)
    assert energy_power(ut, linear_datum(1.0, 0.0)) == pytest.approx(
        2.0 * bulk_energy(ut) / t, abs=1e-12
    )


def test_directional_derivative_first_order():
    # [E(g + tau h) - E(g)] / tau - 2 (grad u_g | grad u_h) = tau * |grad u_h|^2
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    mesh = triangulate(SQUARE, crack, 0.1, 0.02)
    g = BoundaryDatum(lambda x, y: x * x - 0.5 * y, tag="g")
    h = BoundaryDatum(lambda x, y: math.sin(x) + y, tag="h")
    ug = solve(mesh, g)
    uh = solve(mesh, h)
    slope = energy_power(ug, ScalarField(mesh, uh.nodal_values))
    quad = bulk_energy(uh)
    for tau in (1e-2, 1e-3, 1e-4):
        combo = combine_datums(g, h, 1.0, tau, tag=f"g+t*{tau!r}")
        e_tau = bulk_energy(solve(mesh, combo))
        diff = (e_tau - bulk_energy(ug)) / tau - slope
        assert diff == pytest.approx(tau * quad, rel=1e-6, abs=1e-12)


def test_bulk_monotone_in_crack():
    g = BoundaryDatum(lambda x, y: y * y - x, tag="load")
    slits = [
        CrackSet((Polyline(((0.2, 0.5), (0.4, 0.5))),), 1),
        CrackSet((Polyline(((0.2, 0.5), (0.6, 0.5))),), 1),
        CrackSet((Polyline(((0.2, 0.5), (0.8, 0.5))),), 1),
    ]
    bulks = [total_energy(SQUARE, k, g, 0.1, 0.02)[0].bulk for k in slits]
    assert bulks[1] <= bulks[0] + 1e-12
    assert bulks[2] <= bulks[1] + 1e-12


def test_memoization_by_tag(monkeypatch):
    # the evaluator meshes a crack once, whether or not its datum is tagged
    import quasicrack.evolution as evolution

    built = []

    def counting_triangulate(*args):
        built.append(args[1])
        return triangulate(*args)

    monkeypatch.setattr(evolution, "triangulate", counting_triangulate)
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    for datum in (linear_datum(1.0, 0.0), BoundaryDatum(lambda x, y: x, tag="")):
        loading = LoadingProgram(
            "proportional", datum=datum, profile=Profile("constant", (1.0,))
        )
        ev = _Evaluator(SQUARE, loading, 0.1, 0.02)
        built.clear()
        e1 = ev.energy(crack, 0.0)
        assert len(built) == 1
        e2 = ev.energy(crack, 0.0)
        assert len(built) == 1
        assert e1 == e2


def test_local_energy_no_crack_linear():
    ball = BallSpec((0.3, 0.2), 0.25, 64)
    rec = local_energy(ball, CrackSet((), 1), linear_datum(1.0, 0.0), 0.05, 0.05)
    poly_area = 64 / 2 * math.sin(2 * math.pi / 64) * 0.25**2
    assert rec.bulk == pytest.approx(poly_area, rel=1e-9)
    assert rec.surface == 0.0


def test_local_energy_zero_trace():
    ball = BallSpec((0.0, 0.0), 0.5, 64)
    rec = local_energy(ball, slit_disk_crack(), zero_datum(), 0.05, 1 / 128)
    assert rec.bulk <= 1e-18
    assert rec.surface == pytest.approx(0.5, abs=1e-12)
    assert rec.total == pytest.approx(0.5, abs=1e-12)


def test_local_energy_mode3_ball():
    # integral of |grad u|^2 = 1/(2 pi rho) over a radius-R disk is R
    ball = BallSpec((0.0, 0.0), 0.5, 64)
    rec = local_energy(ball, slit_disk_crack(), mode3_datum(1.0), 0.05, 1 / 128)
    assert rec.bulk == pytest.approx(0.5, rel=0.02)


def test_localization_inequality_at_minimizer(benchmark_state):
    # with K_i the family minimizer at g_i, the ball-restricted problem
    # prefers K_i's trace over extended variants (solver-tolerance slack)
    state = benchmark_state
    i = next(j for j in range(len(state.grew)) if state.grew[j])
    crack = state.cracks[i]
    u = state.field(i)
    tip_pos = crack.components[0].vertices[-1]
    ball = BallSpec(tip_pos, 0.28, 64)
    trace = trace_of(u, tag=f"trace@{i}")
    e_here = local_energy(ball, crack, trace, 0.05, state.h_tip).total
    from quasicrack.geometry import crack_tips, extend_tip

    tip = [t for t in crack_tips(crack) if t.end == "finish"][0]
    for ell_f in (2.0, 6.0):
        cand = extend_tip(crack, tip, 0.0, ell_f * state.h_tip, domain=state.domain)
        e_cand = local_energy(ball, cand, trace, 0.05, state.h_tip).total
        assert e_here <= e_cand + 5e-3 * abs(e_here)
