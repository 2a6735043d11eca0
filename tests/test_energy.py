import math

import pytest

from quasicrack.cases import (
    linear_datum,
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
    zero_datum,
)
from quasicrack.domain import DomainSpec
from quasicrack.energy import EnergyRecord, Evaluator
from quasicrack.evolution import LoadingProgram, Profile
from quasicrack.geometry import CrackSet, Polyline, length
from quasicrack.mesh import triangulate
from quasicrack.solver import bulk_energy, solve

from verification import BallSpec, local_energy, pointwise, trace_of


SQUARE = DomainSpec.all_dirichlet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def one_datum(domain, datum, h_max, h_tip):
    """Evaluator of the constant loading g(t) = datum."""
    return Evaluator(domain, (datum,), lambda t: ((1.0,), (0.0,)), h_max, h_tip)


def test_total_energy_square_linear():
    ev = one_datum(SQUARE, linear_datum(1.0, 0.0), 0.25, 0.25)
    rec, u = ev.record(CrackSet((), 1), 0.0)
    assert rec.bulk == pytest.approx(1.0, abs=1e-9)
    assert rec.surface == 0.0
    assert rec.total == pytest.approx(1.0, abs=1e-9)


def test_total_energy_zero_datum_is_length():
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    rec, u = one_datum(SQUARE, zero_datum(), 0.1, 0.02).record(crack, 0.0)
    assert rec.bulk <= 1e-18
    assert rec.total == pytest.approx(length(crack), abs=1e-15)


def test_total_energy_slit_disk_mode3():
    # closed form: bulk = kappa^2 = 1 on the unit disk, surface = slit length 1
    ev = one_datum(slit_disk_domain(), mode3_datum(1.0), 1 / 8, 1 / 64)
    rec, _ = ev.record(slit_disk_crack(), 0.0)
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
    # the power 2 (grad u | grad gdot) of g(t) = sum_j c_j(t) g_j is 2 c^T G c'
    empty = CrackSet((), 1)
    x, y = linear_datum(1.0, 0.0), linear_datum(0.0, 1.0)
    rec, _ = one_datum(SQUARE, x, 0.25, 0.25).record(empty, 0.0)
    assert rec.power == 0.0
    ev = Evaluator(SQUARE, (x, y), lambda t: ((1.0, 0.0), (0.0, 1.0)), 0.25, 0.25)
    assert ev.record(empty, 0.0)[0].power == pytest.approx(0.0, abs=1e-12)
    # proportional loading g = t*h at t: power = 2*bulk/t
    t = 0.4
    ev = Evaluator(SQUARE, (x,), lambda s: ((s,), (1.0,)), 0.25, 0.25)
    rec, _ = ev.record(empty, t)
    assert rec.power == pytest.approx(2.0 * rec.bulk / t, abs=1e-12)


def test_directional_derivative_first_order():
    # [E(g + tau h) - E(g)] / tau - 2 (grad u_g | grad u_h) = tau * |grad u_h|^2
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    fg = lambda x, y: x * x - 0.5 * y
    fh = lambda x, y: math.sin(x) + y
    g, h = pointwise(fg), pointwise(fh)
    ev = Evaluator(SQUARE, (g, h), lambda t: ((1.0, 0.0), (0.0, 1.0)), 0.1, 0.02)
    rec, ug = ev.record(crack, 0.0)
    slope = rec.power  # 2 (grad u_g | grad u_h)
    mesh = ug.mesh
    quad = bulk_energy(solve(mesh, h))
    for tau in (1e-2, 1e-3, 1e-4):
        combo = pointwise(lambda x, y, tau=tau: fg(x, y) + tau * fh(x, y))
        e_tau = bulk_energy(solve(mesh, combo))
        diff = (e_tau - rec.bulk) / tau - slope
        assert diff == pytest.approx(tau * quad, rel=1e-6, abs=1e-12)


def test_bulk_monotone_in_crack():
    ev = one_datum(SQUARE, pointwise(lambda x, y: y * y - x), 0.1, 0.02)
    slits = [
        CrackSet((Polyline(((0.2, 0.5), (0.4, 0.5))),), 1),
        CrackSet((Polyline(((0.2, 0.5), (0.6, 0.5))),), 1),
        CrackSet((Polyline(((0.2, 0.5), (0.8, 0.5))),), 1),
    ]
    bulks = [ev.record(k, 0.0)[0].bulk for k in slits]
    assert bulks[1] <= bulks[0] + 1e-12
    assert bulks[2] <= bulks[1] + 1e-12


@pytest.fixture
def built(monkeypatch):
    """The cracks that `energy` meshes, in order."""
    import quasicrack.energy as energy

    cracks = []

    def counting_triangulate(*args):
        cracks.append(args[1])
        return triangulate(*args)

    monkeypatch.setattr(energy, "triangulate", counting_triangulate)
    return cracks


def test_evaluator_meshes_each_crack_once(built):
    # energies at every time and the record of a crack share one mesh
    cracks = [
        CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1),
        CrackSet((Polyline(((0.3, 0.5), (0.8, 0.5))),), 1),
    ]
    loading = LoadingProgram(
        "proportional", datum=linear_datum(1.0, 0.0), profile=Profile("linear", (1.0,))
    )
    ev = Evaluator(SQUARE, loading.basis(), loading.coeffs, 0.1, 0.02)
    e1 = ev.energy(cracks[0], 0.5)
    assert built == cracks[:1]
    for t in (0.25, 0.5, 1.0):
        for crack in cracks:
            ev.energy(crack, t)
    ev.record(cracks[1], 1.0)
    assert built == cracks
    assert ev.energy(cracks[0], 0.5) == e1


def test_record_drops_the_fields_of_other_cracks(built):
    # one crack's basis fields are kept, the last one a single request
    # meshed: after energy(B) and record(A), only A's are, so record(B)
    # meshes and solves B again
    a, b = (CrackSet((Polyline(((0.3, 0.5), (x, 0.5))),), 1) for x in (0.7, 0.8))
    ev = one_datum(SQUARE, linear_datum(1.0, 0.0), 0.1, 0.02)
    ev.energy(b, 0.0)
    ev.record(a, 0.0)
    assert built == [b, a]
    ev.record(a, 0.0)
    assert built == [b, a]
    ev.record(b, 0.0)
    assert built == [b, a, b]


def test_a_round_keeps_no_fields(built):
    # a round of `energies` keeps the Gram matrices of its misses alone
    a, b = (CrackSet((Polyline(((0.3, 0.5), (x, 0.5))),), 1) for x in (0.7, 0.8))
    ev = one_datum(SQUARE, linear_datum(1.0, 0.0), 0.1, 0.02)
    ev.energies([a, b], 0.0)
    assert built == [a, b]
    ev.record(b, 0.0)
    assert built == [a, b, b]


def test_a_round_keeps_the_fields_of_a_single_request(built):
    # the fields kept by energy(K) outlive a round that meshes other cracks
    k, a, b = (CrackSet((Polyline(((0.3, 0.5), (x, 0.5))),), 1) for x in (0.6, 0.7, 0.8))
    ev = one_datum(SQUARE, linear_datum(1.0, 0.0), 0.1, 0.02)
    ev.energy(k, 0.0)
    ev.energies([k, a, b], 0.0)
    assert built == [k, a, b]
    ev.record(k, 0.0)
    assert built == [k, a, b]


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
    crack = state.steps[i].crack
    u = state.field(i)
    tip_pos = crack.components[0].vertices[-1]
    ball = BallSpec(tip_pos, 0.28, 64)
    trace = trace_of(u)
    e_here = local_energy(ball, crack, trace, 0.05, state.h_tip).total
    from quasicrack.geometry import crack_tips, extend_tip

    tip = [t for t in crack_tips(crack) if t.end == "finish"][0]
    for ell_f in (2.0, 6.0):
        cand = extend_tip(crack, tip, 0.0, ell_f * state.h_tip, domain=state.domain)
        e_cand = local_energy(ball, cand, trace, 0.05, state.h_tip).total
        assert e_here <= e_cand + 5e-3 * abs(e_here)
