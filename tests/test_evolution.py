import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasicrack.cases import (
    growth_benchmark_config,
    linear_datum,
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
    taper_crack,
    taper_datum,
    taper_domain,
    zero_datum,
)
from quasicrack.domain import DomainSpec
from quasicrack.energy import Evaluator
from quasicrack.evolution import (
    CandidatePolicy,
    LoadingProgram,
    NotProportional,
    Profile,
    StepRecord,
    TimeGrid,
    _minimize_step,
    audit_conditions,
    audit_monotone_loading,
    run_evolution,
)
from quasicrack.geometry import CrackSet, Polyline, contains, crack_tips, length

from oracles import best_joint_extension, direct_energy_and_power

TAPER = dict(length_x=3.0, h0=0.35, h1=0.725)


def evaluator(domain, loading, h_max, h_tip):
    return Evaluator(domain, loading.basis(), loading.coeffs, h_max, h_tip)


def taper_setup():
    return (
        taper_domain(**TAPER),
        taper_crack(0.7),
        taper_datum(**TAPER),
    )


# ---------------------------------------------------------------------------
# config types
# ---------------------------------------------------------------------------


def test_time_grid_largest_n():
    assert TimeGrid(0.3).times() == [0.0, 0.3, 0.6, 0.8999999999999999]
    assert TimeGrid(0.25).n_steps == 4
    assert TimeGrid(1.0).times() == [0.0, 1.0]


def test_time_grid_needs_a_step():
    with pytest.raises(ValueError):
        TimeGrid(2.0)
    with pytest.raises(ValueError):
        TimeGrid(0.0)


def test_profile_values_and_derivatives():
    lin = Profile("linear", (2.0,))
    assert lin.value(0.25) == 0.5 and lin.derivative(0.9) == 2.0
    aff = Profile("affine_sqrt", (2.0, 1.0, 3.0))
    assert aff.value(1.0) == 4.0
    assert aff.derivative(0.0) == pytest.approx(3.0)
    pw = Profile("pw_linear", ((0.0, 0.5, 1.0), (0.0, 1.0, 1.0)))
    assert pw.value(0.25) == 0.5
    assert pw.derivative(0.25) == 2.0 and pw.derivative(0.75) == 0.0
    assert pw.nondecreasing_on([0.0, 0.5, 1.0])


def test_profile_from_json():
    assert Profile.from_json({"type": "linear", "rate": 0.7}) == Profile("linear", (0.7,))
    assert Profile.from_json({"type": "linear"}) == Profile("linear", (1.0,))
    assert Profile.from_json(
        {"type": "affine_sqrt", "amp": 0.44, "c0": 1, "c1": 0.345}
    ) == Profile("affine_sqrt", (0.44, 1.0, 0.345))
    assert Profile.from_json(
        {"type": "power_sqrt", "amp": 0.5, "c0": 1.0, "c1": 0.3, "p": 3}
    ) == Profile("power_sqrt", (0.5, 1.0, 0.3, 3.0))
    assert Profile.from_json({"type": "constant", "value": 2}) == Profile("constant", (2.0,))
    assert Profile.from_json(
        {"type": "pw_linear", "ts": [0, 0.5, 1], "values": [0, 1, 1.5]}
    ) == Profile("pw_linear", ((0.0, 0.5, 1.0), (0.0, 1.0, 1.5)))
    with pytest.raises(ValueError):
        Profile.from_json({"type": "cubic"})


def test_policy_validation():
    with pytest.raises(ValueError):
        CandidatePolicy(angles=(0.0, 0.1))  # even count
    with pytest.raises(ValueError):
        CandidatePolicy(angles=(-0.2, 0.0, 0.1))  # asymmetric
    with pytest.raises(ValueError):
        CandidatePolicy(angles=(-2.0, 0.0, 2.0), theta_max=1.0)
    pol = CandidatePolicy()
    assert len(pol.angles) == 17
    assert max(pol.angles) == pytest.approx(math.radians(80.0))


def test_policy_ladder():
    pol = CandidatePolicy(angles=(0.0,))
    lengths = pol.step_lengths(h_tip=1 / 64)
    assert lengths[0] == 0.0
    assert lengths[1] == pytest.approx(2 / 64)
    assert lengths[-1] == pytest.approx(40 / 64)
    assert len(lengths) == 21


def test_policy_json_roundtrip():
    pol = CandidatePolicy(angles=(-0.1, 0.0, 0.1), ell0=0.05, multi_segment=2)
    assert CandidatePolicy.from_json(pol.to_json()) == pol


def test_loading_program_validation():
    with pytest.raises(ValueError):
        LoadingProgram("proportional")
    with pytest.raises(ValueError):
        LoadingProgram("sampled", samples=((0.5, zero_datum()),))


# ---------------------------------------------------------------------------
# step minimization
# ---------------------------------------------------------------------------


def test_zero_datum_keeps_crack():
    dom, k0, _ = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=zero_datum(), profile=Profile("constant", (0.0,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 4)
    ev = evaluator(dom, loading, 1 / 8, 1 / 32)
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda K: ev.energy(K, 0.0))
    assert out.crack.fingerprint() == k0.fingerprint()


def test_subcritical_no_extension_beats_rest():
    # direct enumeration: every extension raises the energy
    dom, k0, h = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=h, profile=Profile("constant", (0.25,))
    )
    ev = evaluator(dom, loading, 1 / 8, 1 / 32)
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 4)
    e_rest = ev.energy(k0, 0.0)
    from quasicrack.evolution import _tip_candidates, _active_tips

    tips = _active_tips(dom, k0)
    assert len(tips) == 1
    cands = _tip_candidates(dom, k0, tips[0], policy, 1 / 32)
    assert cands
    for cand, ang, ell in cands:
        assert ev.energy(cand, 0.0) > e_rest


def test_supercritical_extension_wins():
    dom, k0, h = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=h, profile=Profile("constant", (0.55,))
    )
    ev = evaluator(dom, loading, 1 / 8, 1 / 32)
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 2)
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda K: ev.energy(K, 0.0))
    assert out.grew
    assert length(out.crack) > length(k0)


def test_tie_break_prefers_no_growth_then_short_then_straight():
    dom, k0, _ = taper_setup()
    policy = CandidatePolicy(
        angles=(-0.3, 0.0, 0.3), ell0=1 / 16, length_max=1 / 8, multi_segment=1
    )
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda K: 0.0)
    assert not out.grew  # all-equal energies: smallest surface increment wins
    marked = _minimize_step(
        dom, k0, policy, 1 / 32,
        lambda K: 0.0 if length(K) > length(k0) else 1.0,
    )
    assert marked.grew
    (key, ang, ell), = marked.extensions
    assert ell == pytest.approx(1 / 16)  # shortest ladder rung
    assert ang == 0.0  # straightest among equal-length candidates


def test_joint_search_matches_exhaustive_oracle():
    # a centred slit under linear shear grows at both tips at t = 0.75 (phi
    # = 1.5): two tips with 7 moves each (none, 3 angles x 2 lengths) is
    # one joint round of 49 combinations
    dom = DomainSpec.unit_square(dirichlet_arcs=((0, 1), (2, 3)))
    k0 = CrackSet((Polyline(((0.35, 0.5), (0.65, 0.5))),), m=1)
    loading = LoadingProgram(
        "proportional", datum=linear_datum(0, 1), profile=Profile("linear", (2.0,))
    )
    policy = CandidatePolicy(
        angles=(-0.3, 0.0, 0.3), ell0=1 / 16, length_max=1 / 8, multi_segment=2
    )
    ev = evaluator(dom, loading, 1 / 8, 1 / 32)

    def energy(K):
        return ev.energy(K, 0.75)

    out = _minimize_step(dom, k0, policy, 1 / 32, energy)
    assert out.n_candidates == 49 and not out.budget_exceeded
    assert sorted(key for key, _, _ in out.extensions) == [(0, "finish"), (0, "start")]
    solves = ev.solves
    best, e_best = best_joint_extension(dom, k0, policy, 1 / 32, energy)
    assert ev.solves == solves  # every crack the oracle scores, the search scored
    assert out.crack.fingerprint() == best.fingerprint()
    assert energy(out.crack) == e_best < energy(k0)


def test_kink_selected_when_datum_is_rotated():
    # singular datum rotated 30 degrees about the tip favors kinked growth
    dom = slit_disk_domain()
    k0 = slit_disk_crack()
    beta = math.radians(30.0)

    def ev_rot(x, y):
        rho = math.hypot(x, y)
        th = math.atan2(y, x) - beta
        if th <= -math.pi:
            th += 2.0 * math.pi
        return math.sqrt(2.0 * rho / math.pi) * math.sin(th / 2.0)

    from quasicrack.solver import BoundaryDatum

    g = BoundaryDatum(ev_rot)
    loading = LoadingProgram(
        "proportional", datum=g, profile=Profile("constant", (1.7,))
    )
    evl = evaluator(dom, loading, 1 / 8, 1 / 32)
    policy = CandidatePolicy(
        angles=tuple(math.radians(a) for a in (-40, -20, 0, 20, 40)),
        ell0=1 / 8,
        length_max=1 / 8,
        multi_segment=1,
    )
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda K: evl.energy(K, 0.0))
    assert out.grew
    (_, ang, _), = out.extensions
    assert math.degrees(ang) in (20.0, 40.0)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_zero_loading_run():
    dom, k0, _ = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=zero_datum(), profile=Profile("linear", (0.0,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 4)
    state = run_evolution(dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32)
    assert not any(state.grew)
    for rec, crack in zip(state.energies, state.cracks):
        assert crack.fingerprint() == k0.fingerprint()
        assert rec.total == pytest.approx(length(k0), abs=1e-14)
    assert state.audit["pass"]
    assert state.audit["energy_balance"]["max_pair_residual"] == pytest.approx(
        0.0, abs=1e-14
    )


def test_subcritical_t_squared_law():
    dom, k0, h = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=h, profile=Profile("linear", (0.3,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 4)
    state = run_evolution(dom, k0, loading, TimeGrid(1 / 8), policy, 1 / 8, 1 / 32)
    assert not any(state.grew)
    times = state.grid.times()
    bulk1 = state.energies[-1].bulk / loading.profile.value(1.0) ** 2
    for t, rec in zip(times, state.energies):
        assert rec.bulk == pytest.approx(
            loading.profile.value(t) ** 2 * bulk1, abs=1e-8
        )


def test_scaling_path_matches_direct_solves():
    # every recorded energy and power against a direct solve of g(t)
    dom, k0, h = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=h, profile=Profile("linear", (0.3,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 8)
    state = run_evolution(
        dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32,
        with_audit=False,
    )
    for t, crack, rec in zip(state.grid.times(), state.cracks, state.energies):
        bulk, power = direct_energy_and_power(dom, crack, loading, t, 1 / 8, 1 / 32)
        assert rec.total == pytest.approx(bulk + length(crack), abs=1e-9)
        assert rec.power == pytest.approx(power, abs=1e-9)


SQUARE = DomainSpec.all_dirichlet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
BASIS_FUNCS = (
    lambda x, y: x,
    lambda x, y: y * y - x,
    lambda x, y: x * y,
    lambda x, y: math.sin(x) + y,
    lambda x, y: x * x - y * y,
)


@given(
    slit=st.floats(0.05, 0.6),
    amps=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
    t=st.floats(0.0, 1.0),
)
def test_gram_bulk_and_power_match_direct_solve(slit, amps, t):
    from quasicrack.solver import BoundaryDatum, scale_datum

    crack = CrackSet((Polyline(((0.2, 0.5), (0.2 + slit, 0.5))),), 1)
    n = len(amps)
    samples = tuple(
        (k / (n - 1), scale_datum(BoundaryDatum(BASIS_FUNCS[k]), a))
        for k, a in enumerate(amps)
    )
    loading = LoadingProgram("sampled", samples=samples)
    rec, _ = evaluator(SQUARE, loading, 0.1, 0.025).record(crack, t)
    bulk, power = direct_energy_and_power(SQUARE, crack, loading, t, 0.1, 0.025)
    assert rec.bulk == pytest.approx(bulk, rel=1e-9, abs=1e-9)
    assert rec.power == pytest.approx(power, rel=1e-9, abs=1e-9)


def test_audit_same_with_shared_and_fresh_evaluator():
    dom, k0, h = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=h, profile=Profile("linear", (0.6,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 4)
    state = run_evolution(
        dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32,
        with_audit=False,
    )
    assert any(state.grew) and state.evaluator is not None
    fresh = dataclasses.replace(state, evaluator=None)
    for audit in (audit_conditions, lambda s: audit_monotone_loading(s, n_pairs=4)):
        assert json.dumps(audit(state)) == json.dumps(audit(fresh))


def test_onset_monotone_in_amplitude():
    dom, k0, h = taper_setup()
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 4)

    def onset(amp):
        loading = LoadingProgram(
            "proportional", datum=h, profile=Profile("linear", (amp,))
        )
        st = run_evolution(
            dom, k0, loading, TimeGrid(1 / 8), policy, 1 / 8, 1 / 32,
            with_audit=False,
        )
        return next((i for i, g in enumerate(st.grew) if g), len(st.grew))

    assert onset(0.60) <= onset(0.50)


def test_irreversibility_and_monotone_surface(benchmark_state):
    state = benchmark_state
    for a, b in zip(state.cracks, state.cracks[1:]):
        assert contains(b, a, 0.0)
    surf = [r.surface for r in state.energies]
    assert all(y >= x for x, y in zip(surf, surf[1:]))
    assert sum(state.grew) > 0


def test_audit_passes_on_benchmark(benchmark_state):
    audit = benchmark_state.audit
    assert audit["pass"]
    assert audit["irreversibility"]["pass"]
    assert audit["surface_monotone"]["pass"]
    assert audit["minimality"]["pass"]
    assert audit["stationarity"]["pass"]
    assert audit["family_relative"] is True


def test_monotone_loading_audit(benchmark_state):
    rows = audit_monotone_loading(benchmark_state, n_pairs=10, seed=3)
    assert len(rows) == 10
    assert all(r["pass"] for r in rows)


def test_monotone_loading_equalities():
    # s = t is exact equality; with no growth every pair is an equality
    dom, k0, h = taper_setup()
    loading = LoadingProgram(
        "proportional", datum=h, profile=Profile("linear", (0.3,))
    )
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 8)
    state = run_evolution(
        dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32,
        with_audit=False,
    )
    assert not any(state.grew)
    ev = evaluator(dom, loading, 1 / 8, 1 / 32)
    t = 0.75
    assert ev.energy(state.cracks[3], t) == ev.energy(state.cracks[3], t)
    rows = audit_monotone_loading(state, n_pairs=6, seed=1)
    for r in rows:
        assert r["E_t_Kt"] == r["E_t_Ks"]  # K(s) == K(t) without growth


def test_sampled_loading_audit_path():
    # sampled loading: hat-function coefficients over three basis data,
    # their interval-slope power, and the balance audit on them
    dom, k0, h = taper_setup()
    from quasicrack.solver import scale_datum

    samples = (
        (0.0, zero_datum()),
        (0.5, scale_datum(h, 0.15)),
        (1.0, scale_datum(h, 0.3)),
    )
    loading = LoadingProgram("sampled", samples=samples)
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 8)
    state = run_evolution(dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32)
    assert not any(state.grew)
    assert state.audit["pass"]
    # piecewise-linear-in-t datum: bulk follows the interpolated amplitude
    amps = [0.0, 0.075, 0.15, 0.225, 0.3]
    b_unit = state.energies[-1].bulk / 0.3**2
    for amp, rec in zip(amps, state.energies):
        assert rec.bulk == pytest.approx(amp**2 * b_unit, abs=1e-8)


def test_monotone_loading_requires_proportional():
    dom, k0, h = taper_setup()
    samples = (
        (0.0, zero_datum()),
        (1.0, h),
    )
    loading = LoadingProgram("sampled", samples=samples)
    policy = CandidatePolicy(angles=(0.0,), ell0=1 / 16, length_max=1 / 8)
    state = run_evolution(
        dom, k0, loading, TimeGrid(1 / 2), policy, 1 / 8, 1 / 32,
        with_audit=False,
    )
    with pytest.raises(NotProportional):
        audit_monotone_loading(state)


def two_slits_zero_loading():
    """Two slits with four interior tips, unloaded."""
    dom = DomainSpec.unit_square(dirichlet_arcs=((0, 1), (2, 3)))
    k0 = CrackSet(
        (
            Polyline(((0.25, 0.5), (0.4, 0.5))),
            Polyline(((0.6, 0.5), (0.75, 0.5))),
        ),
        m=2,
    )
    loading = LoadingProgram(
        "proportional", datum=zero_datum(), profile=Profile("constant", (0.0,))
    )
    return dom, k0, loading


def test_budget_exceeded_two_tips():
    # 10 moves per tip (none, 3 angles x 3 lengths): 10^4 > JOINT_BUDGET
    dom, k0, loading = two_slits_zero_loading()
    policy = CandidatePolicy(angles=(-0.2, 0.0, 0.2), ell0=0.05, length_max=0.15)
    state = run_evolution(
        dom, k0, loading, TimeGrid(1.0), policy, 1 / 8, 1 / 64,
        with_audit=False,
    )
    assert any("budget exceeded" in e for e in state.events)
    # single-tip moves: the unextended crack and 4 x 9 extensions
    assert state.candidates_evaluated == [37, 37]
    assert not any(state.grew)


def test_joint_round_four_tips_keeps_crack_at_zero_loading():
    # 2 moves per tip (none, one straight segment): 2^4 combinations
    dom, k0, loading = two_slits_zero_loading()
    policy = CandidatePolicy(angles=(0.0,), ell0=0.05, length_max=0.05)
    state = run_evolution(
        dom, k0, loading, TimeGrid(1.0), policy, 1 / 8, 1 / 64,
        with_audit=False,
    )
    assert not any("budget exceeded" in e for e in state.events)
    assert state.candidates_evaluated == [16, 16]
    assert not any(state.grew)
    assert state.steps[-1].crack.fingerprint() == k0.fingerprint()


def test_jsonl_deterministic(benchmark_state):
    from quasicrack.cli import _run_from_config

    again = _run_from_config(growth_benchmark_config(delta=1.0 / 64.0))
    assert again.to_jsonl().encode() == benchmark_state.to_jsonl().encode()


def test_state_jsonl_schema(benchmark_state):
    line = benchmark_state.to_jsonl().splitlines()[0]
    rec = json.loads(line)
    assert set(rec) == {
        "step", "t", "bulk", "surface", "total", "power", "grew",
        "candidates", "tips",
    }
    assert rec["tips"][0]["tip"] == "0:finish"


def test_step_record_json_roundtrip(benchmark_state):
    for r in benchmark_state.steps:
        assert StepRecord.from_json(r.to_json(), r.crack).to_json() == r.to_json()


def test_lambda_diagnostic(benchmark_state):
    diag = benchmark_state.lambda_diagnostic
    assert diag["max_grad_norm"] > 0
    assert diag["max_surface"] >= length(taper_crack(0.7))


def test_balance_defect_monotone_decay_coarse_deltas():
    # one-sided balance defect decreases monotonically over coarse steps
    from quasicrack.cli import _run_from_config

    defects = []
    for dd in (8, 16, 32):
        st = _run_from_config(
            growth_benchmark_config(delta=1.0 / dd), with_audit=False
        )
        rep = audit_conditions(st, minimality_samples=0)
        defects.append(rep["energy_balance"]["one_sided_defect"])
    assert defects[0] > defects[1] > defects[2] > 0.0
