import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasicrack.cases import (
    GROWTH_AMP,
    GROWTH_C1,
    growth_benchmark_config,
    linear_datum,
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
    energy_balance,
    run_evolution,
)
from quasicrack.geometry import CrackSet, Polyline, contains, length
from quasicrack.mesh import triangulate

from oracles import (
    best_joint_extension,
    direct_energy_and_power,
    hat_weights_reference,
    profile_reference,
)
from verification import pointwise, unit_square

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
    with pytest.raises(ValueError):
        Profile("cubic", (1.0,))


def json_profiles():
    """The benchmark's profile and random ones of each JSON type, with
    negative rates, values and amplitudes, and square-root arguments that
    cross zero."""
    rng = np.random.default_rng(21)

    def u(lo, hi, n=None):
        return np.asarray(rng.uniform(lo, hi, n)).tolist()

    out = [{"type": "affine_sqrt", "amp": GROWTH_AMP, "c0": 1.0, "c1": GROWTH_C1}]
    for _ in range(12):
        ts = [0.0, *sorted(u(0.0, 1.0, int(rng.integers(0, 5)))), 1.0]
        out += [
            {"type": "linear", "rate": u(-3.0, 3.0)},
            {"type": "constant", "value": u(-3.0, 3.0)},
            {"type": "affine_sqrt", "amp": u(-2.0, 2.0), "c0": u(-0.5, 1.5), "c1": u(-2.0, 2.0)},
            {
                "type": "power_sqrt",
                "amp": u(-2.0, 2.0),
                "c0": u(-0.5, 1.5),
                "c1": u(-2.0, 2.0),
                "p": u(0.5, 4.0),
            },
            {"type": "pw_linear", "ts": ts, "values": u(-2.0, 2.0, len(ts))},
        ]
    return out


PROFILE_TIMES = sorted(
    {
        *np.linspace(0.0, 1.0, 257).tolist(),
        *(t for delta in (0.3, 1 / 16, 1 / 64) for t in TimeGrid(delta).times()),
    }
)


@pytest.mark.parametrize("cfg", json_profiles(), ids=lambda cfg: cfg["type"])
def test_profile_types_keep_their_closed_forms(cfg):
    # every JSON type is one of two closed forms, and gives the floats of
    # its own; sqrt forms give the same bits, and a pw_linear value moves
    # in its last bit at most (np.interp rounds another way)
    prof = Profile.from_json(cfg)
    assert prof.kind in ("power_sqrt", "pw_linear")
    kind = cfg["type"]
    params = tuple(
        tuple(v) if isinstance(v, list) else v for k, v in cfg.items() if k != "type"
    )
    value, derivative = profile_reference(kind, params)
    for t in PROFILE_TIMES:
        assert prof.derivative(t) == derivative(t)
        if kind == "pw_linear":
            assert prof.value(t) == pytest.approx(value(t), rel=1e-15, abs=1e-15)
        else:
            assert prof.value(t) == value(t)
        if kind.endswith("_sqrt"):
            assert repr((prof.value(t), prof.derivative(t))) == repr((value(t), derivative(t)))


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_sampled_coefficients_are_the_hat_weights(n):
    # bitwise, signs of zero included, at and between the sample times
    rng = np.random.default_rng(n)
    layouts = [[k / (n - 1) for k in range(n)]] + [
        [0.0, *np.sort(rng.uniform(0.0, 1.0, n - 2)).tolist(), 1.0] for _ in range(19)
    ]
    for ts in layouts:
        loading = LoadingProgram("sampled", samples=tuple((t, zero_datum()) for t in ts))
        for t in [*ts, *rng.uniform(0.0, 1.0, 25).tolist(), *TimeGrid(1 / 16).times()]:
            assert repr(loading.coeffs(t)) == repr(hat_weights_reference(ts, t))


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
    assert lengths[0] == pytest.approx(2 / 64)
    assert lengths[-1] == pytest.approx(40 / 64)
    assert len(lengths) == 20


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
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda Ks: ev.energies(Ks, 0.0))
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
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda Ks: ev.energies(Ks, 0.0))
    assert out.grew
    assert length(out.crack) > length(k0)


def test_tie_break_prefers_no_growth_then_short_then_straight():
    dom, k0, _ = taper_setup()
    policy = CandidatePolicy(
        angles=(-0.3, 0.0, 0.3), ell0=1 / 16, length_max=1 / 8, multi_segment=1
    )
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda Ks: [0.0] * len(Ks))
    assert not out.grew  # all-equal energies: smallest surface increment wins
    marked = _minimize_step(
        dom, k0, policy, 1 / 32,
        lambda Ks: [0.0 if length(K) > length(k0) else 1.0 for K in Ks],
    )
    assert marked.grew
    (key, ang, ell), = marked.extensions
    assert ell == pytest.approx(1 / 16)  # shortest ladder rung
    assert ang == 0.0  # straightest among equal-length candidates


def test_joint_search_matches_exhaustive_oracle(monkeypatch):
    # a centred slit under linear shear grows at both tips at t = 0.75 (phi
    # = 1.5): two tips with 7 moves each (none, 3 angles x 2 lengths) is
    # one joint round of 49 combinations
    dom = unit_square(dirichlet_arcs=((0, 1), (2, 3)))
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

    out = _minimize_step(dom, k0, policy, 1 / 32, lambda Ks: ev.energies(Ks, 0.75))
    assert out.n_candidates == 49 and not out.budget_exceeded
    assert sorted(key for key, _, _ in out.extensions) == [(0, "finish"), (0, "start")]
    built = []

    def counting_triangulate(*args):
        built.append(args[1])
        return triangulate(*args)

    monkeypatch.setattr("quasicrack.energy.triangulate", counting_triangulate)
    best, e_best = best_joint_extension(dom, k0, policy, 1 / 32, energy)
    assert built == []  # every crack the oracle scores, the search scored
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

    g = pointwise(ev_rot)
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
    out = _minimize_step(dom, k0, policy, 1 / 32, lambda Ks: evl.energies(Ks, 0.0))
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
    for step in state.steps:
        rec, crack = step.energy, step.crack
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
    for t, step in zip(state.grid.times(), state.steps):
        crack, rec = step.crack, step.energy
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
    from quasicrack.solver import scale_datum

    crack = CrackSet((Polyline(((0.2, 0.5), (0.2 + slit, 0.5))),), 1)
    n = len(amps)
    samples = tuple(
        (k / (n - 1), scale_datum(pointwise(BASIS_FUNCS[k]), a))
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
    cracks = [s.crack for s in state.steps]
    for a, b in zip(cracks, cracks[1:]):
        assert contains(b, a)
    surf = [r.surface for r in state.energies]
    assert all(y >= x for x, y in zip(surf, surf[1:]))
    assert sum(state.grew) > 0


@settings(max_examples=12)
@given(
    st.floats(0.35, 0.65),
    st.floats(0.35, 0.65),
    st.floats(0.0, math.pi),
    st.floats(2.0, 6.0),
    st.sampled_from([False, False, True]),
    st.sampled_from([1 / 2, 1 / 4]),
    st.sampled_from([(1 / 4, 1 / 16), (1 / 5, 1 / 20)]),
)
def test_short_runs_are_irreversible(x, y, angle, rate, zero, delta, sizes):
    # a slit in the unit square under a linear datum: each K_{i+1} contains
    # K_i exactly and the surface energy never falls; a zero datum keeps k0
    tip = (x + 0.2 * math.cos(angle), y + 0.2 * math.sin(angle))
    k0 = CrackSet((Polyline(((x, y), tip)),), 1)
    datum = zero_datum() if zero else linear_datum(0.3, 1.0)
    loading = LoadingProgram("proportional", datum=datum, profile=Profile("linear", (rate,)))
    h_tip = sizes[1]
    policy = CandidatePolicy(angles=(-0.5, 0.0, 0.5), ell0=2 * h_tip, length_max=4 * h_tip)
    state = run_evolution(
        unit_square(), k0, loading, TimeGrid(delta), policy, *sizes, with_audit=False
    )
    cracks = [k0] + [s.crack for s in state.steps]
    for a, b in zip(cracks, cracks[1:]):
        assert contains(b, a)
    surf = [r.surface for r in state.energies]
    assert all(b >= a for a, b in zip(surf, surf[1:]))
    if zero:
        assert all(crack == k0 for crack in cracks)


def test_audit_passes_on_benchmark(benchmark_state):
    audit = benchmark_state.audit
    assert audit["pass"]
    assert audit["irreversibility"]["pass"]
    assert audit["surface_monotone"]["pass"]
    assert audit["minimality"]["pass"]
    assert audit["stationarity"]["pass"]
    assert audit["family_relative"] is True


def test_irreversibility_audit_checks_the_initial_crack():
    # K_0 must contain K_{-1}: with the initial crack swapped for a longer
    # collinear one, every step still contains the step before it, and
    # only the step-0 check can fail
    from quasicrack.cli import _run_from_config

    state = _run_from_config(growth_benchmark_config(delta=1 / 4))
    assert state.audit["irreversibility"]["pass"]
    longer = taper_crack(length(state.steps[-1].crack) + 1 / 8)
    swapped = dataclasses.replace(state, initial_crack=longer)
    assert not audit_conditions(swapped)["irreversibility"]["pass"]


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
    crack = state.steps[3].crack
    assert ev.energy(crack, t) == ev.energy(crack, t)
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
        audit_monotone_loading(state, 10)


def two_slits_zero_loading():
    """Two slits with four interior tips, unloaded."""
    dom = unit_square(dirichlet_arcs=((0, 1), (2, 3)))
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


def test_audit_reports_energy_balance(benchmark_state):
    # the audit and `quasicrack sweep` read the balance from one function
    assert benchmark_state.audit["energy_balance"] == energy_balance(benchmark_state)


def test_balance_defect_monotone_decay_coarse_deltas():
    # one-sided balance defect decreases monotonically over coarse steps
    from quasicrack.cli import _run_from_config

    defects = []
    for dd in (8, 16, 32):
        st = _run_from_config(
            growth_benchmark_config(delta=1.0 / dd), with_audit=False
        )
        defects.append(energy_balance(st)["one_sided_defect"])
    assert defects[0] > defects[1] > defects[2] > 0.0


def test_taper_search_constructs_no_fraction(monkeypatch):
    # On this run every predicate of the candidate search is decided in
    # floats, and each candidate's union table is its base's plus one
    # segment. Counted here: 14,596 Fraction constructions in `geometry`
    # and `domain` before the tables were derived, 0 after. `domain` has no
    # `Fraction` of its own; patching it anyway counts one it gains. One
    # CPU keeps the mesher in this process, where the count sees it.
    from fractions import Fraction

    from quasicrack import cli, domain, energy, geometry

    monkeypatch.setattr(energy.os, "sched_getaffinity", lambda pid: {0})

    count = 0

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            nonlocal count
            count += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(geometry, "Fraction", Counting)
    monkeypatch.setattr(domain, "Fraction", Counting, raising=False)
    dom, k0, loading, grid, policy, h_max, h_tip = cli.load_config(
        growth_benchmark_config(delta=1.0 / 16.0, refine=1)
    )
    state = run_evolution(dom, k0, loading, grid, policy, h_max, h_tip, with_audit=False)
    assert sum(rec.grew for rec in state.steps) == 8
    assert state.steps[-1].energy.total == 3.0027029029934864
    assert count < 100
