"""Time-discretized irreversible quasi-static crack evolution.

At every step the crack minimizes total energy over a finite candidate
family of tip extensions containing the previous crack (the no-growth
candidate is always present), so irreversibility and monotone surface
energy hold by construction. One search (`_minimize_step`) serves the run
and both re-minimizing audits: it scores the unextended crack and then
every candidate by (energy, added length, max |angle|, order). With two or
more active tips and at most JOINT_BUDGET combinations it makes one round
of joint moves (at most one ladder segment per tip); otherwise it chains
single-tip moves, up to `multi_segment` per tip, while they strictly lower
the energy. Audits re-verify per-step minimality, the discrete energy
balance, stationarity at frozen datum, and the proportional-loading
comparison inequality.

Energies come from one `energy.Evaluator` per state, over the loading's
basis (`_evaluator_of`); the run, the audits and `cli.replay_state` share it.
Each search round is one `Evaluator.energies` call, made inside the
`Evaluator.helpers()` block of the run or of `audit_conditions`; a search
reads energies alone, and a step's displacement comes from `Evaluator.record`.
Each step is one `StepRecord`, the only writer and reader of the per-step
JSON format. The state keeps no displacement fields; `EvolutionState.field`
re-solves one on request, bitwise equal to the run's.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .domain import DomainSpec, reject_unknown_keys
from .geometry import (
    CrackSet,
    GeometryViolation,
    Tip,
    contains,
    extend_tip,
    json_number,
    length,
    tips_on_boundary,
)
from .mesh import MeshFailure
from .sif import (
    AnnulusUnresolved,
    TipGeometryInvalid,
    fit_sif,
    safe_fit_window,
)
from .solver import BoundaryDatum, ScalarField
from .energy import EnergyRecord, Evaluator

KINK_REPORT_RAD = math.radians(10.0)
JOINT_BUDGET = 4096  # most tip-move combinations searched jointly in one round
MONOTONE_TOL = 1e-6  # comparison-inequality slack, relative to the final total energy
MINIMALITY_SAMPLES = 4  # steps re-minimized by the minimality audit, first and last among them


class NotProportional(Exception):
    """Audit requires a proportional nondecreasing loading program."""


# ---------------------------------------------------------------------------
# loading programs
# ---------------------------------------------------------------------------

# a profile's JSON keys but "type", in `Profile.params` order
_PROFILE_PARAMS = {
    "linear": ("rate",),
    "affine_sqrt": ("amp", "c0", "c1"),
    "power_sqrt": ("amp", "c0", "c1", "p"),
    "constant": ("value",),
    "pw_linear": ("ts", "values"),
}

# the JSON profile types that are special cases of the two closed forms
_SPECIAL_CASES = {
    "affine_sqrt": lambda amp, c0, c1: ("power_sqrt", (amp, c0, c1, 1.0)),
    "constant": lambda v: ("power_sqrt", (v, 1.0, 0.0, 1.0)),
    "linear": lambda rate: ("pw_linear", ((0.0, 1.0), (0.0, rate))),
}


def _knot_interval(ts, t: float) -> int:
    """Index k of the knot interval [ts[k], ts[k+1]] that holds t: the right
    one at an inner knot, the first or last one outside [ts[0], ts[-1]]."""
    return min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)


def _check_knots(ts, what: str) -> None:
    """Raise ValueError unless the times ts increase strictly from 0 to 1."""
    if not ts or ts[0] != 0.0 or ts[-1] != 1.0:
        raise ValueError(f"{what} must cover t=0 and t=1")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"{what} must be strictly increasing")


@dataclass(frozen=True)
class Profile:
    """Scalar load factor phi(t) on [0,1], absolutely continuous, in one of two
    closed forms: `power_sqrt` (amp, c0, c1, p) is amp sqrt(max(c0 + c1 t^p, 0)),
    and `pw_linear` (ts, values) is v_k (1 - w) + v_{k+1} w on [t_k, t_{k+1}],
    w = (t - t_k) / (t_{k+1} - t_k). The constructor maps the other JSON types
    onto them, with the floats of their own closed forms (`_SPECIAL_CASES`).
    """

    kind: str  # "power_sqrt" | "pw_linear"
    params: tuple = ()

    def __post_init__(self):
        if self.kind in _SPECIAL_CASES:
            kind, params = _SPECIAL_CASES[self.kind](*self.params)
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "params", params)
        elif self.kind not in ("power_sqrt", "pw_linear"):
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def value(self, t: float) -> float:
        if self.kind == "power_sqrt":
            amp, c0, c1, p = self.params
            return amp * math.sqrt(max(c0 + c1 * t**p, 0.0))
        ts, vs = self.params
        k = _knot_interval(ts, t)
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return vs[k] * (1.0 - w) + vs[k + 1] * w

    def derivative(self, t: float) -> float:
        if self.kind == "power_sqrt":
            amp, c0, c1, p = self.params
            base = max(c0 + c1 * t**p, 1e-300)
            tp = t ** (p - 1.0) if t > 0.0 else (1.0 if p == 1.0 else 0.0)
            return amp * 0.5 * c1 * p * tp / math.sqrt(base)
        ts, vs = self.params
        k = _knot_interval(ts, t)
        return (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])

    def nondecreasing_on(self, times) -> bool:
        vals = [self.value(t) for t in times]
        return all(b >= a for a, b in zip(vals, vals[1:])) and all(
            v >= 0.0 for v in vals
        )

    @classmethod
    def from_json(cls, cfg: dict) -> "Profile":
        kind = cfg["type"]
        if kind not in _PROFILE_PARAMS:
            raise ValueError(f"unknown profile type {kind!r}")
        reject_unknown_keys(cfg, ("type", *_PROFILE_PARAMS[kind]), f"{kind} profile")
        if kind == "pw_linear":
            ts, vs = (
                tuple(float(json_number(v, f"pw_linear {key}")) for v in cfg[key])
                for key in ("ts", "values")
            )
            _check_knots(ts, "pw_linear knots")
            if len(vs) != len(ts):
                raise ValueError("pw_linear needs one value per knot")
            return cls("pw_linear", (ts, vs))
        cfg = {"rate": 1.0, **cfg}  # a linear profile's rate defaults to 1
        return cls(kind, tuple(
            float(json_number(cfg[name], f"{kind} profile {name}")) for name in _PROFILE_PARAMS[kind]
        ))


@dataclass(frozen=True)
class LoadingProgram:
    """Boundary displacement history g(t) = sum_j c_j(t) g_j on [0, 1].

    Each basis datum has a profile c_j: proportional loading has `datum` with
    `profile`; sampled loading has one datum g_j per sample (t_j, g_j), whose
    profile is its hat: the `pw_linear` over the sample times, 1 at t_j.
    """

    mode: str  # "proportional" | "sampled"
    datum: BoundaryDatum | None = None  # fixed profile h (proportional)
    profile: Profile | None = None
    samples: tuple[tuple[float, BoundaryDatum], ...] = ()
    # the JSON it was read from (`cli.load_config`); None when built in Python
    config: dict | None = field(default=None, compare=False, repr=False)
    _profiles: tuple[Profile, ...] = field(init=False, compare=False, repr=False)  # the c_j

    def __post_init__(self):
        if self.mode == "proportional":
            if self.datum is None or self.profile is None:
                raise ValueError("proportional loading needs datum and profile")
            profiles = (self.profile,)
        elif self.mode == "sampled":
            ts = tuple(t for t, _ in self.samples)
            _check_knots(ts, "sample times")
            hats = np.eye(len(ts))  # row j: 1 at t_j, 0 at the other sample times
            profiles = tuple(Profile("pw_linear", (ts, tuple(map(float, h)))) for h in hats)
        else:
            raise ValueError(f"unknown loading mode {self.mode!r}")
        object.__setattr__(self, "_profiles", profiles)

    def basis(self) -> tuple[BoundaryDatum, ...]:
        """Basis data g_1..g_S with g(t) = sum_j c_j(t) g_j."""
        if self.mode == "proportional":
            return (self.datum,)
        return tuple(g for _, g in self.samples)

    def coeffs(self, t: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(c(t), c'(t)) over `basis()`: each datum's profile and its derivative at t."""
        profiles = self._profiles
        return tuple([p.value(t) for p in profiles]), tuple([p.derivative(t) for p in profiles])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * delta, i = 0..N with N the largest N*delta <= 1."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.n_steps < 1:
            raise ValueError(f"delta {self.delta} > 1 leaves the time grid without a step")

    @property
    def n_steps(self) -> int:
        return int(math.floor(1.0 / self.delta + 1e-12))

    def times(self) -> list[float]:
        return [i * self.delta for i in range(self.n_steps + 1)]


@dataclass(frozen=True)
class CandidatePolicy:
    """Finite family of per-step tip extensions (the computable surrogate
    for minimizing over every admissible crack containing the previous one).

    One segment is an angle from `angles` (relative to the tip direction,
    kinks bounded by `theta_max`) times a length from the ladder
    `step_lengths`. A step chains up to `multi_segment` segments per tip,
    one tip at a time, or, with several tips and at most JOINT_BUDGET
    combinations, makes one joint round of at most one segment per tip.
    """

    angles: tuple[float, ...] = tuple(math.radians(80.0) * k / 8 for k in range(-8, 9))
    theta_max: float = math.radians(80.0)
    ell0: float | None = None  # defaults to 2 * h_tip when resolved
    length_max: float | None = None  # defaults to 20 * ell0
    multi_segment: int = 3

    def __post_init__(self):
        ang = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "angles", ang)
        if len(ang) % 2 != 1:
            raise ValueError("angle count must be odd")
        neg = tuple(sorted(-a for a in ang if a < 0.0))
        pos = tuple(sorted(a for a in ang if a > 0.0))
        if neg != pos or 0.0 not in ang:
            raise ValueError("angles must be symmetric about 0 and include 0")
        if max(abs(a) for a in ang) > self.theta_max + 1e-12:
            raise ValueError("angles exceed theta_max")
        if self.multi_segment < 1:
            raise ValueError("multi_segment must be >= 1")
        for name in ("ell0", "length_max"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

    def step_lengths(self, h_tip: float) -> tuple[float, ...]:
        """The ladder's rungs ell0, 2 ell0, ..., up to length_max; a rung
        shorter than h_tip (with the mesher's slack) could never be meshed,
        and a ladder without a rung could never grow, so either raises
        ValueError."""
        ell0 = self.ell0 if self.ell0 is not None else 2.0 * h_tip
        if ell0 < h_tip * (1.0 - 1e-9):
            raise ValueError(f"ell0 must not be shorter than h_tip, got {ell0=}, {h_tip=}")
        lmax = self.length_max if self.length_max is not None else 20.0 * ell0
        n = int(math.floor(lmax / ell0 + 1e-9))
        if n < 1:
            raise ValueError(f"length_max must not be shorter than ell0, got {lmax=}, {ell0=}")
        return tuple(k * ell0 for k in range(1, n + 1))

    def to_json(self) -> dict:
        return {
            "angles": list(self.angles),
            "theta_max": self.theta_max,
            "ell0": self.ell0,
            "length_max": self.length_max,
            "multi_segment": self.multi_segment,
        }

    @classmethod
    def from_json(cls, cfg: dict) -> "CandidatePolicy":
        # older state files carry the retired search switches at their
        # defaults, which the search now always follows; any other value
        # is a different search and stays an unknown keyword
        retired = (("budget", int, 4096), ("allow_all_tips", bool, True))
        reject_unknown_keys(cfg, [f.name for f in fields(cls)] + [k for k, _, _ in retired], "policy")
        kw = {k: v for k, v in cfg.items() if (k, type(v), v) not in retired}
        for name in ("theta_max", "ell0", "length_max", "multi_segment"):
            if kw.get(name) is not None:
                json_number(kw[name], f"policy {name}", integer=name == "multi_segment")
        if "angles" in kw:
            if not isinstance(kw["angles"], list):
                raise ValueError(f"policy angles must be a list, got {kw['angles']!r}")
            kw["angles"] = tuple(json_number(a, "policy angle") for a in kw["angles"])
        return cls(**kw)


# ---------------------------------------------------------------------------
# evolution state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    """One time step t_i: the crack K_i, its energy and its per-tip history.

    `tips` maps every tip active in K_{-1} to (sigma, kappa, fit_residual):
    the length added at that tip so far, and the fitted SIF and the fit's
    residual (None when no fit was made). `kinked` marks a winner with a
    kink above KINK_REPORT_RAD; only the run knows it, it is not saved.
    """

    step: int
    crack: CrackSet
    energy: EnergyRecord
    grew: bool
    candidates: int
    tips: dict  # (component_id, end) -> (sigma, kappa, fit_residual)
    kinked: bool = False

    def to_json(self) -> dict:
        tips = [
            {
                "tip": f"{comp}:{end}",
                "sigma": sigma,
                "kappa": kappa,
                "release_rate": None if kappa is None else 1.0 - kappa * kappa,
                "fit_residual": resid,
            }
            for (comp, end), (sigma, kappa, resid) in sorted(self.tips.items())
        ]
        return {
            "step": self.step,
            **self.energy.to_json(),
            "grew": self.grew,
            "candidates": self.candidates,
            "tips": tips,
        }

    @classmethod
    def from_json(cls, rec: dict, crack: CrackSet) -> "StepRecord":
        tips = {}
        for tip in rec.get("tips", []):
            comp, end = tip["tip"].split(":")
            tips[int(comp), end] = (tip["sigma"], tip.get("kappa"), tip.get("fit_residual"))
        return cls(
            step=int(rec["step"]),
            crack=crack,
            energy=EnergyRecord(rec["t"], rec["bulk"], rec["surface"], rec["power"]),
            grew=bool(rec["grew"]),
            candidates=int(rec.get("candidates", 0)),
            tips=tips,
        )


@dataclass
class EvolutionState:
    domain: DomainSpec
    grid: TimeGrid
    policy: CandidatePolicy
    loading: LoadingProgram
    h_max: float
    h_tip: float
    initial_crack: CrackSet  # K_{-1}, before the step-0 minimization
    steps: list[StepRecord] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    audit: dict | None = None
    # the run's memoized evaluator, reused by the audits; never serialized
    evaluator: Evaluator | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.initial_crack.m

    @property
    def energies(self) -> list[EnergyRecord]:
        return [s.energy for s in self.steps]

    @property
    def grew(self) -> list[bool]:
        return [s.grew for s in self.steps]

    @property
    def candidates_evaluated(self) -> list[int]:
        return [s.candidates for s in self.steps]

    def field(self, i: int) -> ScalarField:
        """The minimizing displacement u_i, re-solved (bitwise equal to the run's)."""
        step = self.steps[i]
        return _evaluator_of(self).record(step.crack, step.energy.time)[1]

    # ---- serialization ----

    def to_jsonl(self) -> str:
        lines = [json.dumps(s.to_json(), sort_keys=True) for s in self.steps]
        return "\n".join(lines) + "\n"

    def snapshots_json(self) -> dict:
        return {
            "steps": [
                {"step": s.step, "t": s.energy.time, "components": s.crack.to_json()}
                for s in self.steps
            ]
        }

    def config_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "initial_crack": self.initial_crack.to_json(),
            "m": self.m,
            "delta": self.grid.delta,
            "mesh": {"h_max": self.h_max, "h_tip": self.h_tip},
            "policy": self.policy.to_json(),
            "loading": self.loading.config,
        }

    def save(self, path: str) -> None:
        payload = {
            "config": self.config_json(),
            "steps": [s.to_json() for s in self.steps],
            "snapshots": self.snapshots_json(),
            "events": self.events,
            "audit": self.audit,
        }
        with open(path, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=1)


def _evaluator_of(state: EvolutionState) -> Evaluator:
    """The state's evaluator, built over its loading basis on first use and kept."""
    if state.evaluator is None:
        loading = state.loading
        state.evaluator = Evaluator(
            state.domain, loading.basis(), loading.coeffs, state.h_max, state.h_tip
        )
    return state.evaluator


# ---------------------------------------------------------------------------
# candidate enumeration and the per-step minimization
# ---------------------------------------------------------------------------


def _active_tips(domain: DomainSpec, crack: CrackSet) -> list[Tip]:
    tips = [t for t, on in tips_on_boundary(crack, domain) if not on]
    return sorted(tips, key=lambda t: (t.component_id, t.end))


def _tip_candidates(domain, crack, tip, policy, h_tip):
    """Single-segment extensions of one tip: (candidate, angle, added_length)."""
    out = []
    for ell in policy.step_lengths(h_tip):
        for ang in policy.angles:
            try:
                cand = extend_tip(crack, tip, ang, ell, domain=domain)
            except GeometryViolation:
                continue
            out.append((cand, ang, ell))
    return out


@dataclass
class _StepOutcome:
    crack: CrackSet
    grew: bool
    extensions: list  # (tip_key, angle, added_length)
    n_candidates: int
    budget_exceeded: bool


def _moves(domain, base, tips, policy, h_tip, joint):
    """Candidate moves from `base`: (crack, [(tip_key, angle, added_length), ...]).

    Single-tip moves, tip by tip, or (joint) every combination of at most
    one segment per tip in `itertools.product` order, the empty one left
    out; a combination's first move is the crack `_tip_candidates` built,
    and its later moves extend that crack at their own tips, which
    extending another tip leaves as they were.
    """
    options = [
        [(tip, *c) for c in _tip_candidates(domain, base, tip, policy, h_tip)]
        for tip in tips
    ]
    combos = (
        itertools.product(*([None, *moves] for moves in options))
        if joint
        else ((m,) for moves in options for m in moves)
    )
    for combo in combos:
        moves = [m for m in combo if m is not None]
        if not moves:
            continue
        (tip, crack, ang, ell), *later = moves
        exts = [((tip.component_id, tip.end), ang, ell)]
        try:
            for tip, _, ang, ell in later:
                crack = extend_tip(crack, tip, ang, ell, domain=domain)
                exts.append(((tip.component_id, tip.end), ang, ell))
        except GeometryViolation:
            continue
        yield crack, exts


def _best(base, candidates, energy_fn):
    """((crack, extensions), evaluated count) of the lowest-scored candidate.

    `energy_fn` scores the whole round in one call, the unextended crack
    first; a candidate scores (energy, added length, max |angle|, order),
    and one whose mesh fails (energy None) is dropped.
    """
    e_base, *energies = energy_fn([base, *(cand for cand, _ in candidates)])
    if e_base is None:
        raise MeshFailure("the unextended crack does not mesh")
    best_key, best = (e_base, 0.0, 0.0, 0), (base, [])
    n_eval = 1
    for order, ((cand, exts), e) in enumerate(zip(candidates, energies), 1):
        if e is None:
            continue
        n_eval += 1
        key = (e, length(cand) - length(base), max(abs(a) for _, a, _ in exts), order)
        if key < best_key:
            best_key, best = key, (cand, exts)
    return best, n_eval


def _minimize_step(domain, base, policy, h_tip, energy_fn) -> _StepOutcome:
    """One time step's search from `base`: joint moves when several tips
    fit JOINT_BUDGET (one round), else single-tip moves chained while they
    strictly lower the energy, up to `multi_segment` per tip."""
    tips = _active_tips(domain, base)
    per_tip = len(policy.step_lengths(h_tip)) * len(policy.angles) + 1
    several = len(tips) > 1
    joint = several and per_tip ** len(tips) <= JOINT_BUDGET
    current, extensions, n_eval = base, [], 0
    segments = collections.Counter()
    while True:
        work_tips = [
            t
            for t in _active_tips(domain, current)
            if segments[t.component_id, t.end] < policy.multi_segment
        ]
        if not work_tips:
            break
        (current, exts), n = _best(
            current, list(_moves(domain, current, work_tips, policy, h_tip, joint)), energy_fn
        )
        n_eval += n
        extensions += exts
        segments.update(key for key, _, _ in exts)
        if joint or not exts:
            break
    return _StepOutcome(
        crack=current,
        grew=bool(extensions),
        extensions=extensions,
        n_candidates=n_eval,
        budget_exceeded=several and not joint,
    )


# ---------------------------------------------------------------------------
# the full run
# ---------------------------------------------------------------------------


def run_evolution(
    domain: DomainSpec,
    k0: CrackSet,
    loading: LoadingProgram,
    grid: TimeGrid,
    policy: CandidatePolicy,
    h_max: float,
    h_tip: float,
    *,
    with_audit: bool = True,
) -> EvolutionState:
    """Run the discrete evolution over the whole time grid.

    Step 0 minimizes at g(0) with the constraint K contains k0; under a
    zero initial datum this returns k0 itself.
    """
    state = EvolutionState(
        domain=domain,
        grid=grid,
        policy=policy,
        loading=loading,
        h_max=h_max,
        h_tip=h_tip,
        initial_crack=k0,
    )
    ev = _evaluator_of(state)
    ev.energy(k0, grid.times()[0])  # an unmeshable k0 raises its MeshFailure here
    current = k0
    sigma = {(t.component_id, t.end): 0.0 for t in _active_tips(domain, k0)}

    with ev.helpers():
        for i, t in enumerate(grid.times()):
            out = _minimize_step(domain, current, policy, h_tip, lambda Ks: ev.energies(Ks, t))
            if out.budget_exceeded:
                state.events.append(f"step {i}: budget exceeded, greedy decomposition")
            current = out.crack
            for key, _, ell in out.extensions:
                sigma[key] = sigma.get(key, 0.0) + ell

            rec, u = ev.record(current, t)
            fits: dict = {}
            for tip in _active_tips(domain, current):
                try:
                    r1, r2 = safe_fit_window(domain, current, tip, h_tip)
                    est = fit_sif(u, tip, r1, r2)
                    fits[(tip.component_id, tip.end)] = (est.kappa, est.fit_residual)
                except (AnnulusUnresolved, TipGeometryInvalid) as e:
                    state.events.append(f"step {i}: sif skipped ({e})")
            state.steps.append(
                StepRecord(
                    step=i,
                    crack=current,
                    energy=rec,
                    grew=out.grew,
                    candidates=out.n_candidates,
                    tips={k: (s, *fits.get(k, (None, None))) for k, s in sigma.items()},
                    kinked=any(abs(ang) > KINK_REPORT_RAD for _, ang, _ in out.extensions),
                )
            )

    if with_audit:
        state.audit = audit_conditions(state)
    return state


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def _reminimized(state, ev, base, crack, t) -> tuple[float, float]:
    """(E(crack), E(best)) at frozen g(t), best re-minimized from `base`."""
    out = _minimize_step(
        state.domain, base, state.policy, state.h_tip, lambda Ks: ev.energies(Ks, t)
    )
    return ev.energy(crack, t), ev.energy(out.crack, t)


def energy_balance(state: EvolutionState) -> dict:
    """(d)+(f): the discrete energy balance of a run.

    `max_pair_residual` is the spread of E(t_i) minus the trapezoid
    integral of the sampled power; `one_sided_defect` is the largest
    violation of the one-sided balance inequality, with the power
    integrated against the piecewise-constant-in-time solution; `scale`
    is the largest |E(t_i)|.
    """
    times = state.grid.times()
    n = len(times)
    cracks = [s.crack for s in state.steps]
    energies = state.energies
    powers = [r.power for r in energies]
    totals = [r.total for r in energies]
    F = [0.0]
    for i in range(1, n):
        F.append(
            F[-1] + 0.5 * (powers[i - 1] + powers[i]) * (times[i] - times[i - 1])
        )
    drift = [totals[i] - F[i] for i in range(n)]

    # the exact per-interval term is 2 (grad u(t_i) | grad(u(t_{i+1}) - u(t_i))),
    # both solved on K_i, whose quadratic remainder is the first-order term
    # that must decay
    ev = _evaluator_of(state)
    Fl = [0.0]
    for i in range(1, n):
        Fl.append(
            Fl[-1] + ev.balance_increment(cracks[i - 1], times[i - 1], times[i])
        )
    drift_l = [totals[i] - Fl[i] for i in range(n)]
    return {
        "max_pair_residual": max(drift) - min(drift),
        "one_sided_defect": max(drift_l[j] - drift_l[i] for i in range(n) for j in range(i, n)),
        "scale": max(abs(t) for t in totals),
    }


def audit_conditions(state: EvolutionState) -> dict:
    """Numerical audit of the evolution's defining conditions.

    Reports (never raises): (a) irreversibility, (b)/(c) minimality over
    the candidate family at MINIMALITY_SAMPLES spread steps, (d)+(f) the
    `energy_balance`, and (e) stationarity at frozen datum after growth
    steps. Minimality is certified relative to the candidate family only.
    """
    times = state.grid.times()
    n = len(times)
    report: dict = {"family_relative": True}
    cracks = [s.crack for s in state.steps]
    ev = _evaluator_of(state)

    ok_contain = contains(cracks[0], state.initial_crack) and all(
        contains(cracks[i + 1], cracks[i]) for i in range(n - 1)
    )
    report["irreversibility"] = {"pass": bool(ok_contain)}

    surf = [r.surface for r in state.energies]
    report["surface_monotone"] = {
        "pass": all(b >= a for a, b in zip(surf, surf[1:]))
    }
    report["energy_balance"] = energy_balance(state)

    with ev.helpers():
        # (b)/(c): sampled re-minimization at the recorded data
        picks = np.linspace(0, n - 1, min(MINIMALITY_SAMPLES, n)).round()
        checked = sorted({0, n - 1, *map(int, picks)})
        min_ok = True
        min_rows = []
        for i in checked:
            base = cracks[i - 1] if i > 0 else state.initial_crack
            e_chosen, e_best = _reminimized(state, ev, base, cracks[i], times[i])
            gap = e_chosen - e_best
            tol = 1e-9 * max(1.0, abs(e_best))
            min_rows.append({"step": i, "gap": gap})
            if gap > tol:
                min_ok = False
        report["minimality"] = {"pass": min_ok, "rows": min_rows}

        # (e): after growth, re-minimizing from K_i at frozen g_i gains nothing
        stat_ok = True
        stat_rows = []
        for i in range(n):
            if not state.steps[i].grew:
                continue
            e_here, e_best = _reminimized(state, ev, cracks[i], cracks[i], times[i])
            gain = e_here - e_best
            tol = 1e-6 * abs(e_here)
            stat_rows.append({"step": i, "gain": gain, "tol": tol})
            if gain > tol:
                stat_ok = False
    report["stationarity"] = {"pass": stat_ok, "rows": stat_rows}
    report["pass"] = bool(
        ok_contain
        and report["surface_monotone"]["pass"]
        and min_ok
        and stat_ok
    )
    return report


def audit_monotone_loading(state: EvolutionState, n_pairs: int, seed: int = 0) -> list[dict]:
    """Pairwise check E(g(t), K(t)) <= E(g(t), K(s)) for s < t.

    Valid for proportional loading with nondecreasing nonnegative profile.
    """
    if state.loading.mode != "proportional":
        raise NotProportional("loading is not proportional")
    times = state.grid.times()
    if not state.loading.profile.nondecreasing_on(times):
        raise NotProportional("profile is not nondecreasing and nonnegative")
    ev = _evaluator_of(state)
    rng = np.random.default_rng(seed)
    n = len(times)
    tol = MONOTONE_TOL * abs(state.steps[-1].energy.total)
    rows = []
    for _ in range(n_pairs):
        s_i, t_i = sorted(rng.choice(n, size=2, replace=False))
        lhs = ev.energy(state.steps[t_i].crack, times[t_i])
        rhs = ev.energy(state.steps[s_i].crack, times[t_i])
        rows.append(
            {
                "s": times[s_i],
                "t": times[t_i],
                "E_t_Kt": lhs,
                "E_t_Ks": rhs,
                "pass": bool(lhs <= rhs + tol),
            }
        )
    return rows
