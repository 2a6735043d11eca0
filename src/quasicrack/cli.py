"""Command line entry points: run, audit, sweep, oracle.

Exit status is nonzero for configuration errors only: a bad file, flag,
key or value, or a crack that the mesher rejects (an initial crack, or a
crack in a saved state). Each raises `ConfigError` or `MeshFailure`, and
`main` turns either into exit 2 with `config error: ...` on stderr. Audit
or oracle failures are reported on stdout and exit 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .cases import (
    datum_from_config,
    growth_benchmark_config,
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
)
from .domain import DomainError, DomainSpec, reject_unknown_keys
from .geometry import CrackSet, GeometryViolation, crack_tips, json_number
from .evolution import (
    CandidatePolicy,
    EvolutionState,
    LoadingProgram,
    NotProportional,
    Profile,
    StepRecord,
    TimeGrid,
    _evaluator_of,
    audit_conditions,
    audit_monotone_loading,
    energy_balance,
    run_evolution,
)
from .mesh import MeshFailure

#: the exceptions of a bad input, which `_config_errors` re-raises as ConfigError
_BAD_INPUT = (
    OSError, KeyError, TypeError, ValueError, ZeroDivisionError, DomainError, GeometryViolation
)
_RUN_KEYS = ("domain", "initial_crack", "m", "delta", "mesh", "policy", "loading", "audit", "output")
#: comparison-inequality pairs of `quasicrack audit`, and of a run config that sets none
_MONOTONE_PAIRS = 10


class ConfigError(Exception):
    pass


@contextmanager
def _config_errors():
    """Re-raise the exception of a bad input as a ConfigError."""
    try:
        yield
    except _BAD_INPUT as e:
        raise ConfigError(str(e)) from e


def _read_json(path: str) -> dict:
    """The JSON object that a config or state file holds."""
    with _config_errors():
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"{path} does not hold a JSON object")
    return data


def _run_options(cfg: dict) -> tuple[bool, int, str]:
    """(audit enabled, monotone pairs, fields_dir) of a run config, whose
    top-level keys and `audit` and `output` sections are checked first."""
    with _config_errors():
        reject_unknown_keys(cfg, _RUN_KEYS, "config")
        audit, output = cfg.get("audit", {}), cfg.get("output", {})
        reject_unknown_keys(audit, ("enabled", "monotone_pairs"), "audit")
        reject_unknown_keys(output, ("fields_dir",), "output")
        enabled = audit.get("enabled", True)
        pairs = audit.get("monotone_pairs", _MONOTONE_PAIRS)
        fields_dir = output.get("fields_dir", "")
        if not isinstance(enabled, bool):
            raise ValueError(f"audit enabled must be a boolean, got {enabled!r}")
        if type(pairs) is not int or pairs < 0:
            raise ValueError(f"audit monotone_pairs must be an integer >= 0, got {pairs!r}")
        if not isinstance(fields_dir, str):
            raise ValueError(f"output fields_dir must be a string, got {fields_dir!r}")
    return enabled, pairs, fields_dir


def load_config(cfg: dict):
    """(domain, initial crack, loading, grid, policy, h_max, h_tip) of a run
    config, once every section of it is checked; raises ConfigError."""
    with _config_errors():
        _run_options(cfg)
        domain = DomainSpec.from_json(cfg["domain"])
        m = json_number(cfg.get("m", max(1, len(cfg["initial_crack"]))), "m", integer=True)
        crack = CrackSet.from_json(cfg["initial_crack"], m)
        mesh = cfg["mesh"]
        reject_unknown_keys(mesh, ("h_max", "h_tip"), "mesh")
        h_max, h_tip = (float(json_number(mesh[k], f"mesh {k}")) for k in ("h_max", "h_tip"))
        if not 0.0 < h_tip <= h_max:
            raise ValueError(f"mesh sizes need 0 < h_tip <= h_max, got {h_tip=}, {h_max=}")
        policy = CandidatePolicy.from_json(cfg.get("policy", {}))
        policy.step_lengths(h_tip)
        grid = TimeGrid(float(json_number(cfg["delta"], "delta")))
        lcfg = cfg["loading"]
        if lcfg is None:
            raise ValueError("the loading was built in Python and has no JSON form")
        if lcfg["mode"] == "proportional":
            reject_unknown_keys(lcfg, ("mode", "datum", "profile"), "proportional loading")
            loading = LoadingProgram(
                "proportional",
                datum=datum_from_config(lcfg["datum"]),
                profile=Profile.from_json(lcfg["profile"]),
                config=lcfg,
            )
        elif lcfg["mode"] == "sampled":
            reject_unknown_keys(lcfg, ("mode", "samples"), "sampled loading")
            for s in lcfg["samples"]:
                reject_unknown_keys(s, ("t", "datum"), "sample")
            samples = tuple(
                (float(json_number(s["t"], "sample t")), datum_from_config(s["datum"]))
                for s in lcfg["samples"]
            )
            loading = LoadingProgram("sampled", samples=samples, config=lcfg)
        else:
            raise KeyError(f"unknown loading mode {lcfg['mode']!r}")
    return domain, crack, loading, grid, policy, h_max, h_tip


def _run_from_config(cfg: dict, with_audit: bool = True) -> EvolutionState:
    domain, crack, loading, grid, policy, h_max, h_tip = load_config(cfg)
    return run_evolution(
        domain, crack, loading, grid, policy, h_max, h_tip, with_audit=with_audit
    )


def _add_monotone_loading(report: dict, state: EvolutionState, pairs: int) -> None:
    """Add `pairs` rows of the comparison inequality to `report`, where the
    loading is proportional and nondecreasing."""
    try:
        report["monotone_loading"] = audit_monotone_loading(state, pairs)
    except NotProportional:
        pass


def cmd_run(args) -> int:
    cfg = _read_json(args.config)
    with_audit, pairs, fields_dir = _run_options(cfg)
    state = _run_from_config(cfg, with_audit=with_audit)
    outdir = Path(args.output_dir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    jsonl_path = outdir / "evolution.jsonl"
    jsonl_path.write_text(state.to_jsonl())
    if fields_dir:
        fdir = outdir / fields_dir
        fdir.mkdir(parents=True, exist_ok=True)
        for i in range(len(state.steps)):
            (fdir / f"step_{i:04d}.csv").write_text(state.field(i).to_csv())
    (outdir / "cracks.json").write_text(json.dumps(state.snapshots_json(), sort_keys=True, indent=1))
    if state.audit is not None:
        _add_monotone_loading(state.audit, state, pairs)
        (outdir / "audit.json").write_text(json.dumps(state.audit, sort_keys=True, indent=1))
    state.save(str(outdir / "state.json"))
    last = state.energies[-1]
    grew = sum(state.grew)
    print(
        f"run complete: {len(state.energies)} steps, {grew} growth steps, "
        f"final energy {last.total:.6f} (bulk {last.bulk:.6f} + surface {last.surface:.6f})"
    )
    if state.audit is not None:
        print(f"audit pass: {state.audit['pass']}")
    print(f"wrote {jsonl_path}")
    return 0


def replay_state(path: str) -> EvolutionState:
    """Rebuild a saved state, with every step's energy re-solved.

    Everything else is restored as saved, so saving the result writes the
    same bytes, less the `lambda_diagnostic` key that older state files
    carry and that is ignored; fields are re-solved on request
    (`EvolutionState.field`).
    """
    payload = _read_json(path)
    with _config_errors():
        domain, k_init, loading, grid, policy, h_max, h_tip = load_config(payload["config"])
        state = EvolutionState(
            domain, grid, policy, loading, h_max, h_tip, k_init,
            events=payload.get("events", []),
            audit=payload.get("audit"),
        )
        times = grid.times()
        snaps, recs = payload["snapshots"]["steps"], payload["steps"]
        if not len(times) == len(snaps) == len(recs):
            raise ValueError("state file steps do not match the time grid")
        steps = [
            StepRecord.from_json(rec, CrackSet.from_json(snap["components"], k_init.m))
            for snap, rec in zip(snaps, recs)
        ]
    ev = _evaluator_of(state)
    for t, step in zip(times, steps):
        energy, _ = ev.record(step.crack, t)
        state.steps.append(replace(step, energy=energy))
    return state


def cmd_audit(args) -> int:
    state = replay_state(args.state)
    report = audit_conditions(state)
    _add_monotone_loading(report, state, _MONOTONE_PAIRS)
    text = json.dumps(report, sort_keys=True, indent=1)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    print(f"audit pass: {report['pass']}")
    print(f"energy balance residual: {report['energy_balance']['max_pair_residual']:.3e}")
    print(f"one-sided defect: {report['energy_balance']['one_sided_defect']:.3e}")
    return 0


def _parse_delta(text: str) -> float:
    with _config_errors():
        return TimeGrid(float(Fraction(text))).delta


def cmd_sweep(args) -> int:
    cfg = _read_json(args.config)
    deltas = [_parse_delta(d) for d in args.delta_list.split(",")]
    rows = []
    for d in deltas:
        run_cfg = dict(cfg)
        run_cfg["delta"] = d
        state = _run_from_config(run_cfg, with_audit=False)
        balance = energy_balance(state)
        rows.append(
            {
                "delta": d,
                "one_sided_defect": balance["one_sided_defect"],
                "trapezoid_residual": balance["max_pair_residual"],
                "growth_steps": sum(state.grew),
            }
        )
        print(
            f"delta={d:g}: one_sided_defect={rows[-1]['one_sided_defect']:.6e} "
            f"trapezoid={rows[-1]['trapezoid_residual']:.6e} grew={rows[-1]['growth_steps']}"
        )
    for a, b in zip(rows, rows[1:]):
        if b["one_sided_defect"] > 0:
            print(
                f"decay {a['delta']:g} -> {b['delta']:g}: "
                f"x{a['one_sided_defect'] / b['one_sided_defect']:.2f}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, sort_keys=True, indent=1))
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# built-in oracle cases
# ---------------------------------------------------------------------------


def _oracle_slit_energy(h_tip: float) -> list[tuple[str, bool]]:
    from .mesh import triangulate
    from .solver import bulk_energy, solve

    domain = slit_disk_domain()
    crack = slit_disk_crack()
    mesh = triangulate(domain, crack, 32.0 * h_tip, h_tip)
    u = solve(mesh, mode3_datum(1.0))
    e = bulk_energy(u)
    tol = 0.03 if h_tip >= 1.0 / 256.0 else 0.015
    label = f"slit-energy h_tip={h_tip:g}: bulk={e:.5f} vs 1.0 (tol {tol:.3f})"
    return [(label, abs(e - 1.0) <= tol)]


def _oracle_slit_sif(h_tip: float) -> list[tuple[str, bool]]:
    from .mesh import triangulate
    from .sif import fit_sif
    from .solver import solve

    domain = slit_disk_domain()
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    mesh = triangulate(domain, crack, 32.0 * h_tip, h_tip)
    u = solve(mesh, mode3_datum(1.0))
    est = fit_sif(u, tip, 16.0 * h_tip, 64.0 * h_tip)
    label = f"slit-sif h_tip={h_tip:g}: kappa={est.kappa:.4f} vs 1.0 (tol 0.02)"
    return [(label, abs(est.kappa - 1.0) <= 0.02)]


def _oracle_release_rate(h_tip: float) -> list[tuple[str, bool]]:
    from .energy import Evaluator
    from .sif import fit_sif, release_rate_richardson_at

    domain = slit_disk_domain()
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    h_max = 32.0 * h_tip
    kappas = (0.0, 0.5, 1.0)

    def one_hot(t):
        # at "time" t = j the datum is mode3_datum(kappas[j])
        c = tuple(1.0 if j == t else 0.0 for j in range(len(kappas)))
        return c, (0.0,) * len(kappas)

    # one evaluator meshes each of the three cracks once and solves all data
    # on it: the fits come first, while the base crack's fields are kept
    ev = Evaluator(domain, [mode3_datum(kap) for kap in kappas], one_hot, h_max, h_tip)
    k_fits = [
        fit_sif(ev.record(crack, j)[1], tip, 16.0 * h_tip, 64.0 * h_tip).kappa if kap else 0.0
        for j, kap in enumerate(kappas)
    ]
    out = []
    for j, (kap, k_fit) in enumerate(zip(kappas, k_fits)):
        fd = release_rate_richardson_at(ev, crack, tip, j)
        gap = abs(fd - (1.0 - k_fit**2))
        label = f"release-rate kappa={kap:g}: fd={fd:.4f} fit-law={1.0 - k_fit ** 2:.4f} gap={gap:.4f}"
        out.append((label, gap <= 0.1))
    return out


def _oracle_taper_growth() -> list[tuple[str, bool]]:
    """The growth benchmark at its own resolution (so it takes no h_tip)."""
    cfg = growth_benchmark_config()
    state = _run_from_config(cfg, with_audit=True)
    from .sif import griffith_audit

    rep = griffith_audit(state)
    return [
        (f"taper-growth: audit pass={state.audit['pass']}", bool(state.audit["pass"])),
        (f"taper-growth: griffith violations={len(rep['violations'])}", rep["pass"]),
    ]


ORACLES = {
    "slit-energy": _oracle_slit_energy,
    "slit-sif": _oracle_slit_sif,
    "release-rate": _oracle_release_rate,
    "taper-growth": _oracle_taper_growth,
}


def cmd_oracle(args) -> int:
    fixed = args.case == "taper-growth"
    if args.case not in ORACLES:
        raise ConfigError(f"unknown case {args.case!r} (have {sorted(ORACLES)})")
    if fixed and args.h_tip is not None:
        raise ConfigError("taper-growth runs at its own resolution and takes no --h-tip")
    if args.h_tip is not None and not 0.0 < args.h_tip < math.inf:
        raise ConfigError(f"--h-tip must be positive and finite, got {args.h_tip}")
    run = ORACLES[args.case]
    checks = run() if fixed else run(1.0 / 256.0 if args.h_tip is None else args.h_tip)
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quasicrack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run an evolution from a JSON config")
    pr.add_argument("config")
    pr.add_argument("--output-dir", default=None)
    pr.set_defaults(func=cmd_run)

    pa = sub.add_parser("audit", help="re-audit a saved evolution state")
    pa.add_argument("state")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_audit)

    ps = sub.add_parser("sweep", help="energy-balance decay over a delta list")
    ps.add_argument("config")
    ps.add_argument("--delta-list", required=True, help="e.g. 1/16,1/32,1/64")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sweep)

    po = sub.add_parser("oracle", help="built-in analytic verification cases")
    po.add_argument("case", help=f"one of {sorted(ORACLES)}")
    po.add_argument("--h-tip", type=float, dest="h_tip", help="default 1/256; not for taper-growth")
    po.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshFailure) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
