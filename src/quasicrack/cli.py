"""Command line entry points: run, audit, sweep, oracle.

Exit status is nonzero for configuration errors only; audit or oracle
failures are reported on stdout and exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .domain import DomainError, DomainSpec
from .geometry import CrackSet, GeometryViolation, crack_tips
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
    run_evolution,
)


class ConfigError(Exception):
    pass


def load_config(cfg: dict):
    try:
        domain = DomainSpec.from_json(cfg["domain"])
        m = int(cfg.get("m", max(1, len(cfg["initial_crack"]))))
        crack = CrackSet.from_json(cfg["initial_crack"], m=m)
        mesh = cfg["mesh"]
        h_max, h_tip = float(mesh["h_max"]), float(mesh["h_tip"])
        policy = CandidatePolicy.from_json(cfg.get("policy", {}))
        grid = TimeGrid(float(cfg["delta"]))
        lcfg = cfg["loading"]
        if lcfg is None:
            raise ValueError("the loading was built in Python and has no JSON form")
        if lcfg["mode"] == "proportional":
            loading = LoadingProgram(
                "proportional",
                datum=datum_from_config(lcfg["datum"]),
                profile=Profile.from_json(lcfg["profile"]),
                config=lcfg,
            )
        elif lcfg["mode"] == "sampled":
            samples = tuple(
                (float(s["t"]), datum_from_config(s["datum"]))
                for s in lcfg["samples"]
            )
            loading = LoadingProgram("sampled", samples=samples, config=lcfg)
        else:
            raise KeyError(f"unknown loading mode {lcfg['mode']!r}")
    except (KeyError, TypeError, ValueError, DomainError, GeometryViolation) as e:
        raise ConfigError(str(e)) from e
    return domain, crack, loading, grid, policy, h_max, h_tip


def _run_from_config(cfg: dict, with_audit: bool = True) -> EvolutionState:
    domain, crack, loading, grid, policy, h_max, h_tip = load_config(cfg)
    return run_evolution(
        domain, crack, loading, grid, policy, h_max, h_tip, with_audit=with_audit
    )


def cmd_run(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        state = _run_from_config(cfg, with_audit=cfg.get("audit", {}).get("enabled", True))
    except (ConfigError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = cfg.get("output", {})
    outdir = Path(args.output_dir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    jsonl_path = outdir / out.get("jsonl", "evolution.jsonl")
    jsonl_path.write_text(state.to_jsonl())
    if out.get("fields_dir"):
        fdir = outdir / out["fields_dir"]
        fdir.mkdir(parents=True, exist_ok=True)
        for i in range(len(state.steps)):
            (fdir / f"step_{i:04d}.csv").write_text(state.field(i).to_csv())
    (outdir / out.get("snapshots", "cracks.json")).write_text(
        json.dumps(state.snapshots_json(), sort_keys=True, indent=1)
    )
    if state.audit is not None:
        pairs = cfg.get("audit", {}).get("monotone_pairs", 10)
        try:
            state.audit["monotone_loading"] = audit_monotone_loading(state, pairs)
        except NotProportional:
            pass
        (outdir / out.get("audit", "audit.json")).write_text(
            json.dumps(state.audit, sort_keys=True, indent=1)
        )
    state.save(str(outdir / out.get("state", "state.json")))
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
    same bytes; fields are re-solved on request (`EvolutionState.field`).
    """
    payload = json.loads(Path(path).read_text())
    cfg = payload["config"]
    domain, k_init, loading, grid, policy, h_max, h_tip = load_config(cfg)
    state = EvolutionState(
        domain=domain,
        grid=grid,
        policy=policy,
        loading=loading,
        h_max=h_max,
        h_tip=h_tip,
        initial_crack=k_init,
        events=payload.get("events", []),
        audit=payload.get("audit"),
        lambda_diagnostic=payload.get("lambda_diagnostic"),
    )
    ev = _evaluator_of(state)
    times = grid.times()
    snaps = payload["snapshots"]["steps"]
    if not len(times) == len(snaps) == len(payload["steps"]):
        raise ConfigError("state file steps do not match the time grid")
    for t, snap, rec in zip(times, snaps, payload["steps"]):
        crack = CrackSet.from_json(snap["components"], m=k_init.m)
        energy, _ = ev.record(crack, t)
        ev.end_step(keep=crack)
        state.steps.append(replace(StepRecord.from_json(rec, crack), energy=energy))
    return state


def cmd_audit(args) -> int:
    try:
        state = replay_state(args.state)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    report = audit_conditions(state)
    try:
        report["monotone_loading"] = audit_monotone_loading(state)
    except NotProportional:
        pass
    text = json.dumps(report, sort_keys=True, indent=1)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    print(f"audit pass: {report['pass']}")
    print(f"energy balance residual: {report['energy_balance']['max_pair_residual']:.3e}")
    print(f"one-sided defect: {report['energy_balance']['one_sided_defect']:.3e}")
    return 0


def _parse_delta(text: str) -> float:
    return TimeGrid(float(Fraction(text))).delta


def cmd_sweep(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        deltas = [_parse_delta(d) for d in args.delta_list.split(",")]
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    rows = []
    for d in deltas:
        run_cfg = dict(cfg)
        run_cfg["delta"] = d
        try:
            state = _run_from_config(run_cfg, with_audit=False)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        rep = audit_conditions(state, minimality_samples=0)
        rows.append(
            {
                "delta": d,
                "one_sided_defect": rep["energy_balance"]["one_sided_defect"],
                "trapezoid_residual": rep["energy_balance"]["max_pair_residual"],
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


def _oracle_slit_energy(h_tip: float) -> list[tuple[str, bool, str]]:
    from .mesh import triangulate
    from .solver import bulk_energy, solve

    domain = slit_disk_domain()
    crack = slit_disk_crack()
    mesh = triangulate(domain, crack, 32.0 * h_tip, h_tip)
    u = solve(mesh, mode3_datum(1.0))
    e = bulk_energy(u)
    tol = 0.03 if h_tip >= 1.0 / 256.0 else 0.015
    return [
        (
            f"slit-energy h_tip={h_tip:g}: bulk={e:.5f} vs 1.0 (tol {tol:.3f})",
            abs(e - 1.0) <= tol,
            "",
        )
    ]


def _oracle_slit_sif(h_tip: float) -> list[tuple[str, bool, str]]:
    from .mesh import triangulate
    from .sif import fit_sif
    from .solver import solve

    domain = slit_disk_domain()
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    mesh = triangulate(domain, crack, 32.0 * h_tip, h_tip)
    u = solve(mesh, mode3_datum(1.0))
    est = fit_sif(u, tip, 16.0 * h_tip, 64.0 * h_tip)
    return [
        (
            f"slit-sif h_tip={h_tip:g}: kappa={est.kappa:.4f} vs 1.0 (tol 0.02)",
            abs(est.kappa - 1.0) <= 0.02,
            "",
        )
    ]


def _oracle_release_rate(h_tip: float) -> list[tuple[str, bool, str]]:
    from .sif import fit_sif, release_rate_richardson
    from .mesh import triangulate
    from .solver import solve

    domain = slit_disk_domain()
    crack = slit_disk_crack()
    tip = crack_tips(crack)[1]
    h_max = 32.0 * h_tip
    out = []
    mesh = triangulate(domain, crack, h_max, h_tip)
    for kap in (0.0, 0.5, 1.0):
        g = mode3_datum(kap)
        if kap == 0.0:
            k_fit = 0.0
        else:
            k_fit = fit_sif(solve(mesh, g), tip, 16.0 * h_tip, 64.0 * h_tip).kappa
        fd = release_rate_richardson(domain, crack, g, tip, h_max, h_tip)
        gap = abs(fd - (1.0 - k_fit**2))
        out.append(
            (
                f"release-rate kappa={kap:g}: fd={fd:.4f} fit-law={1.0 - k_fit ** 2:.4f} gap={gap:.4f}",
                gap <= 0.1,
                "",
            )
        )
    return out


def _oracle_taper_growth(h_tip: float) -> list[tuple[str, bool, str]]:
    cfg = growth_benchmark_config()
    state = _run_from_config(cfg, with_audit=True)
    from .sif import griffith_audit

    rep = griffith_audit(state)
    out = [
        (f"taper-growth: audit pass={state.audit['pass']}", bool(state.audit["pass"]), ""),
        (
            f"taper-growth: griffith violations={len(rep['violations'])}",
            rep["pass"],
            "",
        ),
    ]
    return out


ORACLES = {
    "slit-energy": _oracle_slit_energy,
    "slit-sif": _oracle_slit_sif,
    "release-rate": _oracle_release_rate,
    "taper-growth": _oracle_taper_growth,
}


def cmd_oracle(args) -> int:
    if args.case not in ORACLES:
        print(
            f"config error: unknown case {args.case!r} (have {sorted(ORACLES)})",
            file=sys.stderr,
        )
        return 2
    checks = ORACLES[args.case](args.h_tip)
    for label, ok, _ in checks:
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
    po.add_argument("--h-tip", type=float, default=1.0 / 256.0, dest="h_tip")
    po.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
