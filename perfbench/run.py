#!/usr/bin/env python3
"""quasicrack benchmark: growth runs, their audits, and the calibration sweep.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload taper_growth --seed 0 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  taper_growth     growth benchmark, delta=1/64, proportional loading; run + audit
  sampled_growth   same strip at delta=1/16 with 5-sample "sampled" loading; run + audit
  calibrate_sweep  triangulate -> solve -> safe_fit_window -> fit_sif at 9 crack
                   lengths, h_tip=1/512, then the a0/a1 calibration step

``--trace 0`` repeats the workload (each run phase from a cold energy
cache) for about ``--seconds`` and reports the end-to-end metrics as
medians of the samples taken. ``--trace 1`` makes one untraced run phase
and one traced repetition and reports the per-layer metrics. The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it print every metric by name with its
unit and the environment stamp. Results and spans go to
``perfbench/out/``.

Exits 2 without a result when ``src/quasicrack`` is missing.
"""

from __future__ import annotations

import os

# One process and one thread generate the whole load: cap BLAS/OpenMP pools
# before numpy is imported (here or in a set-up child, which inherits them).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = json.loads((HERE / "reference.json").read_text())

DEFAULT_SEED = 0
SETUP_CHILDREN = 2  # fresh-process set-up samples per untraced run, plus the run's own

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_quasicrack():
    if not (SRC / "quasicrack" / "__init__.py").is_file():
        _die(f"no quasicrack sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import quasicrack

    if Path(quasicrack.__file__).resolve().parent != (SRC / "quasicrack").resolve():
        _die(f"imported quasicrack from {quasicrack.__file__}, not from {SRC}")
    from quasicrack import cases, cli, energy, evolution, geometry, mesh, sif, solver

    return SimpleNamespace(
        cases=cases, cli=cli, energy=energy, evolution=evolution,
        geometry=geometry, mesh=mesh, sif=sif, solver=solver,
        failures=(
            mesh.MeshFailure,
            solver.SolveFailure,
            sif.AnnulusUnresolved,
            sif.TipGeometryInvalid,
            geometry.GeometryViolation,
        ),
    )


def _nodes_note(args, mesh):
    return args[1], mesh.n_nodes  # (crack, node count) of a built mesh


def _close(x: float, ref: float, rel: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Growth:
    """A growth run through ``run_evolution`` and the audits ``quasicrack run`` makes."""

    SAMPLES = 5  # sampled_growth: equispaced samples of the proportional datum

    def __init__(self, q, name: str, seed: int):
        self.q, self.name, self.seed = q, name, seed
        self.ref = REFERENCE[name]
        delta = 1.0 / 64.0 if name == "taper_growth" else 1.0 / 16.0
        cfg = q.cases.growth_benchmark_config(delta=delta, refine=1)
        (self.domain, self.k0, loading, self.grid, self.policy,
         self.h_max, self.h_tip) = q.cli.load_config(cfg)
        if name == "sampled_growth":
            ts = [k / (self.SAMPLES - 1) for k in range(self.SAMPLES)]
            loading = q.evolution.LoadingProgram(
                "sampled",
                samples=tuple(
                    (t, q.solver.scale_datum(loading.datum, loading.profile.value(t)))
                    for t in ts
                ),
            )
        self.loading = loading
        self.pairs = cfg["audit"]["monotone_pairs"]
        self.monotone = loading.mode == "proportional" and loading.profile.nondecreasing_on(
            self.grid.times()
        )
        self.params = {
            "delta": delta,
            "refine": 1,
            "h_tip": self.h_tip,
            "h_max": self.h_max,
            "loading": loading.mode,
            "samples": self.SAMPLES if loading.mode == "sampled" else None,
            "monotone_pairs": self.pairs if self.monotone else 0,
            "monotone_seed": seed,
        }

    def trace_points(self):
        ev, en = self.q.evolution, self.q.energy
        return [
            (ev, "triangulate", "mesh", _nodes_note),
            (ev, "solve", "solver"),
            (ev, "bulk_energy", "solver"),
            (ev, "length", "geometry"),
            (ev, "extend_tip", "geometry"),
            (ev, "contains", "geometry"),
            (ev, "crack_tips", "geometry"),
            (ev, "fit_sif", "sif"),
            (ev, "safe_fit_window", "sif"),
            (ev, "energy_value", "energy"),
            (en, "triangulate", "mesh", _nodes_note),
            (en, "solve", "solver"),
            (en, "bulk_energy", "solver"),
            (en, "total_energy", "energy"),
            (en, "energy_power", "energy"),
        ]

    def run(self):
        return self.q.evolution.run_evolution(
            self.domain, self.k0, self.loading, self.grid, self.policy,
            self.h_max, self.h_tip, with_audit=False,
        )

    def audit(self, state):
        report = self.q.evolution.audit_conditions(state)
        if self.monotone:
            report["monotone_loading"] = self.q.evolution.audit_monotone_loading(
                state, self.pairs, seed=self.seed
            )
        return report

    def failed_run_ops(self):
        return [(f"step {i}", False) for i in range(len(self.grid.times()))]

    def outputs(self, state, report) -> dict:
        return {"growth_steps": sum(state.grew), "final_total": state.energies[-1].total}

    def check(self, state, report) -> list[tuple[str, bool]]:
        skipped = {e.split(":")[0] for e in state.events if "sif skipped" in e}
        ops = [(f"step {i}", f"step {i}" not in skipped) for i in range(len(state.energies))]
        for cond in ("irreversibility", "surface_monotone", "minimality", "stationarity"):
            ops.append((f"audit {cond}", bool(report[cond]["pass"])))
        for k, row in enumerate(report.get("monotone_loading", [])):
            ops.append((f"monotone pair {k}", bool(row["pass"])))
        out = self.outputs(state, report)
        ops.append(("check audit pass", bool(report["pass"])))
        if self.name == "taper_growth":
            ops.append(("check growth steps", out["growth_steps"] == self.ref["growth_steps"]))
            ops.append(("check final total (exact)", out["final_total"] == self.ref["final_total"]))
        else:
            ops.append((
                "check final total",
                _close(out["final_total"], self.ref["final_total"], self.ref["rel_tol"]),
            ))
        return ops

    def summary(self, state) -> dict:
        return {
            "steps": len(state.energies),
            "grew_steps": sum(state.grew),
            "candidates": sum(state.candidates_evaluated),
            "sif_skipped": sum("sif skipped" in e for e in state.events),
        }


class Sweep:
    """The loop of scripts/calibrate_benchmark.py at h_tip = 1/512."""

    H_TIP = 1.0 / 512.0
    LENGTHS = tuple(0.3 + 0.2 * k for k in range(9))  # 0.3 .. 1.9
    JITTER = 0.05  # seeds other than the default move each length this far at most
    A0, A1, KAPPA0 = 0.7, 1.3, 0.93  # the script's calibration defaults

    def __init__(self, q, name: str, seed: int):
        import numpy as np

        self.q, self.name = q, name
        self.ref = REFERENCE[name]
        c = q.cases
        self.domain = c.taper_domain(c.TAPER_L, c.TAPER_H0, c.TAPER_H1)
        self.datum = c.taper_datum(c.TAPER_L, c.TAPER_H0, c.TAPER_H1)
        self.h_tip, self.h_max = self.H_TIP, 8.0 * self.H_TIP
        base = np.array(self.LENGTHS)
        if seed != DEFAULT_SEED:
            base = base + np.random.default_rng(seed).uniform(-self.JITTER, self.JITTER, len(base))
        self.lengths = [float(a) for a in base]
        self.reference_inputs = seed == DEFAULT_SEED
        self.fns = SimpleNamespace(
            triangulate=q.mesh.triangulate,
            solve=q.solver.solve,
            crack_tips=q.geometry.crack_tips,
            safe_fit_window=q.sif.safe_fit_window,
            fit_sif=q.sif.fit_sif,
        )
        self.params = {
            "h_tip": self.h_tip,
            "h_max": self.h_max,
            "lengths": self.lengths,
            "a0": self.A0,
            "a1": self.A1,
            "kappa0": self.KAPPA0,
        }

    def trace_points(self):
        f = self.fns
        return [
            (f, "triangulate", "mesh", _nodes_note),
            (f, "solve", "solver"),
            (f, "crack_tips", "geometry"),
            (f, "safe_fit_window", "sif"),
            (f, "fit_sif", "sif"),
        ]

    def kappa_unit(self, a: float) -> float:
        f = self.fns
        crack = self.q.cases.taper_crack(a)
        mesh = f.triangulate(self.domain, crack, self.h_max, self.h_tip)
        u = f.solve(mesh, self.datum)
        tip = f.crack_tips(crack)[1]
        r1, r2 = f.safe_fit_window(self.domain, crack, tip, self.h_tip)
        return f.fit_sif(u, tip, r1, r2).kappa

    def _try(self, a: float):
        try:
            return self.kappa_unit(a), None
        except self.q.failures as e:
            return None, type(e).__name__

    def run(self):
        return [self._try(a) for a in self.lengths]

    def audit(self, rows):
        """The script's calibration: amp and c1 from the intensities at a0 and a1."""
        (ku0, e0), (ku1, e1) = self._try(self.A0), self._try(self.A1)
        if e0 or e1:
            return {"errors": [e0, e1]}
        amp = self.KAPPA0 / ku0
        c1 = 1.0 / (amp * ku1) ** 2 - 1.0
        return {"errors": [], "kappa_a0": ku0, "kappa_a1": ku1, "amp": amp, "c1": c1}

    def failed_run_ops(self):
        return [(f"length {a:.4f}", False) for a in self.lengths]

    def outputs(self, rows, cal) -> dict:
        return {"lengths": self.lengths, "kappa": [k for k, _ in rows], "calibration": cal}

    def check(self, rows, cal) -> list[tuple[str, bool]]:
        ops = [(f"length {a:.4f}", err is None and math.isfinite(k))
               for a, (k, err) in zip(self.lengths, rows)]
        ops.append(("calibration a0/a1", not cal["errors"]))
        # stability: kappa_unit must decrease beyond a0 (same 1e-3 slack as the script)
        tail = [k for a, (k, _) in zip(self.lengths, rows) if a >= self.A0]
        ops.append((
            "check kappa decreasing beyond a0",
            all(k is not None for k in tail)
            and all(b <= a + 1e-3 for a, b in zip(tail, tail[1:])),
        ))
        if self.reference_inputs:
            rel = self.ref["rel_tol"]
            ops.append((
                "check kappa vs reference",
                len(rows) == len(self.ref["kappa"])
                and all(k is not None and _close(k, r, rel) for (k, _), r in zip(rows, self.ref["kappa"])),
            ))
            ops.append((
                "check calibration vs reference",
                not cal["errors"]
                and _close(cal["amp"], self.ref["amp"], rel)
                and _close(cal["c1"], self.ref["c1"], rel),
            ))
        return ops

    def summary(self, rows) -> dict:
        return {
            "steps": 0,
            "grew_steps": 0,
            "candidates": 0,
            "sif_skipped": sum(err == "AnnulusUnresolved" for _, err in rows),
        }


WORKLOADS = {"taper_growth": Growth, "sampled_growth": Growth, "calibrate_sweep": Sweep}

# (run phases, audit phases) per repetition. On a shared machine other tenants
# slow a fixed task by up to 2x, in spells of seconds to minutes, so short
# phases are repeated and their median reported, within a run of about 35 s:
# taper run 14 s, audit 12 s; sampled run 18 s, audit 30 x 0.33 s; sweep run
# 2 x 10 s, calibration 3 x 2.1 s.
REPEATS = {"taper_growth": (1, 1), "sampled_growth": (1, 30), "calibrate_sweep": (2, 3)}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import quasicrack, build the workload's inputs and warm up the libraries.

    The warm-up (one mesh, solve and SIF fit of the initial taper crack at
    h_tip = 1/64, 852 nodes) pays scipy's and numpy's lazy first-call costs
    here, so set-up time carries them on every run and the timed phases
    do not. It does not touch the energy cache or any memo.
    """
    t0 = time.perf_counter()
    q = _import_quasicrack()
    wl = WORKLOADS[workload](q, workload, seed)
    c = q.cases
    domain = c.taper_domain(c.TAPER_L, c.TAPER_H0, c.TAPER_H1)
    crack = c.taper_crack(c.TAPER_A0)
    h = 1.0 / 64.0
    u = q.solver.solve(q.mesh.triangulate(domain, crack, 8.0 * h, h),
                       c.taper_datum(c.TAPER_L, c.TAPER_H0, c.TAPER_H1))
    q.solver.bulk_energy(u)
    tip = q.geometry.crack_tips(crack)[1]
    q.sif.fit_sif(u, tip, *q.sif.safe_fit_window(domain, crack, tip, h))
    return q, wl, time.perf_counter() - t0


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        _die(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, ops):
        for label, ok in ops:
            self.attempted += 1
            if not ok:
                self.failed.append(label)


def _energy_cache(q) -> dict:
    """The energy module's process-wide cache ({} once the library drops it)."""
    return getattr(q.energy, "_ENERGY_CACHE", {})


def _cold(q):
    """Start a repetition as a fresh `quasicrack run` would: empty energy cache."""
    clear = getattr(q.energy, "clear_energy_cache", None)
    if clear is not None:
        clear()
    gc.collect()


def _rep(q, wl, ops: Ops):
    """One repetition: the run phase, then the audit phase, each repeated.

    Every run phase starts cold. Every audit phase audits the last run's
    output from the energy cache exactly as that run left it, so all audit
    samples do the same work; only the first report is checked. Returns
    (run samples, audit samples, outputs); audit samples is None when a
    run failed.
    """
    n_runs, n_audits = REPEATS[wl.name]
    runs = []
    for _ in range(n_runs):
        _cold(q)
        t0 = time.perf_counter()
        try:
            out = wl.run()
        except q.failures:
            ops.add(wl.failed_run_ops())
            return runs + [time.perf_counter() - t0], None, None
        runs.append(time.perf_counter() - t0)
    cache = _energy_cache(q)
    after_run = dict(cache)
    audits, report = [], None
    for _ in range(n_audits):
        cache.clear()
        cache.update(after_run)
        t1 = time.perf_counter()
        try:
            rep = wl.audit(out)
        except q.failures as e:
            ops.add([(f"audit ({type(e).__name__})", False)])
            return runs, audits + [time.perf_counter() - t1], None
        audits.append(time.perf_counter() - t1)
        if report is None:
            report = rep
    ops.add(wl.check(out, report))
    return runs, audits, wl.outputs(out, report)


def measure_end_to_end(q, wl, seconds: float, setup_samples: list[float], ops: Ops):
    """Repeat while another repetition like the last fits in `seconds` (at least one)."""
    runs, audits = [], []
    start = time.perf_counter()
    outputs = None
    while True:
        r0 = time.perf_counter()
        run_samples, audit_samples, outputs = _rep(q, wl, ops)
        runs.extend(run_samples)
        audits.extend(audit_samples or ())
        if audit_samples is None or ops.failed:
            break
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            break
    values = {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(runs),
        "audit_s": statistics.median(audits) if audits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(ops.failed) / max(ops.attempted, 1),
    }
    samples = {"setup_s": setup_samples, "run_s": runs, "audit_s": audits}
    return values, samples, outputs


def measure_per_layer(q, wl, ops: Ops):
    from spans import Tracer

    _cold(q)
    t0 = time.perf_counter()
    wl.run()
    untraced_run_s = time.perf_counter() - t0

    _cold(q)
    tracer = Tracer()
    cache_size = {}
    with tracer.installed(wl.trace_points()):
        tracer.phase = "run"
        t0 = time.perf_counter()
        out = wl.run()
        t1 = time.perf_counter()
        cache_size["run"] = len(_energy_cache(q))
        tracer.phase = "audit"
        report = wl.audit(out)
        t2 = time.perf_counter()
        cache_size["audit"] = len(_energy_cache(q))
    ops.add(wl.check(out, report))
    wall = {"run": t1 - t0, "audit": t2 - t1}
    summary = wl.summary(out)

    self_t = tracer.self_times()
    m: dict[str, float] = {}
    meshed_in: dict[str, list] = {}
    for p in ("run", "audit"):
        tri = tracer.of(p, "mesh.triangulate")
        nodes = [s[6][1] for s in tri if s[6] is not None]
        meshed_in[p] = [s[6][0] for s in tri if s[6] is not None]
        n_ev = len(tracer.of(p, "energy.energy_value"))
        n_te = len(tracer.of(p, "energy.total_energy"))
        m.update({
            f"{p}.mesh.triangulate.calls": len(tri),
            f"{p}.mesh.triangulate.self_s": self_t[(p, "mesh.triangulate")],
            f"{p}.mesh.nodes_mean": statistics.fmean(nodes) if nodes else 0.0,
            f"{p}.mesh.nodes_max": max(nodes, default=0),
            f"{p}.mesh.failures": sum(s[5] == "MeshFailure" for s in tri),
            f"{p}.solver.solve.calls": len(tracer.of(p, "solver.solve")),
            f"{p}.solver.solve.self_s": self_t[(p, "solver.solve")],
            f"{p}.solver.bulk_energy.self_s": self_t[(p, "solver.bulk_energy")],
            f"{p}.solver.failures": sum(
                s[5] == "SolveFailure" for s in tracer.of(p, "solver.solve")
            ),
            f"{p}.energy.energy_value.calls": n_ev,
            f"{p}.energy.cache_hit_ratio": 1.0 - n_te / n_ev if n_ev else 0.0,
            f"{p}.energy.energy_power.self_s": self_t[(p, "energy.energy_power")],
            f"{p}.energy.cache_size": cache_size[p],
            f"{p}.geometry.length.calls": len(tracer.of(p, "geometry.length")),
            f"{p}.geometry.length.self_s": self_t[(p, "geometry.length")],
            f"{p}.geometry.extend_tip.calls": len(tracer.of(p, "geometry.extend_tip")),
            f"{p}.geometry.extend_tip.self_s": self_t[(p, "geometry.extend_tip")],
            f"{p}.geometry.contains.self_s": self_t[(p, "geometry.contains")],
            f"{p}.geometry.crack_tips.self_s": self_t[(p, "geometry.crack_tips")],
            f"{p}.sif.fit_sif.calls": len(tracer.of(p, "sif.fit_sif")),
            f"{p}.sif.fit_sif.self_s": self_t[(p, "sif.fit_sif")],
            f"{p}.sif.safe_fit_window.self_s": self_t[(p, "sif.safe_fit_window")],
            f"{p}.evolution.self_s": wall[p] - tracer.root_time(p),
        })
    requests = summary["candidates"] + summary["steps"]
    run_fps = {k.fingerprint() for k in meshed_in["run"]}
    audit_fps = [k.fingerprint() for k in meshed_in["audit"]]
    m.update({
        "run.energy.requests": requests,
        "run.energy.memo_hit_ratio": (
            1.0 - m["run.mesh.triangulate.calls"] / requests if requests else 0.0
        ),
        "run.evolution.steps": summary["steps"],
        "run.evolution.grew_steps": summary["grew_steps"],
        "run.evolution.candidates": summary["candidates"],
        "run.sif.skipped": summary["sif_skipped"],
        "audit.remesh_ratio": (
            sum(fp in run_fps for fp in audit_fps) / len(audit_fps) if audit_fps else 0.0
        ),
        "trace.overhead_frac": wall["run"] / untraced_run_s - 1.0,
        "trace.run_s": wall["run"],
        "trace.audit_s": wall["audit"],
        "trace.untraced_run_s": untraced_run_s,
    })
    return m, tracer, wl.outputs(out, report)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(wl, args) -> dict:
    import numpy
    import scipy

    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    q, wl, own_setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    ops = Ops()
    result: dict = {"env": env_stamp(wl, args)}
    if args.trace == 0:
        setup_samples = [own_setup_s] + [
            setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)
        ]
        values, samples, outputs = measure_end_to_end(q, wl, args.seconds, setup_samples, ops)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result["samples"] = samples
        for k, u in END_TO_END.items():
            n = f"  (median of {len(samples[k])})" if k in samples else ""
            print(f"{k:>12} = {values[k]:.6g} {u}{n}")
        print(f"{'fail_frac':>12} = {len(ops.failed) / max(ops.attempted, 1):.6g} "
              f"({len(ops.failed)} of {ops.attempted} operations)")
    else:
        per_layer, tracer, outputs = measure_per_layer(q, wl, ops)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in per_layer.items()}
        for k, v in metrics.items():
            print(f"{k} = {v['value']:.6g} {v['unit']}")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans_json()))
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)})")

    result.update(outputs=outputs, failed_ops=ops.failed, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=float)
    )
    print("env " + json.dumps(result["env"], sort_keys=True))
    if ops.failed:
        print("failed: " + ", ".join(ops.failed[:20]), file=sys.stderr)
    print(json.dumps({
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
