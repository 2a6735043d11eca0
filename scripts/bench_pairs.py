#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 35 \\
        --workload taper_growth --out BENCH.json

The base revision is extracted with ``git archive`` into the gitignored
``.bench_build/<sha>/``; the other side is this checkout as it stands. Each
pair runs the tree's own ``perfbench/run.py --trace 0`` once per side, one
process at a time; even pairs run the base first, odd pairs this checkout,
so slow drift of the host's speed hits both sides alike. The output file
holds, per workload and end-to-end metric, both sides' samples with their
median and quartiles, the number of pairs this checkout won, the verdict
of ``BENCHMARK.json``'s rule, and the environment stamp. A verdict is
``regressed`` when this checkout's median is worse than the base's by more
than the metric's bound; else ``unresolved`` when the base's quartile
spread exceeds the bound relative to its median, unless every run of this
checkout beats every base run; else ``within_bound``. Exits 1 if a run
fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("taper_growth", "sampled_growth", "calibrate_sweep")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str) -> Path:
    """The tree of `rev` under .bench_build/<sha>/, extracted once."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / sha
    done = tree / ".extracted"
    if not done.is_file():
        tar = subprocess.run(
            ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
            capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tree)
        done.write_text(sha + "\n")
    return tree


def run_once(tree: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """(last JSON line, env stamp) of one `perfbench/run.py --trace 0` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: {workload} failed in {tree}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env {")), {})
    return json.loads(lines[-1]), env


def summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = samples[0]
    return {"samples": samples, "median": med, "q1": q1, "q3": q3}


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Both sides' summaries, pair wins of this checkout, relative median
    change, and the verdict under the metric's relative `bound`."""
    b, h = summary(base), summary(head)
    # sign * value is lower-is-better for either direction
    sign = 1.0 if better == "lower" else -1.0
    won = [sign * y < sign * x for x, y in zip(base, head)]
    change = (h["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    spread = (b["q3"] - b["q1"]) / abs(b["median"]) if b["median"] else 0.0
    every_run_won = max(sign * y for y in head) < min(sign * x for x in base)
    if sign * change > bound:
        verdict = "regressed"
    elif spread > bound and not every_run_won:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "base": b,
        "head": h,
        "wins": sum(won),
        "median_change": change,
        "gap_exceeds_base_iqr": abs(h["median"] - b["median"]) > b["q3"] - b["q1"],
        "verdict": verdict,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD~1", help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: all three")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    gates = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_tree = extract(args.base)
    sides = {"base": base_tree, "head": ROOT}
    result = {
        "base": {"rev": (base_tree / ".extracted").read_text().strip()},
        "head": {"rev": _git("rev-parse", "HEAD"),
                 "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))},
        "command": f"perfbench/run.py --workload W --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "env": {"platform": platform.platform(), "machine": platform.machine()},
        "workloads": {},
    }
    ok = True
    for workload in args.workload or WORKLOADS:
        values = {side: {g["name"]: [] for g in gates} for side in sides}
        correct = {side: True for side in sides}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                last, env = run_once(sides[side], workload, args.seconds)
                correct[side] &= last["correct"] is True
                for g in gates:
                    values[side][g["name"]].append(last["metrics"][g["name"]]["value"])
                if side == "head":
                    result["env"]["perfbench"] = {k: env.get(k) for k in (
                        "python", "numpy", "scipy", "nproc", "thread_caps")}
            print(f"{workload} pair {pair + 1}/{args.pairs}: run_s base "
                  f"{values['base']['run_s'][-1]:.3f} head {values['head']['run_s'][-1]:.3f}",
                  flush=True)
        ok &= all(correct.values())
        result["workloads"][workload] = {
            "correct": correct,
            "metrics": {
                g["name"]: {"unit": g["unit"], "better": g["better"], "bound": g["bound"],
                            **compare(values["base"][g["name"]],
                                      values["head"][g["name"]], g["better"], g["bound"])}
                for g in gates
            },
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for workload, r in result["workloads"].items():
        for name, m in r["metrics"].items():
            print(f"{workload:>16} {name:>12}: base {m['base']['median']:.4g} "
                  f"head {m['head']['median']:.4g} ({m['median_change']:+.1%}), "
                  f"wins {m['wins']}/{args.pairs}, {m['verdict']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
