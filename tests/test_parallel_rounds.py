"""A search round's uncached meshes built on helper processes.

Each path is forced through `os.sched_getaffinity` as `quasicrack.energy`
sees it: one CPU, or no such call, scores every round in process, two or
three CPUs fork one or two helpers. Every path must write the same bytes,
drop the same failed meshes, raise the same errors, and leave no process
behind.
"""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quasicrack import energy
from quasicrack.cases import growth_benchmark_config, linear_datum
from quasicrack.cli import load_config, main
from quasicrack.evolution import CandidatePolicy, LoadingProgram, Profile, TimeGrid, run_evolution
from quasicrack.geometry import CrackSet, Polyline
from quasicrack.mesh import MeshFailure
from quasicrack.solver import SolveFailure, scale_datum

from verification import unit_square

SRC = Path(__file__).resolve().parent.parent / "src"
CPUS = (1, 2, 3)


@pytest.fixture
def on_cpus(monkeypatch, tmp_path):
    """on_cpus(n, fn): fn() with n CPUs visible, and the pids that meshed."""
    log = tmp_path / "meshing-pids"
    triangulate = energy.triangulate

    def logging_triangulate(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return triangulate(*args)

    monkeypatch.setattr(energy, "triangulate", logging_triangulate)

    def run(n, fn):
        log.write_text("")
        if n is None:  # no CPU-set call
            monkeypatch.delattr(energy.os, "sched_getaffinity")
        else:
            monkeypatch.setattr(energy.os, "sched_getaffinity", lambda pid: set(range(n)))
        out = fn()
        assert multiprocessing.active_children() == []
        return out, set(log.read_text().split())

    return run


def outputs(state) -> tuple:
    return state.to_jsonl(), json.dumps(state.snapshots_json()), json.dumps(state.audit)


def assert_same_on_every_path(on_cpus, fn):
    """fn() on 1, 2 and 3 CPUs: equal results, meshed in this process alone
    on one CPU, and in at least as many processes as CPUs on more (a run
    and its audit fork their own helpers)."""
    results = []
    for n in CPUS:
        out, pids = on_cpus(n, fn)
        assert len(pids) >= n and (n > 1 or pids == {str(os.getpid())})
        results.append(out)
    assert results[1] == results[0] and results[2] == results[0]
    return results[0]


def audited_cli_run(tmp_path):
    """A function that runs the audited δ=1/16 benchmark through the CLI and
    returns the bytes of its files."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(growth_benchmark_config(delta=1 / 16)))
    names = ("evolution.jsonl", "cracks.json", "audit.json", "state.json")

    def cli_run():
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in names}

    return cli_run


def test_audited_benchmark_run_writes_the_same_bytes(on_cpus, tmp_path):
    files = assert_same_on_every_path(on_cpus, audited_cli_run(tmp_path))
    assert json.loads(files["audit.json"])["pass"]


def test_rounds_stay_in_process_where_the_cpu_set_cannot_be_read(on_cpus, tmp_path):
    # macOS has the "fork" start method but no os.sched_getaffinity
    cli_run = audited_cli_run(tmp_path)
    want, _ = on_cpus(1, cli_run)
    got, pids = on_cpus(None, cli_run)
    assert got == want and pids == {str(os.getpid())}


def test_sampled_loading_run_is_the_same(on_cpus):
    # the 5-sample loading of the sampled_growth benchmark workload
    dom, k0, loading, grid, policy, h_max, h_tip = load_config(growth_benchmark_config(delta=1 / 16))
    samples = tuple(
        (t, scale_datum(loading.datum, loading.profile.value(t))) for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    sampled = LoadingProgram("sampled", samples=samples)

    def run():
        state = run_evolution(dom, k0, sampled, grid, policy, h_max, h_tip)
        return (*outputs(state), state.energies[-1].total)

    *_, total = assert_same_on_every_path(on_cpus, run)
    assert total == 3.0027029029934864


def test_joint_rounds_run_the_same(on_cpus):
    # the two-tip setup of test_joint_search_matches_exhaustive_oracle, run
    dom = unit_square(dirichlet_arcs=((0, 1), (2, 3)))
    k0 = CrackSet((Polyline(((0.35, 0.5), (0.65, 0.5))),), m=1)
    loading = LoadingProgram("proportional", datum=linear_datum(0, 1), profile=Profile("linear", (2.0,)))
    policy = CandidatePolicy(angles=(-0.3, 0.0, 0.3), ell0=1 / 16, length_max=1 / 8, multi_segment=2)

    def run():
        return outputs(run_evolution(dom, k0, loading, TimeGrid(1 / 4), policy, 1 / 8, 1 / 32))

    jsonl, _, _ = assert_same_on_every_path(on_cpus, run)
    steps = [json.loads(line) for line in jsonl.splitlines()]
    assert any(len([tip for tip in s["tips"] if tip["sigma"] > 0.0]) == 2 for s in steps)


def failing_on_rungs(monkeypatch, error, rungs, log=None):
    """Make energy.triangulate raise `error` on a crack whose last segment
    is rung k of the benchmark ladder (k * 2 h_tip) for k in `rungs`."""
    triangulate = energy.triangulate

    def failing(domain, crack, h_max, h_tip):
        a, b = crack.components[0].vertices[-2:]
        k = round(math.dist(a, b) / (2.0 * h_tip))
        if k in rungs:
            if log is not None:
                with open(log, "a") as f:
                    f.write(f"{os.getpid()}\n")
            raise error(f"rung {k} refused")
        return triangulate(domain, crack, h_max, h_tip)

    monkeypatch.setattr(energy, "triangulate", failing)


def test_mesh_failures_drop_the_same_candidates(monkeypatch):
    args = load_config(growth_benchmark_config(delta=1 / 16))
    failing_on_rungs(monkeypatch, MeshFailure, {2, 5})
    runs = []
    for n in (1, 2):
        monkeypatch.setattr(energy.os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        state = run_evolution(*args, with_audit=False)
        runs.append((state.snapshots_json(), state.candidates_evaluated))
    assert runs[1] == runs[0]
    assert sum(runs[0][1]) < 275  # 275 candidates are scored when every mesh is built


def test_solve_failure_in_a_helper_reaches_the_parent(monkeypatch, tmp_path):
    # on two CPUs the first round's ten rungs go 1, 3, .. to this process and
    # 2, 4, .. to the helper: rung 4 fails there before rung 7 fails here
    args = load_config(growth_benchmark_config(delta=1 / 16))
    log = tmp_path / "failing-pids"
    failing_on_rungs(monkeypatch, SolveFailure, {4, 7}, log)
    errors = []
    for n in (1, 2):
        monkeypatch.setattr(energy.os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        with pytest.raises(SolveFailure) as err:
            run_evolution(*args, with_audit=False)
        errors.append((type(err.value), str(err.value)))
        assert multiprocessing.active_children() == []
    assert errors[1] == errors[0] == (SolveFailure, "rung 4 refused")
    assert str(os.getpid()) in log.read_text().split()
    assert len(set(log.read_text().split())) == 2  # rung 4 failed in the helper


KILLED_RUN = """
import os, sys, time
from quasicrack import cases, cli, energy, evolution

pidfile, parent, triangulate = sys.argv[1], os.getpid(), energy.triangulate

def announcing(*args):
    if os.getpid() != parent and not os.path.exists(pidfile):
        with open(pidfile + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.replace(pidfile + ".tmp", pidfile)
        time.sleep(1.0)
    return triangulate(*args)

energy.triangulate = announcing
energy.os.sched_getaffinity = lambda pid: {0, 1}
args = cli.load_config(cases.growth_benchmark_config(delta=1 / 16))
evolution.run_evolution(*args, with_audit=False)
"""


def _alive(pid: int) -> bool:
    """True while the process runs; a zombie has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_helper_exits_when_its_parent_is_killed(tmp_path):
    pidfile = tmp_path / "helper.pid"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", KILLED_RUN, str(pidfile)], env=env)
    try:
        deadline = time.monotonic() + 120
        while not pidfile.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        helper = int(pidfile.read_text())
        proc.send_signal(signal.SIGKILL)  # mid-round: the helper is meshing
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5.0
    while _alive(helper) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(helper)
