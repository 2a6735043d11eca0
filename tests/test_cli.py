import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from quasicrack.cases import growth_benchmark_config
from quasicrack.cli import ConfigError, load_config, main, replay_state
from quasicrack import evolution
from quasicrack.evolution import LoadingProgram, TimeGrid, run_evolution

from verification import subcritical_benchmark_config


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "quasicrack.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def assert_config_error(r, message=""):
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error: ") and message in r.stderr, r.stderr
    assert "Traceback" not in r.stderr


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = subcritical_benchmark_config(delta=1 / 4)
    path = d / "config.json"
    path.write_text(json.dumps(cfg))
    return d, path


def test_run_writes_outputs(quick_config):
    d, path = quick_config
    out = d / "out"
    r = run_cli("run", str(path), "--output-dir", str(out))
    assert r.returncode == 0, r.stderr
    assert (out / "evolution.jsonl").exists()
    assert (out / "cracks.json").exists()
    assert (out / "audit.json").exists()
    assert (out / "state.json").exists()
    assert "audit pass: True" in r.stdout
    audit = json.loads((out / "audit.json").read_text())
    assert "monotone_loading" in audit


def test_run_optional_field_exports(quick_config, tmp_path):
    d, path = quick_config
    cfg = json.loads(path.read_text())
    cfg["output"] = {"fields_dir": "fields"}
    p2 = tmp_path / "cfg_fields.json"
    p2.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    r = run_cli("run", str(p2), "--output-dir", str(out))
    assert r.returncode == 0, r.stderr
    files = sorted((out / "fields").glob("step_*.csv"))
    assert len(files) == 5  # delta = 1/4 -> steps at t = 0 .. 1
    assert files[0].read_text().startswith("node_id,x,y,value")


def test_run_determinism_bytes(quick_config):
    d, path = quick_config
    o1, o2 = d / "d1", d / "d2"
    assert run_cli("run", str(path), "--output-dir", str(o1)).returncode == 0
    assert run_cli("run", str(path), "--output-dir", str(o2)).returncode == 0
    b1 = (o1 / "evolution.jsonl").read_bytes()
    b2 = (o2 / "evolution.jsonl").read_bytes()
    assert b1 == b2


def test_run_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": {"polygon": [[0, 0], [1, 0]]}}))
    r = run_cli("run", str(bad))
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_run_delta_above_one_is_config_error(quick_config, tmp_path):
    _, path = quick_config
    cfg = json.loads(path.read_text())
    cfg["delta"] = 2
    bad = tmp_path / "delta2.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    r = run_cli("run", str(bad), "--output-dir", str(out))
    assert r.returncode == 2
    assert "config error" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "section, values",
    [
        ("mesh", {"h_tip": 0}),
        ("mesh", {"h_tip": -1 / 64}),
        ("mesh", {"h_tip": 0.25}),  # above h_max
        ("mesh", {"h_max": math.inf}),
        ("mesh", {"h_tip": math.nan}),
        ("policy", {"ell0": 0}),
        ("policy", {"length_max": -0.1}),
        ("policy", {"ell0": 1 / 128}),  # a rung shorter than h_tip
        ("policy", {"length_max": 0.01}),  # below ell0 = 1/32: a ladder without a rung
    ],
)
def test_bad_sizes_are_config_errors(section, values):
    # a zero size would otherwise bisect forever near a tip
    cfg = subcritical_benchmark_config(delta=1 / 4)
    cfg[section].update(values)
    with pytest.raises(ConfigError):
        load_config(cfg)


@pytest.mark.parametrize(
    "ts, values, message",
    [
        ([0], [0], "must cover t=0 and t=1"),
        ([0, 1], [0, 0.5, 1], "one value per knot"),
        ([1, 0], [0, 1], "must cover t=0 and t=1"),
        ([0, 0, 1], [0, 0.5, 1], "must be strictly increasing"),
    ],
)
def test_malformed_pw_linear_profile_exits_2(quick_config, tmp_path, ts, values, message):
    # phi would be undefined between the knots, or the run would crash
    _, path = quick_config
    cfg = json.loads(path.read_text())
    cfg["loading"]["profile"] = {"type": "pw_linear", "ts": ts, "values": values}
    bad = tmp_path / "pw.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert_config_error(run_cli("run", str(bad), "--output-dir", str(out), timeout=60), message)
    assert not out.exists()


def sampled(cfg, sample=None, **extra):
    """`cfg`'s datum sampled at t = 0 and 1, with extra keys in the loading
    or in its first sample."""
    samples = [{"t": t, "datum": cfg["loading"]["datum"]} for t in (0.0, 1.0)]
    samples[0].update(sample or {})
    return {"mode": "sampled", "samples": samples, **extra}


@pytest.mark.parametrize(
    "typo, edit",
    [
        # an all-Neumann domain
        (
            "dirichlet_arc",
            lambda c: c["domain"].update(dirichlet_arc=c["domain"].pop("dirichlet_arcs")),
        ),
        # a profile at rate 1.0
        ("rte", lambda c: c["loading"].update(profile={"type": "linear", "rte": 3})),
        # a datum with cx = 1.0
        ("cX", lambda c: c["loading"].update(datum={"type": "linear", "cX": 5})),
        # keys that were never read, in every other section
        ("M", lambda c: c.update(M=2)),
        ("h_tipp", lambda c: c["mesh"].update(h_tipp=1 / 128)),
        ("enable", lambda c: c["audit"].update(enable=False)),  # the audit ran
        ("samples", lambda c: c["loading"].update(samples=[])),
        ("profile", lambda c: c.update(loading=sampled(c, profile={"type": "linear"}))),
        ("datum_", lambda c: c.update(loading=sampled(c, sample={"datum_": {"type": "zero"}}))),
        ("jsonl", lambda c: c.update(output={"jsonl": "run.jsonl"})),  # a file once renamed
        # a value of the wrong type: the message names it
        ("no", lambda c: c["audit"].update(enabled="no")),
        (2.5, lambda c: c["audit"].update(monotone_pairs=2.5)),
        (-1, lambda c: c["audit"].update(monotone_pairs=-1)),
        (5, lambda c: c.update(output={"fields_dir": 5})),
        ([], lambda c: c.update(audit=[])),
        ([], lambda c: c.update(policy=[])),
        # a count that is not an integer, or a number that is a boolean
        (1.7, lambda c: c.update(m=1.7)),
        (True, lambda c: c.update(m=True)),
        ("2", lambda c: c.update(m="2")),
        (2.5, lambda c: c["policy"].update(multi_segment=2.5)),
        (True, lambda c: c["policy"].update(multi_segment=True)),
        (True, lambda c: c["policy"].update(theta_max=True)),
        (True, lambda c: c["policy"].update(length_max=True)),
        ("0", lambda c: c["policy"].update(angles="0")),
        (True, lambda c: c.update(delta=True)),
        (True, lambda c: c["mesh"].update(h_max=True)),
        (True, lambda c: c["loading"]["profile"].update(rate=True)),
        ("3", lambda c: c["loading"].update(datum={"type": "linear", "cx": "3"})),
        (True, lambda c: c["loading"].update(datum={"type": "mode3", "tip": [True, 0.0]})),
        # a coordinate that is a boolean, or an arc index that is not an integer
        (False, lambda c: c.update(initial_crack=[[[False, 0.0], [0.7, 0.0]]])),
        (True, lambda c: c["domain"]["polygon"][0].__setitem__(0, True)),
        (1.7, lambda c: c["domain"].update(dirichlet_arcs=[[0, 1.7], [2, 3]])),
        # NaN and Infinity, which Python's json reads and RFC 8259 has not
        (math.inf, lambda c: c["policy"].update(length_max=math.inf)),
        (math.inf, lambda c: c["loading"]["datum"].update(h0=math.inf)),
        (
            math.nan,
            lambda c: c["loading"].update(
                profile={"type": "affine_sqrt", "amp": math.nan, "c0": 1.0, "c1": 1.0}
            ),
        ),
        (math.nan, lambda c: c["policy"].update(theta_max=math.nan)),
        # an integer that Python's json reads exactly and that has no finite float
        (10**400, lambda c: c["mesh"].update(h_max=10**400)),
        (10**400, lambda c: c.update(delta=10**400)),
        (10**400, lambda c: c["policy"].update(length_max=10**400)),
        (10**400, lambda c: c.update(initial_crack=[[[10**400, 0.0], [0.7, 0.0]]])),
        (10**400, lambda c: c["loading"]["datum"].update(h0=10**400)),
    ],
    ids=[
        "domain",
        "profile",
        "datum",
        "top_level",
        "mesh",
        "audit",
        "proportional_loading",
        "sampled_loading",
        "sample",
        "output",
        "audit_enabled_type",
        "monotone_pairs_type",
        "monotone_pairs_negative",
        "fields_dir_type",
        "section_type",
        "policy_type",
        "m_float",
        "m_bool",
        "m_string",
        "multi_segment_float",
        "multi_segment_bool",
        "theta_max_bool",
        "length_max_bool",
        "angles_string",
        "delta_bool",
        "h_max_bool",
        "profile_bool",
        "datum_string",
        "datum_tip_bool",
        "crack_vertex_bool",
        "polygon_vertex_bool",
        "arc_index_float",
        "length_max_infinity",
        "datum_infinity",
        "profile_nan",
        "theta_max_nan",
        "h_max_huge_integer",
        "delta_huge_integer",
        "length_max_huge_integer",
        "crack_vertex_huge_integer",
        "datum_huge_integer",
    ],
)
def test_run_unknown_config_key_exits_2(quick_config, tmp_path, typo, edit):
    # a misspelt key is rejected, not run at its default
    _, path = quick_config
    cfg = json.loads(path.read_text())
    edit(cfg)
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert_config_error(run_cli("run", str(bad), "--output-dir", str(out), timeout=60), repr(typo))
    assert not out.exists()


def test_readme_config_example_is_the_benchmark_and_loads():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("A config file looks like:\n\n```json\n", 1)[1].split("```", 1)[0]
    example = json.loads(block)
    cfg = growth_benchmark_config()
    del cfg["audit"]
    assert example == cfg
    load_config(example)


def test_ell0_equal_to_h_tip_is_accepted():
    cfg = subcritical_benchmark_config(delta=1 / 4)
    cfg["policy"]["ell0"] = cfg["mesh"]["h_tip"]
    *_, policy, _, h_tip = load_config(cfg)
    assert policy.step_lengths(h_tip)[0] == h_tip


def test_run_zero_tip_size_exits_2(quick_config, tmp_path):
    _, path = quick_config
    cfg = json.loads(path.read_text())
    cfg["mesh"]["h_tip"] = 0
    bad = tmp_path / "h0.json"
    bad.write_text(json.dumps(cfg))
    assert_config_error(run_cli("run", str(bad), timeout=60), "h_tip")


def test_run_unmeshable_initial_crack_exits_2(quick_config, tmp_path):
    _, path = quick_config
    cfg = json.loads(path.read_text())
    cfg["initial_crack"] = [[[0.0, 0.0], [5.0, 0.0]]]  # leaves the strip
    bad = tmp_path / "outside.json"
    bad.write_text(json.dumps(cfg))
    r = run_cli("run", str(bad), "--output-dir", str(tmp_path / "out"), timeout=60)
    assert_config_error(r, "crack leaves the closure of the domain")


@pytest.fixture(scope="module")
def saved_state(quick_config):
    d, path = quick_config
    out = d / "saved"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    return json.loads((out / "state.json").read_text())


@pytest.mark.parametrize(
    "components, message",
    [
        ([[[0.1, 0.0], [0.5, 0.0], [0.3, 0.1], [0.3, -0.1]]], "polyline self-intersects"),
        ([[[0.0, 0.0], [5.0, 0.0]]], "crack leaves the closure of the domain"),
    ],
)
def test_audit_of_a_bad_snapshot_crack_exits_2(saved_state, tmp_path, components, message):
    payload = json.loads(json.dumps(saved_state))
    payload["snapshots"]["steps"][0]["components"] = components
    p = tmp_path / "state.json"
    p.write_text(json.dumps(payload))
    assert_config_error(run_cli("audit", str(p), timeout=60), message)


def test_audit_from_state(quick_config):
    d, path = quick_config
    out = d / "for_audit"
    assert run_cli("run", str(path), "--output-dir", str(out)).returncode == 0
    r = run_cli("audit", str(out / "state.json"), "--out", str(d / "report.json"))
    assert r.returncode == 0, r.stderr
    assert "audit pass: True" in r.stdout
    rep = json.loads((d / "report.json").read_text())
    assert rep["irreversibility"]["pass"]


def test_replay_then_save_is_byte_identical(quick_config, tmp_path):
    d, path = quick_config
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    replay_state(str(out / "state.json")).save(str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == (out / "state.json").read_bytes()


def test_library_run_replay_then_save_is_byte_identical(tmp_path):
    # a state made by run_evolution, not by the CLI, saves its loading in
    # the form load_config reads
    cfg = subcritical_benchmark_config(delta=1 / 4)
    state = run_evolution(*load_config(cfg))
    state.save(str(tmp_path / "state.json"))
    replay_state(str(tmp_path / "state.json")).save(str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "state.json").read_bytes()


def test_python_built_loading_saves_null_and_is_not_replayed(tmp_path):
    domain, crack, loading, grid, policy, h_max, h_tip = load_config(
        subcritical_benchmark_config(delta=1 / 2)
    )
    loading = LoadingProgram("proportional", datum=loading.datum, profile=loading.profile)
    state = run_evolution(
        domain, crack, loading, grid, policy, h_max, h_tip, with_audit=False
    )
    state.save(str(tmp_path / "state.json"))
    assert json.loads((tmp_path / "state.json").read_text())["config"]["loading"] is None
    with pytest.raises(ConfigError):
        replay_state(str(tmp_path / "state.json"))


def test_audit_reads_retired_policy_keys_at_their_defaults(quick_config, tmp_path):
    # state files written before the one-search step carry these two keys
    d, path = quick_config
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    payload = json.loads((out / "state.json").read_text())
    assert not {"budget", "allow_all_tips"} & set(payload["config"]["policy"])

    def audit_with(name, **policy):
        p = tmp_path / f"{name}.json"
        old = json.loads(json.dumps(payload))
        old["config"]["policy"].update(policy)
        p.write_text(json.dumps(old))
        return main(["audit", str(p), "--out", str(tmp_path / f"{name}_report.json")])

    assert audit_with("plain") == 0
    assert audit_with("old", budget=4096, allow_all_tips=True) == 0
    assert (tmp_path / "old_report.json").read_bytes() == (
        tmp_path / "plain_report.json"
    ).read_bytes()
    assert audit_with("sequential", budget=4096, allow_all_tips=False) == 2
    assert audit_with("small_budget", budget=10, allow_all_tips=True) == 2


def test_audit_ignores_the_retired_lambda_diagnostic(saved_state, tmp_path):
    # state files written before the key was retired carry it, with these
    # values for this run
    assert "lambda_diagnostic" not in saved_state
    old = dict(
        saved_state,
        lambda_diagnostic={"max_grad_norm": 0.7527081942631394, "max_surface": 0.7, "solves": 11},
    )
    reports = []
    for name, payload in (("new", saved_state), ("old", old)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1))
        assert main(["audit", str(path), "--out", str(tmp_path / f"{name}_report.json")]) == 0
        reports.append((tmp_path / f"{name}_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--delta-list", "1/2"], ["audit"]], ids=["run", "sweep", "audit"]
)
def test_a_file_without_a_json_object_exits_2(tmp_path, command):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    r = run_cli(command[0], str(p), *command[1:], timeout=60)
    assert_config_error(r, "does not hold a JSON object")


def test_audit_bad_state(tmp_path):
    p = tmp_path / "nope.json"
    p.write_text("{}")
    assert run_cli("audit", str(p)).returncode == 2


def test_sweep(quick_config):
    d, path = quick_config
    r = run_cli(
        "sweep", str(path), "--delta-list", "1/2,1/4", "--out", str(d / "sweep.json")
    )
    assert r.returncode == 0, r.stderr
    rows = json.loads((d / "sweep.json").read_text())
    assert [row["delta"] for row in rows] == [0.5, 0.25]


def test_sweep_searches_once_per_time_step(tmp_path, monkeypatch):
    # the sweep reads only the energy balance, so it re-runs no audit search
    search, calls = evolution._minimize_step, []

    def counting(*args):
        calls.append(args[1])
        return search(*args)

    monkeypatch.setattr(evolution, "_minimize_step", counting)
    path = tmp_path / "benchmark.json"
    path.write_text(json.dumps(growth_benchmark_config()))
    out = tmp_path / "sweep.json"
    assert main(["sweep", str(path), "--delta-list", "1/8", "--out", str(out)]) == 0
    assert len(calls) == len(TimeGrid(1 / 8).times()) == 9
    (row,) = json.loads(out.read_text())
    assert row["one_sided_defect"] == 0.002309282235175125
    assert row["growth_steps"] == 5


def test_sweep_zero_denominator_exits_2(quick_config):
    _, path = quick_config
    r = run_cli("sweep", str(path), "--delta-list", "1/4,1/0", timeout=60)
    assert_config_error(r)


def test_oracle_known_case():
    for case in ("slit-energy", "slit-sif", "release-rate"):
        r = run_cli("oracle", case, "--h-tip", str(1 / 64))
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines), r.stdout


def test_release_rate_oracle_meshes_each_crack_once(monkeypatch):
    # one three-datum evaluator: the base crack and its two extensions,
    # each meshed once, and the lines of one single-datum path per kappa
    import quasicrack.energy
    from quasicrack.cases import mode3_datum, slit_disk_crack, slit_disk_domain
    from quasicrack.cli import _oracle_release_rate
    from quasicrack.geometry import crack_tips
    from quasicrack.mesh import triangulate
    from quasicrack.sif import fit_sif
    from quasicrack.solver import solve
    from verification import release_rate_richardson

    h_tip = 1 / 64
    meshes = []

    def counting(*args):
        meshes.append(args[1].fingerprint())
        return triangulate(*args)

    monkeypatch.setattr(quasicrack.energy, "triangulate", counting)
    got = [label for label, _ in _oracle_release_rate(h_tip)]
    assert len(meshes) == 3 and len(set(meshes)) == 3
    monkeypatch.undo()

    domain, crack = slit_disk_domain(), slit_disk_crack()
    tip = crack_tips(crack)[1]
    mesh = triangulate(domain, crack, 32 * h_tip, h_tip)
    want = []
    for kap in (0.0, 0.5, 1.0):
        g = mode3_datum(kap)
        k_fit = fit_sif(solve(mesh, g), tip, 16 * h_tip, 64 * h_tip).kappa if kap else 0.0
        fd = release_rate_richardson(domain, crack, g, tip, 32 * h_tip, h_tip)
        gap = abs(fd - (1.0 - k_fit**2))
        want.append(
            f"release-rate kappa={kap:g}: fd={fd:.4f} fit-law={1.0 - k_fit ** 2:.4f} gap={gap:.4f}"
        )
    assert got == want


def test_oracle_unknown_case():
    r = run_cli("oracle", "no-such-case")
    assert r.returncode == 2


@pytest.mark.parametrize("h_tip", ["0", "-0.01", "inf"])
def test_oracle_rejects_a_size_that_is_not_positive(h_tip):
    assert_config_error(run_cli("oracle", "slit-energy", f"--h-tip={h_tip}", timeout=60))


def test_taper_growth_oracle_takes_no_tip_size():
    # it runs the growth benchmark at that benchmark's own resolution
    r = run_cli("oracle", "taper-growth", "--h-tip", str(1 / 128), timeout=60)
    assert_config_error(r, "taper-growth")


def test_main_callable_directly(quick_config, capsys):
    d, path = quick_config
    rc = main(["run", str(path), "--output-dir", str(d / "direct")])
    assert rc == 0
