import json
import subprocess
import sys

import pytest

from quasicrack.cases import growth_benchmark_config, subcritical_benchmark_config
from quasicrack.cli import ConfigError, load_config, main, replay_state
from quasicrack.evolution import LoadingProgram, run_evolution


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "quasicrack.cli", *args],
        capture_output=True,
        text=True,
    )


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


def test_oracle_known_case():
    for case in ("slit-energy", "slit-sif", "release-rate"):
        r = run_cli("oracle", case, "--h-tip", str(1 / 64))
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines), r.stdout


def test_oracle_unknown_case():
    r = run_cli("oracle", "no-such-case")
    assert r.returncode == 2


def test_main_callable_directly(quick_config, capsys):
    d, path = quick_config
    rc = main(["run", str(path), "--output-dir", str(d / "direct")])
    assert rc == 0
