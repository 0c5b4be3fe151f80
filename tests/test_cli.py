"""End-to-end command line flows and their on-disk artifacts."""

import csv
import json

import pytest

from spde_manifold.cli import main
from spde_manifold.config import config_hash, load_config

MANIFEST_KEYS = {
    "artifact_version", "command", "config", "config_hash", "model_hash",
    "manifold_hash", "seed", "timestamp", "outputs", "summary",
}


def read_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_dir_for(root, command, source, seed):
    cfg = load_config(source)
    return root / f"{command}-{config_hash(cfg)[:12]}-seed{seed}"


# -- check ---------------------------------------------------------------------


def test_check_tangent_exit_zero(out_root, capsys):
    rc = main(["check", "--config", "ito_zero", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "verdict: tangent" in captured.out
    rundir = run_dir_for(out_root, "check", "ito_zero", 1)
    assert str(rundir) in captured.out
    for name in ("report.json", "report.csv", "manifest.json"):
        assert (rundir / name).is_file()

    manifest = json.loads((rundir / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["artifact_version"] == 1
    assert manifest["command"] == "check"
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert manifest["summary"]["verdict"] == "tangent"
    assert manifest["config"] == load_config("ito_zero")

    report = json.loads((rundir / "report.json").read_text())
    assert report["verdict"] == "tangent"
    assert report["metadata"]["config_hash"] == manifest["config_hash"]
    header, rows = read_csv(rundir / "report.csv")
    assert len(rows) == manifest["summary"]["points"]  # one noise component


def test_check_negative_exit_two(out_root, capsys):
    rc = main(["check", "--config", "negative_control", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "verdict: not_tangent" in captured.out
    manifest_path = run_dir_for(out_root, "check", "negative_control", 7) / "manifest.json"
    assert json.loads(manifest_path.read_text())["summary"]["verdict"] == "not_tangent"


def test_check_unknown_config_exit_one(out_root, capsys):
    rc = main(["check", "--config", "nope", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
    assert "neither a preset nor a file" in captured.err


def test_check_invalid_sampling_exit_one(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "bad_method.json"
    cfg_path.write_text(json.dumps({"preset": "ito_zero", "check": {"method": "sobol"}}))
    rc = main(["check", "--config", str(cfg_path), "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_unknown_check_enum_exit_one(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "bad_jac.json"
    cfg_path.write_text(json.dumps({"preset": "ito_zero", "check": {"jac_mode": "analytc"}}))
    rc = main(["check", "--config", str(cfg_path), "--out", str(out_root)])
    assert rc == 1
    assert "check.jac_mode" in capsys.readouterr().err
    assert not any(out_root.iterdir())


def test_threads_option_is_gone(out_root, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "ito_zero", "--threads", "2", "--out", str(out_root)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


# -- simulate --------------------------------------------------------------------


def test_simulate_writes_trajectory(out_root, capsys):
    rc = main(["simulate", "--config", "ito_zero", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "max distance to chart:" in captured.out
    rundir = run_dir_for(out_root, "simulate", "ito_zero", 1)
    header, rows = read_csv(rundir / "trajectory.csv")
    assert header == ["path", "step", "time", "x_0", "dist", "coupled_err"]
    cfg = load_config("ito_zero")
    steps = round(cfg["sim"]["horizon"] / cfg["sim"]["dt"])
    assert len(rows) == cfg["sim"]["paths"] * (steps + 1)

    manifest = json.loads((rundir / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    summary = manifest["summary"]
    assert summary["paths"] == cfg["sim"]["paths"]
    assert summary["steps"] == steps
    assert summary["verdict"] == "tangent"
    assert summary["n_exited"] == 0 and summary["n_exploded"] == 0
    assert summary["max_coupled_err"] == 0.0
    assert summary["n_unconverged_distance"] == 0
    assert summary["max_spill"] >= 0.0


def test_simulate_seed_override(out_root, capsys):
    rc = main(["simulate", "--config", "ito_zero", "--seed", "99",
               "--out", str(out_root)])
    capsys.readouterr()
    assert rc == 0
    rundir = run_dir_for(out_root, "simulate", "ito_zero", 99)
    assert rundir.name.endswith("-seed99")
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["seed"] == 99
    # the stored config still carries its own seed; the override is a run fact
    assert manifest["config"]["sim"]["seed"] == 1


def test_out_root_from_environment(tmp_path, monkeypatch, capsys):
    root = tmp_path / "envruns"
    monkeypatch.setenv("SPDE_MANIFOLD_OUT", str(root))
    monkeypatch.chdir(tmp_path)
    rc = main(["check", "--config", "ito_zero"])
    capsys.readouterr()
    assert rc == 0
    assert run_dir_for(root, "check", "ito_zero", 1).is_dir()


def test_pinned_epoch_pins_timestamp(out_root, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rc = main(["check", "--config", "ito_zero", "--out", str(out_root)])
    capsys.readouterr()
    assert rc == 0
    manifest_path = run_dir_for(out_root, "check", "ito_zero", 1) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["timestamp"] == "2023-11-14T22:13:20+00:00"


# -- report ------------------------------------------------------------------------


def test_report_aggregates_runs(out_root, capsys):
    assert main(["check", "--config", "ito_zero", "--out", str(out_root)]) == 0
    assert main(["simulate", "--config", "ito_zero", "--out", str(out_root)]) == 0
    capsys.readouterr()
    rc = main(["report", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 0
    header, rows = read_csv(out_root / "summary.csv")
    assert header == ["run", "command", "config_hash", "seed", "verdict",
                      "metric", "timestamp"]
    assert len(rows) == 2
    by_command = {r[1]: r for r in rows}
    assert set(by_command) == {"check", "simulate"}
    assert by_command["check"][4] == "tangent"
    float(by_command["check"][5])  # max residual
    float(by_command["simulate"][5])  # max distance
    for row in rows:
        assert row[0] in captured.out


def test_report_empty_root_exit_one(out_root, capsys):
    rc = main(["report", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no run manifests" in captured.err


def test_report_resolution_refinement_is_monotone(out_root, tmp_path, capsys):
    """Cranking the working order must tighten the checked residuals."""
    orders = (16, 32, 64)
    residuals = {}
    for n in orders:
        cfg_doc = {
            "preset": "ito_translation_d1",
            "model": {"N": n},
            "check": {"points_per_axis": 3},
        }
        path = tmp_path / f"order{n}.json"
        path.write_text(json.dumps(cfg_doc))
        assert main(["check", "--config", str(path), "--out", str(out_root)]) == 0
        rundir = run_dir_for(out_root, "check", cfg_doc, load_config(cfg_doc)["sim"]["seed"])
        residuals[n] = json.loads((rundir / "manifest.json").read_text())["summary"]["max_residual"]
    capsys.readouterr()
    assert main(["report", "--out", str(out_root)]) == 0
    capsys.readouterr()
    _, rows = read_csv(out_root / "summary.csv")
    assert len(rows) == len(orders)
    assert residuals[16] > residuals[32] > residuals[64]
    assert residuals[64] < 1e-12
