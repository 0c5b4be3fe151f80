"""End-to-end command line flows and their on-disk artifacts."""

import csv
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

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


def test_check_artifact_layout_and_rerun_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    written = []
    for root in (tmp_path / "first", tmp_path / "second"):
        assert main(["check", "--config", "negative_control", "--out", str(root)]) == 2
        (rundir,) = root.iterdir()
        written.append({p.name: p.read_bytes() for p in rundir.iterdir()})
    capsys.readouterr()
    first, second = written
    assert set(first) == {"report.json", "report.csv", "manifest.json"}
    assert first == second  # a rerun writes the same bytes
    report = first["report.json"].decode()
    assert report.endswith("\n") and report.count("\n") == 1  # one compact line
    assert json.loads(report)["verdict"] == "not_tangent"
    manifest = first["manifest.json"].decode()
    assert manifest == json.dumps(json.loads(manifest), sort_keys=True, indent=2) + "\n"


def test_check_summary_reports_step_disagreement(out_root, tmp_path, capsys):
    assert main(["check", "--config", "ito_zero", "--out", str(out_root)]) == 0
    manifest = run_dir_for(out_root, "check", "ito_zero", 1) / "manifest.json"
    # the preset's derivative is analytic: no step to disagree
    assert json.loads(manifest.read_text())["summary"]["max_step_disagreement"] == 0.0

    source = {
        "preset": "ito_translation_d1",
        "model": {"N": 16},
        "check": {"points_per_axis": 3, "da_mode": "fd"},
    }
    cfg_path = tmp_path / "fd.json"
    cfg_path.write_text(json.dumps(source))
    assert main(["check", "--config", str(cfg_path), "--out", str(out_root)]) == 0
    capsys.readouterr()
    manifest = run_dir_for(out_root, "check", source, 2024) / "manifest.json"
    value = json.loads(manifest.read_text())["summary"]["max_step_disagreement"]
    assert 0.0 < value < 1e-5  # finite differences, well below the warning level


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


def test_simulate_string_record_distance_exit_one(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "string_flag.json"
    cfg_path.write_text(json.dumps({"preset": "ito_zero", "sim": {"record_distance": "false"}}))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "sim.record_distance" in captured.err
    assert not any(out_root.glob("*/manifest.json"))


def test_unknown_check_enum_exit_one(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "bad_jac.json"
    cfg_path.write_text(json.dumps({"preset": "ito_zero", "check": {"jac_mode": "analytc"}}))
    rc = main(["check", "--config", str(cfg_path), "--out", str(out_root)])
    assert rc == 1
    assert "check.jac_mode" in capsys.readouterr().err
    assert not any(out_root.iterdir())


def test_config_its_model_rejects_exit_one(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "p_below_two.json"
    cfg_path.write_text(json.dumps({"preset": "plaplace_p2_eigen", "model": {"p": 1.5}}))
    rc = main(["check", "--config", str(cfg_path), "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: model: exponent must satisfy p >= 2\n"
    assert not any(out_root.iterdir())


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_config_its_sim_config_rejects_exit_one(command, out_root, tmp_path, capsys):
    cfg_path = tmp_path / "nan_dt.json"
    cfg_path.write_text(json.dumps({"preset": "ito_zero", "sim": {"dt": float("nan")}}))
    rc = main([command, "--config", str(cfg_path), "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: sim.dt must be finite and positive, got nan\n"
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
    assert summary["coupled_err_mean"] == 0.0 and summary["coupled_err_sem"] == 0.0
    assert summary["n_unconverged_distance"] == 0
    assert isinstance(summary["distance_iterations"], int) and summary["distance_iterations"] > 0
    assert summary["max_spill"] >= 0.0


def test_simulate_summary_reports_the_reduced_table(out_root, capsys):
    assert main(["simulate", "--config", "ito_translation_d1", "--out", str(out_root)]) == 0
    assert "(0 at a degenerate frame)" in capsys.readouterr().out
    rundir = run_dir_for(out_root, "simulate", "ito_translation_d1", 2024)
    summary = json.loads((rundir / "manifest.json").read_text())["summary"]
    assert summary["n_degenerate_frame"] == 0
    # K = 32 first-kind nodes resolve the transport coefficients on [-2, 2]
    assert summary["reduced_table_nodes"] == 32
    assert 0.0 < summary["reduced_table_error"] <= 1e-12


@pytest.mark.parametrize("x0", [3.0, float("nan")])
def test_simulate_x0_outside_the_chart_box_exit_one(x0, out_root, tmp_path, capsys):
    cfg_path = tmp_path / "x0.json"
    source = {"preset": "ito_translation_d1", "sim": {"x0": [x0], "paths": 2, "horizon": 0.01}}
    cfg_path.write_text(json.dumps(source))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_root)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: sim.x0 must lie in the chart box")
    assert not any(out_root.iterdir())


def test_simulate_chart_of_five_coordinates(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "span5.json"
    cfg_path.write_text(json.dumps({
        "model": {"type": "plaplace", "p": 2.0, "M": 16, "fields": [{"kind": "sine", "k": 1}]},
        "manifold": {
            "type": "span",
            "vectors": [{"kind": "sine", "k": k} for k in range(1, 6)],
            "domain": [[-1, 1]] * 5,
        },
        "check": {"points_per_axis": 2},
        "sim": {"x0": [0.1, 0.2, 0.0, -0.1, 0.3], "paths": 2, "horizon": 0.01, "dt": 1e-3},
    }))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_root)]) == 0
    assert "exited: 0 (0 at a degenerate frame)" in capsys.readouterr().out
    rundir = next(out_root.iterdir())
    summary = json.loads((rundir / "manifest.json").read_text())["summary"]
    assert summary["reduced_table_nodes"] == 4**5
    assert summary["reduced_table_error"] <= 1e-12


def test_simulate_reduced_table_error_is_null_under_fd_frames(out_root, tmp_path, capsys):
    cfg_path = tmp_path / "fd.json"
    cfg_path.write_text(json.dumps({
        "preset": "ito_translation_d1",
        "check": {"jac_mode": "fd"},
        "sim": {"paths": 2, "horizon": 0.01},
    }))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_root)]) == 0
    rundir = next(out_root.iterdir())
    assert json.loads((rundir / "manifest.json").read_text())["summary"]["reduced_table_error"] is None


def test_simulate_unresolved_reduced_table_exit_one(out_root, tmp_path, capsys):
    # p = 3 on the span of one sine mode: beta is proportional to |x| x, whose
    # Chebyshev coefficients decay only algebraically
    cfg_path = tmp_path / "p3_span.json"
    cfg_path.write_text(json.dumps({
        "model": {"type": "plaplace", "p": 3.0, "M": 16, "fields": []},
        "manifold": {"type": "span", "vectors": [{"kind": "sine", "k": 1}], "domain": [[-1, 1]]},
        "sim": {"x0": [0.5], "horizon": 0.01, "dt": 1e-3},
    }))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_root)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: manifold: no Chebyshev table")
    assert not any(out_root.iterdir())


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


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("seed", ["-5", str(2**128)])
def test_seed_outside_the_philox_key_range_is_an_error(out_root, capsys, command, seed):
    rc = main([command, "--config", "ito_zero", "--seed", seed, "--out", str(out_root)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --seed: seed must be in [0, 2**128)")
    assert not any(out_root.iterdir())


def test_module_form_runs_a_command(out_root):
    # `python -m spde_manifold.cli` from a checkout, without installing the package
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    cmd = [sys.executable, "-m", "spde_manifold.cli"]
    run = partial(subprocess.run, env=env, capture_output=True, text=True, timeout=120)
    done = run(cmd + ["check", "--config", "ito_zero", "--out", str(out_root)])
    assert done.returncode == 0
    assert "RUNDIR " in done.stdout
    done = run(cmd + ["simulate", "--config", "ito_zero", "--seed", "-5"], cwd=out_root)
    assert done.returncode == 1
    assert done.stderr.startswith("error: --seed")


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


def test_check_then_report_in_one_process(out_root, capsys):
    assert main(["check", "--config", "ito_zero", "--out", str(out_root)]) == 0
    assert main(["report", "--out", str(out_root)]) == 0
    assert str(run_dir_for(out_root, "check", "ito_zero", 1)) in capsys.readouterr().out
    header, rows = read_csv(out_root / "summary.csv")
    assert [(r[1], r[4]) for r in rows] == [("check", "tangent")]


def test_report_quotes_a_run_name_with_a_comma(out_root, capsys):
    assert main(["check", "--config", "ito_zero", "--out", str(out_root)]) == 0
    run_dir_for(out_root, "check", "ito_zero", 1).rename(out_root / "run, copy")
    assert main(["report", "--out", str(out_root)]) == 0
    capsys.readouterr()
    header, rows = read_csv(out_root / "summary.csv")
    assert [r[:2] for r in rows] == [["run, copy", "check"]]
    assert all(len(r) == len(header) for r in rows)


def test_report_empty_root_exit_one(out_root, capsys):
    rc = main(["report", "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no run manifests" in captured.err


@pytest.mark.parametrize(
    "text",
    ["{bad", "[1, 2]", json.dumps({"command": "simulate", "summary": {"max_distance": "x"}})],
)
def test_report_fails_cleanly_on_a_bad_manifest(out_root, capsys, text):
    assert main(["check", "--config", "ito_zero", "--out", str(out_root)]) == 0
    bad = out_root / "broken" / "manifest.json"
    bad.parent.mkdir()
    bad.write_text(text)
    capsys.readouterr()
    assert main(["report", "--out", str(out_root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


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
