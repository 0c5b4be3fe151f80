"""Command line front end: check, simulate, report.

``check`` sweeps the tangency conditions for a config and writes a
report; ``simulate`` runs the coupled full/reduced comparison;
``report`` aggregates the manifests under an output root.  Exit code 0
means success (and, for check, a tangent verdict), 2 means the check
ran fine but the verdict is negative, 1 means an error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    config_hash,
    load_config,
    manifold_hash,
    model_hash,
    preset_names,
    sweep_config,
)
from .manifold import DegenerateChartError
from .simulate import ReducedTableError, coupled_compare
from .tangency import (
    VERDICT_TANGENT,
    FormDisagreementError,
    InvalidSamplingError,
    sweep,
)

ARTIFACT_VERSION = 1

__all__ = ["main", "entrypoint"]


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(timezone.utc)
    return moment.isoformat()


def _out_root(arg) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("SPDE_MANIFOLD_OUT")
    return Path(env) if env else Path("runs")


def _write_json(path: Path, obj, compact: bool = False) -> None:
    layout = {"separators": (",", ":")} if compact else {"indent": 2}  # indent takes json's slow path
    path.write_text(json.dumps(obj, sort_keys=True, **layout) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _manifest(command: str, cfg: dict, seed: int, outputs, summary) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "model_hash": model_hash(cfg),
        "manifold_hash": manifold_hash(cfg),
        "seed": seed,
        "timestamp": _timestamp(),
        "outputs": sorted(outputs),
        "summary": summary,
    }


def _run_dir(root: Path, command: str, cfg: dict, seed: int) -> Path:
    path = root / f"{command}-{config_hash(cfg)[:12]}-seed{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sim_config(cfg, seed):
    """The config's SimConfig, at the ``--seed`` override if one is given."""
    try:
        return cfg.built[2] if seed is None else dataclasses.replace(cfg.built[2], seed=seed)
    except ValueError as err:
        raise ConfigError(f"--seed: {err}") from err


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    seed = _sim_config(cfg, args.seed).seed
    model, param, _ = cfg.built
    report = sweep(model, param, **sweep_config(cfg), metadata={"config_hash": config_hash(cfg)})
    rundir = _run_dir(_out_root(args.out), "check", cfg, seed)
    _write_json(rundir / "report.json", report.to_json_dict(), compact=True)
    header, rows = report.to_csv_rows()
    _write_csv(rundir / "report.csv", header, rows)
    summary = {
        "verdict": report.verdict,
        "max_residual": report.max_residual,
        "points": int(report.points.shape[0]),
        "n_degenerate": int(report.degenerate.sum()),
        "form_agreement": report.form_agreement,
        "max_step_disagreement": report.max_step_disagreement,
        "n_warnings": len(report.warnings),
    }
    manifest = _manifest(
        "check", cfg, seed, ["report.json", "report.csv", "manifest.json"], summary
    )
    _write_json(rundir / "manifest.json", manifest)
    print(f"verdict: {report.verdict}")
    print(f"max residual: {report.max_residual:.6e}")
    print(f"points: {summary['points']} ({summary['n_degenerate']} degenerate)")
    if report.form_agreement is not None:
        print(f"form agreement: {report.form_agreement:.6e}")
    for note in report.warnings[:5]:
        print(f"warning: {note}")
    print(f"RUNDIR {rundir}")
    return 0 if report.verdict == VERDICT_TANGENT else 2


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim_cfg = _sim_config(cfg, args.seed)
    seed = sim_cfg.seed
    model, param, _ = cfg.built
    report = sweep(model, param, **sweep_config(cfg))
    record = coupled_compare(model, param, cfg["sim"]["x0"], sim_cfg, verdict=report.verdict)
    # the table against the sweep's coefficients off its nodes (beta from the bracket form);
    # null under jac_mode fd, whose frames the table's need not share
    a, beta, _ = record.table(report.points)
    gaps = [a - report.a_coords] + [beta - report.beta] * (cfg["check"]["form"] != "stratonovich")
    summary = record.summary
    summary["reduced_table_error"] = None if cfg["check"]["jac_mode"] == "fd" else max(
        float(np.nanmax(abs(g), initial=0.0)) for g in gaps
    )
    rundir = _run_dir(_out_root(args.out), "simulate", cfg, seed)
    header, rows = record.to_csv_rows()
    _write_csv(rundir / "trajectory.csv", header, rows)
    manifest = _manifest("simulate", cfg, seed, ["trajectory.csv", "manifest.json"], summary)
    _write_json(rundir / "manifest.json", manifest)
    print(f"verdict: {report.verdict}")
    print(f"paths: {summary['paths']}  steps: {summary['steps']}")
    max_dist = summary["max_distance"]
    print("max distance to chart: " + ("not recorded" if max_dist is None else f"{max_dist:.6e}"))
    print(f"max coupled gap: {summary['max_coupled_err']:.6e}")
    print(
        f"exited: {summary['n_exited']} ({summary['n_degenerate_frame']} at a degenerate frame)"
        f"  exploded: {summary['n_exploded']}"
    )
    print(f"RUNDIR {rundir}")
    return 0


def _cmd_report(args) -> int:
    root = _out_root(args.out)
    manifests = sorted(root.glob("*/manifest.json"))
    if not manifests:
        print(f"no run manifests under {root}", file=sys.stderr)
        return 1
    header = ["run", "command", "config_hash", "seed", "verdict", "metric", "timestamp"]
    rows = []
    for path in manifests:
        try:
            data = json.loads(path.read_text())
            summary = data.get("summary", {})
            metric = summary.get("max_residual" if data.get("command") == "check" else "max_distance")
            metric = "" if metric is None else f"{metric:.6e}"
        except (ValueError, AttributeError, TypeError) as err:  # not JSON, not an object, no number
            print(f"error: {path} is not a run manifest: {err}", file=sys.stderr)
            return 1
        rows.append(
            [
                path.parent.name,
                str(data.get("command", "")),
                str(data.get("config_hash", ""))[:12],
                str(data.get("seed", "")),
                str(summary.get("verdict")),
                metric,
                str(data.get("timestamp", "")),
            ]
        )
    _write_csv(root / "summary.csv", header, rows)
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    print(f"RUNDIR {root}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-manifold",
        description="Tangency checks and coupled simulation for drift/diffusion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = ", ".join(preset_names())
    for name, helptext in (
        ("check", "sweep the tangency conditions over the chart"),
        ("simulate", "couple the full and reduced dynamics with shared noise"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help=f"preset name or JSON file (presets: {presets})")
        p.add_argument("--out", default=None, help="output root (default $SPDE_MANIFOLD_OUT or ./runs)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p = sub.add_parser("report", help="aggregate manifests under the output root")
    p.add_argument("--out", default=None, help="output root to scan")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_report(args)
    except (ConfigError, InvalidSamplingError, FormDisagreementError, DegenerateChartError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ReducedTableError as err:
        print(f"error: manifold: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
