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
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .config import (
    ConfigError,
    build_manifold,
    build_model,
    build_sampling,
    build_sim_config,
    config_hash,
    load_config,
    manifold_hash,
    model_hash,
    preset_names,
)
from .manifold import DegenerateChartError
from .simulate import coupled_compare
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


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    name = f"{command}-{config_hash(cfg)[:12]}-seed{seed}"
    path = root / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    seed = cfg["sim"]["seed"] if args.seed is None else args.seed
    model = build_model(cfg)
    param = build_manifold(cfg)
    check = cfg["check"]
    report = sweep(
        model,
        param,
        build_sampling(cfg),
        base_threshold=check["base_threshold"],
        spill_factor=check["spill_factor"],
        form=check["form"],
        jac_mode=check["jac_mode"],
        da_mode=check["da_mode"],
        form_error_tol=check["form_error_tol"],
        metadata={"config_hash": config_hash(cfg)},
    )
    rundir = _run_dir(_out_root(args.out), "check", cfg, seed)
    _write_json(rundir / "report.json", report.to_json_dict())
    header, rows = report.to_csv_rows()
    _write_csv(rundir / "report.csv", header, rows)
    summary = {
        "verdict": report.verdict,
        "max_residual": report.max_residual,
        "points": int(report.points.shape[0]),
        "n_degenerate": int(report.degenerate.sum()),
        "form_agreement": report.form_agreement,
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
    seed = cfg["sim"]["seed"] if args.seed is None else args.seed
    model = build_model(cfg)
    param = build_manifold(cfg)
    check = cfg["check"]
    report = sweep(
        model,
        param,
        build_sampling(cfg),
        base_threshold=check["base_threshold"],
        spill_factor=check["spill_factor"],
        form=check["form"],
        jac_mode=check["jac_mode"],
        da_mode=check["da_mode"],
        form_error_tol=check["form_error_tol"],
    )
    sim_cfg = build_sim_config(cfg, seed=seed)
    record = coupled_compare(model, param, cfg["sim"]["x0"], sim_cfg, verdict=report.verdict)
    rundir = _run_dir(_out_root(args.out), "simulate", cfg, seed)
    header, rows = record.to_csv_rows()
    _write_csv(rundir / "trajectory.csv", header, rows)
    manifest = _manifest(
        "simulate", cfg, seed, ["trajectory.csv", "manifest.json"], record.summary
    )
    _write_json(rundir / "manifest.json", manifest)
    print(f"verdict: {report.verdict}")
    print(f"paths: {record.summary['paths']}  steps: {record.summary['steps']}")
    max_dist = record.summary["max_distance"]
    print(
        "max distance to chart: "
        + ("not recorded" if max_dist is None else f"{max_dist:.6e}")
    )
    print(f"max coupled gap: {record.summary['max_coupled_err']:.6e}")
    print(
        f"exited: {record.summary['n_exited']}  exploded: {record.summary['n_exploded']}"
    )
    print(f"RUNDIR {rundir}")
    return 0


def _cmd_report(args) -> int:
    root = _out_root(args.out)
    manifests = sorted(root.glob("*/manifest.json"))
    if not manifests:
        print(f"no run manifests under {root}", file=sys.stderr)
        return 1
    header = [
        "run", "command", "config_hash", "seed", "verdict", "metric", "timestamp",
    ]
    rows = []
    for path in manifests:
        data = json.loads(path.read_text())
        summary = data.get("summary", {})
        verdict = summary.get("verdict")
        if data.get("command") == "check":
            metric = summary.get("max_residual")
        else:
            metric = summary.get("max_distance")
        rows.append(
            [
                path.parent.name,
                str(data.get("command", "")),
                str(data.get("config_hash", ""))[:12],
                str(data.get("seed", "")),
                str(verdict),
                "" if metric is None else f"{metric:.6e}",
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
        p.add_argument(
            "--config",
            required=True,
            help=f"preset name or JSON file (presets: {presets})",
        )
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
    except (ConfigError, InvalidSamplingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FormDisagreementError, DegenerateChartError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
