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
import functools
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
    TangencyReport,
    sweep,
)

ARTIFACT_VERSION = 1

__all__ = ["main", "entrypoint"]


def _pinned_moment():
    """The UTC time ``SOURCE_DATE_EPOCH`` pins, None when it is unset; a value that
    is not an integer number of seconds within datetime's range raises ConfigError."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as err:
        raise ConfigError(f"SOURCE_DATE_EPOCH={epoch!r} is not a Unix time in seconds: {err}") from err


def _timestamp() -> str:
    return (_pinned_moment() or datetime.now(timezone.utc)).isoformat()


def _out_root(arg) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("SPDE_MANIFOLD_OUT")
    return Path(env) if env else Path("runs")


def _write_json(path: Path, obj) -> None:
    """A report as its one compact line (``TangencyReport.to_json_text``), other data indented."""
    if isinstance(obj, TangencyReport):
        text = obj.to_json_text()
    else:
        text = json.dumps(obj, sort_keys=True, indent=2)
    path.write_text(text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """The str cells as ``csv.writer`` writes them: joined by hand when a count over the
    joined text proves that its minimal quoting would quote no cell (no quote mark, no line
    break inside a cell, exactly width - 1 commas per line), else through ``csv.writer``."""
    lines = [header, *rows]
    text = "\r\n".join(map(",".join, lines)) + "\r\n"
    n, width = len(lines), len(header)
    plain = (
        width > 1  # a lone empty cell is quoted
        and all(len(r) == width for r in rows)
        and '"' not in text
        and text.count("\r") == text.count("\n") == n
        and text.count(",") == n * (width - 1)
    )
    with path.open("w", newline="") as fh:
        if plain:
            fh.write(text)
        else:
            csv.writer(fh).writerows(lines)


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


def _made_root(arg) -> Path:
    """The output root, made before any work, so that one that cannot be made
    fails first, as does a bad ``SOURCE_DATE_EPOCH`` before it; the run
    directory under the root is made only once the work is done."""
    _pinned_moment()
    root = _out_root(arg)
    root.mkdir(parents=True, exist_ok=True)
    return root


def _run_dir(root: Path, command: str, cfg: dict, seed: int) -> Path:
    path = root / f"{command}-{config_hash(cfg)[:12]}-seed{seed}"
    path.mkdir(exist_ok=True)
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
    root = _made_root(args.out)
    model, param, _ = cfg.built
    report = sweep(model, param, **sweep_config(cfg), metadata={"config_hash": config_hash(cfg)})
    rundir = _run_dir(root, "check", cfg, seed)
    _write_json(rundir / "report.json", report)
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
    root = _made_root(args.out)
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
    rundir = _run_dir(root, "simulate", cfg, seed)
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
    header = [
        "run", "command", "config_hash", "seed", "verdict", "metric",
        "coupled_err_mean", "coupled_err_sem", "n_unconverged_distance", "timestamp",
    ]
    rows = []
    for path in manifests:
        try:
            data = json.loads(path.read_text())
            summary = data.get("summary", {})
            check = data.get("command") == "check"
            metric = summary.get("max_residual" if check else "max_distance")
            coupled = {} if check else summary  # the coupled-gap spread, failed distance solves
            values = (metric, coupled.get("coupled_err_mean"), coupled.get("coupled_err_sem"))
            cells = ["" if v is None else f"{v:.6e}" for v in values]
            unconverged = coupled.get("n_unconverged_distance")
            cells.append("" if unconverged is None else str(int(unconverged)))
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
                *cells,
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


@functools.cache  # one parser per process: building it lists the presets
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
    except (ConfigError, InvalidSamplingError, FormDisagreementError, DegenerateChartError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ReducedTableError as err:
        print(f"error: manifold: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
