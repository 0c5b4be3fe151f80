"""Workload definitions and output checks.

A workload is a batch of CLI commands that one client runs back to back
in a closed loop.  Every command's config is a preset plus overrides,
written to a JSON file that the CLI loads like any user config.  The
checks read only the artifacts the CLI writes (manifests, trajectory.csv,
report.json) and never compare exact numbers, so they keep holding when
the noise stream or the arithmetic order changes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Sizes are chosen so one batch takes a few seconds on a 2-core box and a
# run covers many batches.  At four paths the checks of
# _check_transport fail for about 3 seeds in 10000 (resampled from 160
# measured paths per run).
TRANSPORT_PATHS = 4
TRANSPORT_POINTS = 500  # m = 1 translation charts
SPAN_POINTS = 22  # per axis, m = 2 span charts

BASE_DT = 1e-3  # the ito_translation_d1 preset step
HORIZON = 0.5


@dataclass(frozen=True)
class Command:
    label: str
    verb: str  # "simulate" or "check"
    config: dict
    exit_code: int
    points: int = 0  # requested lattice size, for check commands


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # the unit of work counted by the throughput metric
    commands: tuple
    check: Callable  # dict label -> Outputs  ->  list of (labels, message)
    nonzero_layers: tuple  # layers whose call count must be positive


@dataclass
class Outputs:
    """What the checks need from one command's artifacts."""

    summary: dict
    items: int
    path_max_dist: list  # simulate: per-path max distance to the chart
    max_rho_diffusion: float  # check: largest diffusion residual


def _transport(dt_mult=1, distance=True, preset="ito_translation_d1", horizon=HORIZON):
    return {
        "preset": preset,
        "sim": {
            "dt": BASE_DT * dt_mult,
            "horizon": horizon,
            "paths": TRANSPORT_PATHS,
            "record_distance": distance,
        },
    }


def _check_transport(out: dict) -> list:
    """Criterion 6 from the artifacts of the four coupled runs.

    D(h) is the largest coupled gap over the paths of the run at step h.
    The tangent preset must stay within the extrapolated scheme-error tube
    10 D(2dt)^2 / D(4dt), and at least 90% of the off-chart preset's paths
    must leave it.  Criterion 6's rate condition D(2dt) <= 0.8 D(4dt) is
    not checked: the gap shrinks by about 0.71 per halving (strong order
    1/2) and the two runs draw independent noise, so at a handful of paths
    that condition fails on roughly two seeds in five.
    """
    errors = []
    for label, o in out.items():
        if o.summary["n_exploded"]:
            errors.append(((label,), f"{label}: {o.summary['n_exploded']} exploded paths"))
    d4 = out["dt4"].summary["max_coupled_err"]
    d2 = out["dt2"].summary["max_coupled_err"]
    if not d4 > 0.0:
        return errors + [(("dt4",), f"dt4: coupled gap {d4} is not positive")]
    bound = 10.0 * d2 * d2 / d4
    max_dist = out["tangent"].summary["max_distance"]
    if not (max_dist is not None and max_dist <= bound):
        errors.append(
            (("dt4", "dt2", "tangent"), f"tangent max distance {max_dist} above bound {bound:.3e}")
        )
    dists = out["negative"].path_max_dist
    exceed = sum(1 for v in dists if v > bound)
    if not dists or exceed < math.ceil(0.9 * len(dists)):
        errors.append(
            (("dt4", "dt2", "negative"),
             f"only {exceed}/{len(dists)} off-chart paths exceed {bound:.3e}")
        )
    return errors


def _check_sweeps(commands) -> Callable:
    def check(out: dict) -> list:
        errors = []
        for cmd in commands:
            s = out[cmd.label].summary
            verdict = "tangent" if cmd.exit_code == 0 else "not_tangent"
            found = []
            if s["verdict"] != verdict:
                found.append(f"verdict {s['verdict']}, expected {verdict}")
            if s["points"] != cmd.points:
                found.append(f"{s['points']} points, requested {cmd.points}")
            if s["n_degenerate"]:
                found.append(f"{s['n_degenerate']} degenerate points")
            rho = out[cmd.label].max_rho_diffusion
            if cmd.exit_code == 2 and not rho >= 0.9:
                found.append(f"max diffusion residual {rho:.3e} below 0.9")
            errors.extend(((cmd.label,), f"{cmd.label}: {msg}") for msg in found)
        return errors

    return check


def _check_command(label, preset, points_per_axis, dims, exit_code):
    config = {"preset": preset}
    if points_per_axis is not None:
        config["check"] = {"points_per_axis": points_per_axis}
    return Command(label, "check", config, exit_code, (points_per_axis or 11) ** dims)


# layers every workload reaches: each command loads and builds a config,
# sweeps the chart (simulate runs its own sweep first) and writes artifacts
_COMMON = (
    "config.load_config", "config.build", "models.drift", "models.diffusion",
    "models.stratonovich_correction", "manifold.chart_eval", "manifold.jacobian",
    "manifold.project", "manifold.bracket", "tangency.sweep", "geometry.spill_ratio",
    "cli.artifact_write",
)
_COUPLED = (
    "geometry.norm_diff", "manifold.distance", "tangency.reduced_coefficients",
    "simulate.wiener_increments", "simulate.simulate_full",
    "simulate.simulate_reduced", "simulate.coupled_compare",
)

_SWEEPS = (
    _check_command("translation", "ito_translation_d1", TRANSPORT_POINTS, 1, 0),
    _check_command("translation_negative", "ito_translation_d1_negative", TRANSPORT_POINTS, 1, 2),
    _check_command("negative_control", "negative_control", SPAN_POINTS, 2, 2),
    _check_command("plaplace", "plaplace_p2_eigen", SPAN_POINTS, 2, 0),
    _check_command("heat", "heat_equation", None, 1, 0),
    _check_command("zero", "ito_zero", None, 1, 0),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coupled_transport",
            "criterion 6 on Hermite N=64: the hot path; translate, jacobian, "
            "reduced_coefficients and the Gauss-Newton distance dominate",
            "path-steps",
            (
                Command("dt4", "simulate", _transport(4, False), 0),
                Command("dt2", "simulate", _transport(2, False), 0),
                Command("tangent", "simulate", _transport(1, True), 0),
                Command(
                    "negative", "simulate",
                    _transport(1, True, "ito_translation_d1_negative", HORIZON / 2), 0,
                ),
            ),
            _check_transport,
            _COMMON + _COUPLED + ("hermite.translate", "hermite.derivative"),
        ),
        Workload(
            "check_sweep",
            "check on all six presets with dense lattices: cold per-point frames "
            "and projections, no noise, no Euler steps, no distance solves",
            "points",
            _SWEEPS,
            _check_sweeps(_SWEEPS),
            _COMMON + ("hermite.translate", "hermite.derivative"),
        ),
    )
}


# -- reading artifacts ------------------------------------------------------


def digest(root: Path) -> str:
    """SHA-256 over every artifact's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_outputs(verb: str, root: Path) -> Outputs:
    """Parse one command's run directory (the only one under ``root``)."""
    (rundir,) = [p for p in root.iterdir() if p.is_dir()]
    summary = json.loads((rundir / "manifest.json").read_text())["summary"]
    if verb == "check":
        report = json.loads((rundir / "report.json").read_text())
        rho = [v for row in report["rho_diffusion"] for v in row if v is not None]
        return Outputs(summary, summary["points"], [], max(rho, default=0.0))
    with (rundir / "trajectory.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = header.index("dist")
        rows: dict = {}
        for row in reader:
            dist = float(row[col])
            count, worst = rows.get(row[0], (0, -math.inf))
            rows[row[0]] = (count + 1, worst if dist <= worst else dist)
    steps = sum(count - 1 for count, _ in rows.values())
    return Outputs(summary, steps, [worst for _, worst in rows.values()], 0.0)
