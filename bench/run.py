"""Benchmark for spde-manifold: coupled ensembles and dense check sweeps.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (the package is imported from ``src/``).
Workloads are defined in ``workloads.py``:

- ``coupled_transport``: criterion 6 on the Hermite translation presets
  (four ``simulate`` commands), the hot path;
- ``check_sweep``: ``check`` on all six presets with dense lattices, no
  simulation at all.

Load model: one client, one process, commands back to back in a closed
loop.  Each workload runs in a fresh child process whose environment is
pinned here (one BLAS/OpenMP thread, fixed hash seed and
SOURCE_DATE_EPOCH).  After one checked warm-up batch the child repeats
the batch for ``--seconds`` (at least three times).  Every command's exit
code and artifacts are checked; repeats of a command must produce
byte-identical artifacts.

With ``--trace 0`` the end-to-end metrics are printed:

- ``setup_s``: median over fresh processes, started between the timed
  batches, of importing the package and loading and building the
  workload's configs;
- ``work_items_per_s``: work items per second of command time, where an
  item is one coupled path-step (coupled_transport) or one checked chart
  point (check_sweep): the items of all timed batches over their summed
  command time.  Command time includes the command's own sweep and
  artifact writes;
- ``peak_rss_mb``: peak resident set size of the workload child.

``failed_frac`` is ``failed / attempted`` in the last line's counts.
With ``--trace 1`` untraced and traced batches alternate and the
per-layer metrics are printed: calls and self time per layer, solver and
work counts per batch, and the tracing overhead (traced over untraced
batch time).  Counts come from one batch and must repeat exactly in every
traced batch; a layer the workload should reach must record calls.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # a run must end well inside three minutes

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "SOURCE_DATE_EPOCH": "1700000000",
}

# per-layer metric -> unit, in the order printed
PER_LAYER = {
    "config.load_config.self_s": "s",
    "config.build.self_s": "s",
    "hermite.translate.calls": "count",
    "hermite.translate.self_s": "s",
    "hermite.derivative.calls": "count",
    "hermite.derivative.self_s": "s",
    "hermite.states_created": "count",
    "grid.states_created": "count",
    "geometry.norm_diff.calls": "count",
    "geometry.norm_diff.self_s": "s",
    "geometry.spill_ratio.self_s": "s",
    "models.drift.calls": "count",
    "models.drift.self_s": "s",
    "models.diffusion.calls": "count",
    "models.diffusion.self_s": "s",
    "models.stratonovich_correction.calls": "count",
    "models.stratonovich_correction.self_s": "s",
    "manifold.chart_eval.calls": "count",
    "manifold.chart_eval.self_s": "s",
    "manifold.jacobian.calls": "count",
    "manifold.jacobian.self_s": "s",
    "manifold.project.calls": "count",
    "manifold.project.self_s": "s",
    "manifold.bracket.calls": "count",
    "manifold.bracket.self_s": "s",
    "manifold.distance.calls": "count",
    "manifold.distance.self_s": "s",
    "manifold.distance.iterations": "count",
    "manifold.distance.converged_ratio": "ratio",
    "tangency.reduced_coefficients.calls": "count",
    "tangency.reduced_coefficients.self_s": "s",
    "tangency.sweep.self_s": "s",
    "tangency.frames_per_point": "frames/point",
    "simulate.wiener_increments.calls": "count",
    "simulate.wiener_increments.entries": "count",
    "simulate.wiener_increments.self_s": "s",
    "simulate.simulate_full.self_s": "s",
    "simulate.simulate_reduced.self_s": "s",
    "simulate.full_step_us": "us",
    "simulate.reduced_step_us": "us",
    "simulate.coupled_compare.self_s": "s",
    "cli.artifact_write.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed passed to every command (default: the preset's)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "SPDE_MANIFOLD_OUT"):
        env.pop(key, None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"child {args[0]} exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git() -> dict:
    def git(*cmd):
        proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(proc.stderr)
        return proc.stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise OSError("not this repository")
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except OSError:  # no git, or not a git checkout
        return {"sha": None, "dirty": None}


def _environment(child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **child_env,
        **_git(),
    }


def _batch_seconds(batch: dict) -> float:
    return sum(batch.values())


def _end_to_end(workload, raw: dict) -> tuple:
    labels = {cmd.label for cmd in workload.commands}
    batches = raw["timed"]
    if any(set(b) != labels for b in batches) or set(raw["items"]) != labels:
        raise BenchError(f"a command did not complete: {raw['errors'][:3]}")
    items = sum(raw["items"].values())
    # work over time summed across batches, not a median of batches: the
    # host alternates between a fast and a slow state for seconds at a
    # time, and a median over a few batches jumps between the two
    rate = items * len(batches) / sum(_batch_seconds(b) for b in batches)
    metrics = {
        "setup_s": (statistics.median(raw["setups"]), "s"),
        "work_items_per_s": (rate, "items/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(raw['setups'])} fresh processes spread over the run",
        "work_items_per_s": (
            f"{workload.item}/s; {items} {workload.item} per batch of {len(labels)} "
            f"commands, {len(batches)} timed batches"
        ),
        "peak_rss_mb": "1 workload child",
    }
    return metrics, notes


def _per_layer(raw: dict) -> tuple:
    layers = dict(raw["layers"])
    # a tracer that failed to install leaves no traced batches; the run then
    # reports zeros and is marked incorrect through its trace problems
    if raw["traced"]:
        traced = statistics.median(_batch_seconds(b) for b in raw["traced"])
        untraced = statistics.median(_batch_seconds(b) for b in raw["timed"])
        layers["trace.overhead"] = traced / untraced
    metrics = {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    note = f"counts per batch; times median of {len(raw['traced'])} traced batches"
    return metrics, {name: note for name in metrics}


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    env = _child_env()
    try:
        for cmd in workload.commands:
            (work / f"{cmd.label}.json").write_text(json.dumps(cmd.config, indent=2))
        common = ["--workload", workload.name, "--work", str(work)]
        seed = [] if args.seed is None else ["--seed", str(args.seed)]
        raw = _child(
            ["measure", *common, *seed, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env, deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    problems = list(raw["errors"]) + list(raw.get("trace_problems", []))
    if args.trace:
        metrics, notes = _per_layer(raw)
    else:
        metrics, notes = _end_to_end(workload, raw)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(_environment(raw["env"]), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:12s} {notes[name]}")
    print(f"  {'failed_frac':40s} {raw['failed'] / raw['attempted']:>14.6g} "
          f"{'ratio':12s} {raw['failed']}/{raw['attempted']} commands")
    for line in problems:
        print(f"FAIL {line}")
    correct = not problems and raw["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "spde_manifold" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'spde_manifold'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
