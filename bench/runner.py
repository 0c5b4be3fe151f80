"""The workload loop: runs a workload's commands through the CLI and checks them.

``measure`` runs one checked warm-up batch, then repeats the batch for the
requested seconds.  With tracing on, untraced and traced batches
alternate; counts come from the traced batches and must repeat exactly.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from spde_manifold.cli import main as cli_main
from tracer import Tracer, TraceTargetError
from workloads import WORKLOADS, digest, read_outputs

SETUP_RUNS = 11
HERE = Path(__file__).resolve().parent


class Runner:
    """Runs batches of one workload and keeps every sample and failure."""

    MIN_TIMED = 3  # timed batches per run, whatever --seconds says

    def __init__(self, workload, work: Path, seed):
        self.main = cli_main
        self.workload = workload
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}
        self.items: dict = {}
        self.batches = 0

    def _argv(self, cmd, out: Path) -> list:
        argv = [cmd.verb, "--config", str(self.work / f"{cmd.label}.json"), "--out", str(out)]
        return argv + ([] if self.seed is None else ["--seed", str(self.seed)])

    def _fail(self, message) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"batch {self.batches}: {message}")

    def batch(self) -> dict:
        """Run every command once; return wall seconds per command label."""
        times, outputs, bad = {}, {}, set()
        for cmd in self.workload.commands:
            out = self.work / f"b{self.batches}-{cmd.label}"
            sink = io.StringIO()
            self.attempted += 1
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    start = time.perf_counter()
                    code = self.main(self._argv(cmd, out))
                    times[cmd.label] = time.perf_counter() - start
            except Exception:  # a crashing command is a failed command
                code = None
                self._fail(f"{cmd.label} raised:\n{traceback.format_exc()}")
            try:
                if code != cmd.exit_code:
                    raise ValueError(f"exit code {code}, expected {cmd.exit_code}")
                self.inspect(cmd, out)
                outputs[cmd.label] = read_outputs(cmd.verb, out)
                found = digest(out)
                if found != self.digests.setdefault(cmd.label, found):
                    raise ValueError("artifacts differ from the first run of this command")
                self.items[cmd.label] = outputs[cmd.label].items
            except (OSError, ValueError, KeyError) as err:
                bad.add(cmd.label)
                self._fail(f"{cmd.label}: {err}")
            shutil.rmtree(out, ignore_errors=True)
        if not bad:
            for labels, message in self.workload.check(outputs):
                bad.update(labels)
                self._fail(message)
        self.failed += len(bad)
        self.batches += 1
        return times

    def inspect(self, cmd, out: Path) -> None:
        """Called on each command's artifacts before they are checked."""


def _setup_sample(args) -> float:
    """Cold-start seconds of one fresh ``child.py setup`` process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup",
         "--workload", args.workload, "--work", str(args.work)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def measure(args) -> dict:
    runner = Runner(WORKLOADS[args.workload], args.work, args.seed)
    runner.batch()  # warm-up: lazy caches and first-call costs, checked, not timed
    timed, traced, layers, setups = [], [], [], []
    tracer = Tracer() if args.trace else None
    problems = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or len(timed) < Runner.MIN_TIMED
        or (tracer and len(traced) < 2)
    ):
        timed.append(runner.batch())
        if tracer is None:
            # cold starts spread over the run sample the same host states
            # as the batches; their time does not count towards --seconds
            if len(setups) < SETUP_RUNS:
                begin = time.perf_counter()
                setups.append(_setup_sample(args))
                start += time.perf_counter() - begin
            continue
        try:
            tracer.install()
        except TraceTargetError as err:
            tracer.uninstall()
            problems.append(f"trace target missing: {err}")
            break
        try:
            traced.append(runner.batch())
        finally:
            tracer.uninstall()
        layers.append(tracer.snapshot())

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "items": runner.items,
        "timed": timed,
        "setups": setups + [
            _setup_sample(args) for _ in range(SETUP_RUNS - len(setups)) if tracer is None
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        result["traced"] = traced
        result["layers"] = _layer_summary(layers, problems)
        for name in WORKLOADS[args.workload].nonzero_layers:
            if layers and layers[0][0][f"{name}.calls"] == 0:
                problems.append(f"layer {name} recorded no calls")
        result["trace_problems"] = problems
    return result


def _layer_summary(layers: list, problems: list) -> dict:
    """Counts from the first traced batch (checked equal in every batch),
    times as the median over traced batches."""
    if not layers:
        return {}
    counts = layers[0][0]
    for other, _ in layers[1:]:
        for key, value in counts.items():
            if other[key] != value:
                problems.append(f"count {key} differs between traced batches: {value} != {other[key]}")
    seconds = {key: statistics.median(b[1][key] for b in layers) for key in layers[0][1]}
    return {**counts, **seconds}


def _environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


