"""Self-test of the benchmark's output checks.

Runs real batches of every workload in this process, tampers with the
artifacts of chosen commands after they are written, and asserts that
each tampering is counted as failed commands (the numerator of
``failed_frac``) while clean batches count none.  Run from the
repository root:

    python3 bench/selftest.py

Exit code 0 means every tampering was caught.  Takes about a minute on a
2-core box.
"""

import csv
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import PINNED_ENV  # noqa: E402

# before numpy is imported: artifacts are only reproducible with a pinned
# SOURCE_DATE_EPOCH, and BLAS threads must match the benchmark's children
os.environ.update(PINNED_ENV)

from runner import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _rundir(out: Path) -> Path:
    (rundir,) = [p for p in out.iterdir() if p.is_dir()]
    return rundir


def _edit_summary(**changes):
    def tamper(out):
        path = _rundir(out) / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["summary"].update(changes)
        path.write_text(json.dumps(manifest))

    tamper.__name__ = f"summary edit {changes}"
    return tamper


def _flatten_dist(out):
    """Pull every recorded chart distance of a trajectory to zero."""
    path = _rundir(out) / "trajectory.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("dist")
    for row in rows[1:]:
        row[col] = "0"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _append_byte(out):
    with (_rundir(out) / "manifest.json").open("a") as fh:
        fh.write(" ")


def _delete_report(out):
    (_rundir(out) / "report.json").unlink()


class TamperingRunner(Runner):
    """Applies ``tamper`` to one command's artifacts in one batch."""

    def __init__(self, workload, work, label, batch, tamper):
        super().__init__(workload, work, None)
        self.target = (label, batch)
        self.tamper = tamper

    def inspect(self, cmd, out):
        if (cmd.label, self.batches) == self.target:
            self.tamper(out)


# (workload, label, batch to tamper, tampering, commands expected to fail)
CASES = [
    ("check_sweep", "translation", 0, _edit_summary(verdict="not_tangent"), 1),
    ("check_sweep", "plaplace", 0, _edit_summary(points=7), 1),
    ("check_sweep", "negative_control", 0, _delete_report, 1),
    ("check_sweep", "zero", 1, _append_byte, 1),  # digest differs from batch 0
    ("coupled_transport", "tangent", 0, _edit_summary(max_distance=1.0), 3),
    ("coupled_transport", "dt2", 0, _edit_summary(n_exploded=1), 1),
    # off-chart paths no longer leave the tube: the check spans dt4, dt2, negative
    ("coupled_transport", "negative", 0, _flatten_dist, 3),
]


def main() -> int:
    scratch = HERE.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    ok = True
    try:
        for name, workload in WORKLOADS.items():
            for cmd in workload.commands:
                (work / f"{cmd.label}.json").write_text(json.dumps(cmd.config))
            clean = Runner(workload, work, None)
            clean.batch()
            print(f"{name}: clean batch failed {clean.failed}/{clean.attempted}")
            ok &= clean.failed == 0
        for name, label, batch, tamper, expected in CASES:
            runner = TamperingRunner(WORKLOADS[name], work, label, batch, tamper)
            for _ in range(batch + 1):
                runner.batch()
            caught = runner.failed == expected
            ok &= caught
            print(
                f"{name}/{label} via {tamper.__name__}: "
                f"failed_frac {runner.failed}/{runner.attempted}, expected {expected} "
                f"-> {'caught' if caught else 'MISSED'}"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # a benchmark run is using it
            pass
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
