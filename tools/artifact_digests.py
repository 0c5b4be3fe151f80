"""Exit code and SHA-256 of every preset's ``check`` and ``simulate`` run directory.

Runs both commands on every preset, at the preset's own seed and at
``--seed 2``, through ``cli.main`` with ``SOURCE_DATE_EPOCH`` pinned, into a
temporary root, and prints one line per run directory: its label, the exit
code and the directory's digest (``bench/workloads.py``'s ``digest``).  Two
trees whose artifacts agree byte for byte print the same lines, so comparing
the output of two checkouts is the byte-identity check.

    PYTHONPATH=src python3 tools/artifact_digests.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

from spde_manifold import cli
from spde_manifold.config import preset_names

ROOT = Path(__file__).resolve().parents[1]
EPOCH = "1700000000"
SEEDS = (None, 2)  # None runs at the preset's own seed


def _digest():
    """``digest`` of ``bench/workloads.py``, loaded unedited as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return module.digest


def digest_lines() -> list:
    """One line per (preset, command, seed): label, exit code and run-directory digest."""
    digest, lines = _digest(), []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict("os.environ", {"SOURCE_DATE_EPOCH": EPOCH}):
        for name in preset_names():
            for verb in ("check", "simulate"):
                for seed in SEEDS:
                    label = f"{verb} {name} seed={'preset' if seed is None else seed}"
                    out = Path(tmp) / f"{verb}-{name}-{seed}"
                    argv = [verb, "--config", name, "--out", str(out)]
                    argv += [] if seed is None else ["--seed", str(seed)]
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    rundirs = [p for p in out.iterdir() if p.is_dir()] if out.is_dir() else []
                    sha = digest(rundirs[0]) if len(rundirs) == 1 else "-"
                    lines.append(f"{label} exit={code} sha256={sha}")
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
