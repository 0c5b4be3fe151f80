"""Workload child process, started by run.py with a pinned environment.

``setup`` times a cold start: importing the package and loading and
building every config of the workload.  ``measure`` runs the workload's
commands through ``spde_manifold.cli.main`` in a closed loop, checks every
command's artifacts, and prints one JSON object of raw samples.  With
``--trace 1`` traced and untraced batches alternate.

Usage: python3 child.py {setup|measure} --workload W --work DIR
       [--seed N] [--seconds S] [--trace 0|1]
"""

import argparse
import json
import sys
import time
from pathlib import Path

# setup time starts here; nothing that numpy or the package would import
# is loaded before it, so the cold start is not shortened
START = time.perf_counter()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(args) -> dict:
    import spde_manifold

    for path in sorted(args.work.glob("*.json")):
        cfg = spde_manifold.load_config(path)
        spde_manifold.build_model(cfg)
        spde_manifold.build_manifold(cfg)
    return {"setup_s": time.perf_counter() - START}


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    if args.mode == "setup":
        result = setup(args)
    else:
        from runner import measure

        result = measure(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
