"""Record a baseline: run the benchmark over several seeds and summarise.

    python3 bench/baseline.py --out bench/baseline.json [--seeds 1,2,3]
        [--workloads a,b] [--seconds S] [--traced-seeds 1]

Runs ``run.py`` once per (workload, seed) untraced, and once per traced
seed with tracing on, from the repository root.  For each end-to-end
metric it stores every run's value, the median, the quartiles and the
spread (interquartile range over the median).  Runs alternate between
workloads so slow drifts of the host spread over all of them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--traced-seeds", default="1")
    args = p.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    env = None
    for seed in seeds:
        for w in workloads:
            result = _run(w, seed, seconds, 0)
            env = result.pop("env")
            runs[w].append({"seed": seed, **result})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct {result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed {values}", flush=True)

    out = {"env": env, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        names = runs[w][0]["metrics"]
        out["workloads"][w] = {
            "correct": all(r["correct"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "end_to_end": {
                name: {"unit": names[name]["unit"],
                       **summarise([r["metrics"][name]["value"] for r in runs[w]])}
                for name in names
            },
            "traced": {
                str(seed): {k: v["value"] for k, v in _run(w, seed, seconds, 1)["metrics"].items()}
                for seed in (int(s) for s in args.traced_seeds.split(",") if s)
            },
        }
        for name, stats in out["workloads"][w]["end_to_end"].items():
            print(f"{w} {name}: median {stats['median']:.6g} spread {stats['spread']:.4f}")
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
