"""Benchmark of the sparsescan sampler, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` a run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced round.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  `all` runs
every workload in its own process, one after another.
"""

import os

# One BLAS thread, pinned before numpy is imported: timings then do not
# depend on how many cores the machine lends the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("greedy-nn-128", "greedy-lsq-256", "greedy-svr-64", "pretrain-nn-128")
RUN_TIMEOUT_S = 175


def parse_args(argv):
    ap = argparse.ArgumentParser(description="sparsescan benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(args):
    sys.path[:0] = [SRC, HERE]
    import workloads

    os.makedirs(workloads.OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        trace_path = os.path.join(workloads.OUT, f"trace-{args.workload}-{args.seed}.json")
        res = workloads.run_traced(wl, args.seed, trace_path)
        units = workloads.PER_LAYER
    else:
        res = workloads.run_timed(wl, args.seed, args.seconds)
        units = workloads.END_TO_END
    for note in res.notes:
        print(f"# {note}")
    for problem in res.chk.problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name:50s} {res.metrics[name]:>16.6f} {unit}")
    print(f"attempted {res.attempted}, failed {res.failed}, correct {res.chk.ok}")
    return {
        "correct": res.chk.ok,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": float(res.metrics[n]), "unit": u} for n, u in units.items()},
    }


def run_all(args):
    """Every workload in a process of its own, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited with {proc.returncode}")
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsescan", "__init__.py")):
        sys.stderr.write(f"no sparsescan package under {SRC}: run from a checkout's root\n")
        return 2
    out = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
