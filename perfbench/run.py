"""contactgeom benchmark: one seeded workload per fresh worker process.

    python3 perfbench/run.py --workload analyze_bump256 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each workload runs in its own worker
process (perfbench/worker.py), started one after another; this parent
only spawns it, enforces a time limit and relays its output.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  With --workload all the metric names are
prefixed by the workload name.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# A worker must finish inside the benchmark's own 180 s limit.
WORKER_TIMEOUT_S = 170


def run_worker(workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns its result dict or None."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: {workload} worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "contactgeom", "__init__.py")):
        print(f"error: no contactgeom sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_worker(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
    if len(names) == 1:
        combined = results[names[0]]
    else:
        print("\n".join(f"{n}: {json.dumps(r, sort_keys=True)}" for n, r in results.items()))
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
