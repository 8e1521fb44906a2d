"""One workload in a fresh single-threaded process; run by run.py.

The worker pins every BLAS/OpenMP pool to one thread before numpy is
imported, clears CONTACT_GEOM_THREADS and never passes --threads, so a
change cannot buy wall time with threads unseen.  It imports contactgeom
from the checkout's src/, builds the seeded inputs, runs one untimed
warm-up operation, then runs operations one after another (closed loop,
one client) until the measuring window is spent.  Each operation's
outputs are checked.  The last line of stdout is the result JSON.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONTACT_GEOM_THREADS", None)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# Input generation is repeated this many times inside set-up and its median
# taken; the import and the warm-up operation happen once per process.
SETUP_REPEATS = 5


def git_commit(root):
    """HEAD's commit read from .git files, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src):
    """sha256 over the package sources, naming the code measured without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "contactgeom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


Op = collections.namedtuple("Op", "wall cpu ok counters")


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Runner:
    """Runs and checks operations of one workload against cli.main."""

    def __init__(self, workload, ctx, main, opdir):
        self.workload = workload
        self.ctx = ctx
        self.main = main
        self.opdir = opdir
        self.n = 0

    def op(self):
        """One timed operation, then its output check."""
        out = os.path.join(self.opdir, f"op{self.n}")
        self.n += 1
        argvs = self.workload.argvs(self.ctx, out)
        codes = []
        sink = io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink):
                for argv in argvs:
                    codes.append(self.main(argv))
        except Exception:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            traceback.print_exc(file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            return Op(wall, cpu, False, {})
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        try:
            counters = dict(self.workload.check(self.ctx, out, codes))
            ok = True
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            counters, ok = {}, False
        counters["cli.bytes_written"] = dir_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return Op(wall, cpu, ok, counters)

    def window(self, seconds):
        """Closed loop: start operations until `seconds` have passed (at least one)."""
        ops = []
        t0 = time.perf_counter()
        while True:
            ops.append(self.op())
            if time.perf_counter() - t0 >= seconds:
                return ops


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it spawned this process")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import contactgeom
    from contactgeom import cli
    t_import = time.monotonic() - args.t0

    if not os.path.abspath(contactgeom.__file__).startswith(SRC + os.sep):
        print(f"error: contactgeom imported from {contactgeom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    rundir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        return run(args, workload, cli.main, rundir, t_import,
                   {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "git_commit": git_commit(ROOT),
                    "src_sha256": source_digest(SRC),
                    "seed": args.seed, "workload": args.workload,
                    "seconds": args.seconds, "trace": args.trace,
                    "threads_env": {v: os.environ.get(v) for v in
                                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "CONTACT_GEOM_THREADS")}})
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run(args, workload, cli_main, rundir, t_import, env):
    gen_times = []
    for _ in range(SETUP_REPEATS):
        g0 = time.perf_counter()
        ctx = workload.make_inputs(args.seed, rundir)
        gen_times.append(time.perf_counter() - g0)
    runner = Runner(workload, ctx, cli_main, os.path.join(rundir, "ops"))
    warm = runner.op()
    setup_s = t_import + statistics.median(gen_times) + warm.wall
    print("env: " + json.dumps(env, sort_keys=True))

    if args.trace:
        ops, metrics = traced(args, workload, runner)
    else:
        ops = runner.window(args.seconds)
        walls = [o.wall for o in ops]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(o.cpu for o in ops), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        print(f"{workload.name}: ops={len(ops)} wall_s median={metrics['wall_s']['value']:.4f} "
              f"min={min(walls):.4f} max={max(walls):.4f} "
              f"setup: import={t_import:.3f} inputs={statistics.median(gen_times):.4f} "
              f"warmup={warm.wall:.3f}")
    failed = sum(not o.ok for o in ops)
    print(f"failed_frac={failed / len(ops):.4f} ({failed} of {len(ops)})"
          + ("; the warm-up operation failed" if not warm.ok else ""))
    result = {"correct": warm.ok and failed == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def traced(args, workload, runner):
    """Half the window untraced, half traced; returns all ops and per-layer metrics."""
    import layers
    import tracer as tracing

    plain = runner.window(args.seconds / 2.0)
    tr = tracing.Tracer()
    targets = list(dict.fromkeys(layers.public_targets() + list(layers.NAMED_TARGETS)))
    tr.install(targets, layers.HOOKS, layers.COUNTED)
    try:
        ops = runner.window(args.seconds / 2.0)
    finally:
        tr.uninstall()
    for o in ops:
        for key, value in o.counters.items():
            tr.count(key, value)

    values = layers.aggregate(tr.spans, tr.counters, len(ops))
    plain_wall = statistics.median(o.wall for o in plain)
    traced_wall = statistics.median(o.wall for o in ops)
    metrics = {m: {"value": values[m], "unit": unit}
               for m, unit, *_ in layers.PER_LAYER}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.absent"] = {"value": len(tr.absent), "unit": "count"}

    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv")
    tracing.write_spans(tr.spans, spans_path)
    if tr.absent:
        print("absent: " + ", ".join(tr.absent))
    ranked = sorted(((v["value"], m) for m, v in metrics.items()
                     if m.endswith("_s") and not m.startswith("trace.")), reverse=True)
    print(f"{workload.name} traced: ops={len(ops)} (untraced {len(plain)}) "
          f"wall {traced_wall:.4f} vs {plain_wall:.4f} untraced; spans -> {spans_path}")
    print("top: " + ", ".join(f"{m}={v:.4f}" for v, m in ranked[:6]))
    return plain + ops, metrics


if __name__ == "__main__":
    sys.exit(main())
