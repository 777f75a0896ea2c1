"""One workload process: set-up, then the task list in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T
    python3 perfbench/worker.py --workload W --seed N --setup-only

Started by ``run.py`` from the root of a checkout.  The process imports
toric3 from the checkout's ``src``, draws its inputs, stamps the
monotonic clock (the parent's start stamp minus this one is the set-up
time), then runs the whole task list again and again, one task at a
time, for about ``--seconds``.

``wall_s`` is the time of one pass with each task counted at its fastest
over the run's untraced passes: other work on a shared host only ever
adds time, and its bursts last seconds to minutes.

With ``--trace 1`` the passes alternate traced and untraced, traced
first, so the traced pass is the one that builds the finite fields.  The
spans of the first traced pass are written to ``.perfbench/``.  The last
line of standard output is one JSON object for the parent.
"""

import os
import sys

# The BLAS pool is capped at the CPUs this process may use.  This must
# happen before numpy loads, and overwrites inherited values: the CLI's
# own --threads handling keeps any OMP_NUM_THREADS already set.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

from tasks import WORKLOADS, make_tasks  # noqa: E402
from spans import Tracer, layer_metrics, summarize  # noqa: E402

TRACE_DIR = os.path.join(ROOT, ".perfbench")


def _environment():
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "cpus_allowed": int(BLAS_THREADS),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run_pass(tasks):
    """Run every task once, timing each with its check; returns (task
    seconds, failed names, outputs, build_code width warnings)."""
    times, failed, outputs, width_warnings = [], [], [], 0
    clock = time.perf_counter
    for name, task in tasks:
        t0 = clock()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ok, out = task()
            except Exception as exc:  # a task that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                ok, out = False, f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        width_warnings += sum("exceeds q-2" in str(w.message) for w in caught)
        if not ok:
            failed.append(name)
        outputs.append(out)
    return times, failed, outputs, width_warnings


def _write_spans(workload, seed, spans):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-spans.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "size"],
                   "spans": spans}, fh, separators=(",", ":"))


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tasks = make_tasks(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    walls, traced_walls, plain_task_times, layer_passes = [], [], [], []
    failed, first_outputs, consistent, width_warnings = [], None, True, 0
    while True:
        traced = tracer is not None and len(traced_walls) * 2 <= len(walls)
        if traced:
            tracer.install()
        try:
            times, bad, outputs, warned = run_pass(tasks)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.take()
            if not layer_passes:
                _write_spans(args.workload, args.seed, spans)
            layer_passes.append(summarize(spans))
            traced_walls.append(sum(times))
        else:
            plain_task_times.append(times)
        walls.append(sum(times))
        failed += bad
        if first_outputs is None:
            first_outputs, width_warnings = outputs, warned
        consistent &= outputs == first_outputs
        elapsed = time.monotonic() - ready
        enough = len(walls) >= (2 if tracer else 1)
        # stop where the run ends closest to --seconds
        if enough and elapsed + statistics.median(walls) / 2 > args.seconds:
            break

    result = {
        "ready": ready,
        "passes": len(walls),
        "tasks": len(tasks),
        "wall_s": sum(map(min, zip(*plain_task_times))),
        "pass_walls": walls,
        "attempted": len(tasks) * len(walls),
        "failed": len(failed),
        "failed_tasks": sorted(set(failed)),
        "consistent": consistent,
        "width_warnings": width_warnings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "outputs": first_outputs,
        "environment": _environment(),
    }
    if tracer:
        result["layers"] = layer_metrics(
            layer_passes, traced_walls, [sum(t) for t in plain_task_times])
    print(json.dumps(result, default=list))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
