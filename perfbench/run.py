"""toric3 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep|search|codes --seed N \
        --seconds S --trace 0|1

Run from the root of a toric3 checkout.  Each run starts the workload in
its own process (``worker.py``), a closed loop over the workload's fixed
task list, one task at a time; before that, it starts the same process
``SETUP_PROBES`` more times with ``--setup-only``, to take the median
set-up time.

The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones listed in
BENCHMARK.json (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are its ``per_layer`` ones.  The line before it is a JSON object with
the details (pass times, set-up samples, error rate, build_code width
warnings, interpreter/numpy/BLAS versions and thread cap).  The exit
code is 0 whenever a result was printed, including one with failed
tasks; it is 2 when no result could be produced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4          # extra set-up-only processes per run
WORKER_TIMEOUT_S = 150    # a run must end within 180 s


def _spawn(args, extra):
    """Start a worker and return its result with its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


def main(argv):
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "toric3", "__init__.py")):
        print("error: src/toric3 not found; run from the root of a toric3 "
              "checkout", file=sys.stderr)
        return 2

    try:
        setup = [_spawn(args, ["--setup-only"])["setup_s"]
                 for _ in range(SETUP_PROBES)]
        run = _spawn(args, ["--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup.append(run["setup_s"])

    if args.trace:
        measured, listed = run["layers"], spec["per_layer"]
    else:
        measured = {"wall_s": run["wall_s"],
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": run["peak_rss_mb"]}
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in listed}
    details = {k: run[k] for k in ("passes", "tasks", "pass_walls",
                                   "failed_tasks", "consistent",
                                   "width_warnings", "environment")}
    details.update(workload=args.workload, seed=args.seed,
                   trace=args.trace, setup_samples=setup,
                   error_rate=run["failed"] / run["attempted"])
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": run["failed"] == 0 and run["consistent"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
