"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep search codes \
        --seeds 10 [--first-seed 1] [--trace 0|1] [--out FILE]

Run from the root of a checkout.  For every workload it makes one run per
seed, in turn, with BENCHMARK.json's ``run_seconds``, and reports for
every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound.  ``--out`` writes the same as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)}: exit {proc.returncode}")
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details)["details"], json.loads(result)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        values, runs = {}, []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            details, result = _run(workload, seed, spec["run_seconds"],
                                   args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "pass_walls": details["pass_walls"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"passes={details['passes']} " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items()
                      if k in bounds or args.trace), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None,
                             "bound": bounds.get(name)}
            if name in bounds:
                print(f"  {workload} {name}: median {med:.4g} "
                      f"spread {summary[name]['spread']:.4f} "
                      f"(bound {bounds[name]})", flush=True)
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
