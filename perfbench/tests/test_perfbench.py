"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q        # from the repository root

The span arithmetic is checked on hand-made spans.  Then, for every
workload, two traced runs with the same seed must report identical
counts, every pass (traced or not) must give the same outputs, and an
untraced run must give the outputs of a traced one.  These runs take
about a minute per workload on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import layer_metrics, summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "count_computed")


def _worker(workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_and_groups():
    # hull (0..10) calls lattice points (2..5); an auto min_weight (20..30)
    # picks the prime sweep (21..29), which builds a field (22..23)
    spans = [
        ("geometry.convex_hull", 0.0, 10.0, -1, 7),
        ("geometry.Polytope._compute_points", 2.0, 5.0, 0, 11),
        ("toriccode.min_weight", 20.0, 30.0, -1, 1),
        ("toriccode.exhaustive.prime", 21.0, 29.0, 2, 1000),
        ("gfq.field_setup", 22.0, 23.0, 3, 0),
    ]
    self_s, counts = summarize(spans)
    assert self_s == {"geometry.hull": 7.0, "geometry.lattice_points": 3.0,
                      "toriccode.other": 2.0,
                      "toriccode.exhaustive.prime": 7.0,
                      "gfq.field_setup": 1.0}
    assert counts["geometry.hull.points_in"] == 7
    assert counts["geometry.lattice_points.points_out"] == 11
    assert counts["toriccode.exhaustive.prime.updates"] == 1000
    assert counts["toriccode.auto.exhaustive_picks"] == 1
    m = layer_metrics([(self_s, counts)], [44.0], [40.0])
    assert m["toriccode.exhaustive.prime.updates_per_s"] == 1000 / 7.0
    assert m["toriccode.self_s"] == 9.0
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert {x["name"] for x in SPEC["per_layer"]} <= set(m)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_tracing_keeps_outputs(workload):
    first = _worker(workload, 7, trace=1)
    second = _worker(workload, 7, trace=1)
    plain = _worker(workload, 7, trace=0)
    for run in (first, second, plain):
        assert run["failed"] == 0, run["failed_tasks"]
        assert run["consistent"]   # every pass, traced or not, agreed
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in COUNT_UNITS]
    assert {c: first["layers"][c] for c in counts} == \
        {c: second["layers"][c] for c in counts}
    assert first["outputs"] == plain["outputs"]
