#!/usr/bin/env python3
"""Tiny-scale smoke test of the htgdb benchmark.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced at a small scale for one second
each, and checks that each run is correct, that the result line carries
exactly the metrics BENCHMARK.json declares (with their units), and that
the human report prints every metric by name with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
NAMED = ("lane_load_s", "q1_binning_ms", "q2_expression_ms",
         "q3_merge_join_ms", "q3_window_ms", "q3_pivot_ms", "read_p50_ms",
         "read_tail_ms", "commit_p50_ms", "commit_tail_ms", "stmts_per_s",
         "bytes_per_user_byte", "setup_s", "peak_rss_mb", "failed_ratio")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    return proc.stdout


def check(workload, trace, spec, output):
    lines = output.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], \
        f"{where}: metric set differs from BENCHMARK.json"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)), where
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is not positive"
    report = "\n".join(lines[:-1])
    for m in declared:
        assert any(m["name"] in line and m["unit"] in line
                   for line in report.splitlines()), \
            f"{where}: report does not print {m['name']} with its unit"
    if not trace:
        for name in NAMED:
            assert any(line.split()[:1] == [name] for line in
                       report.splitlines()), f"{where}: {name} not printed"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(workload, trace, spec, run(workload, trace))
            print(f"ok  {workload} trace={trace}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
