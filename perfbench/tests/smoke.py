#!/usr/bin/env python3
"""Tiny-scale smoke of every benchmark workload.

Runs each workload untraced and traced on a ~300-contract population for one
second and asserts that the run is correct with no failed op, and that every
metric BENCHMARK.json names (end-to-end, then per-layer) is emitted with its
unit, and that the workload's correctness checks ran. Usage: smoke.py <path to the perfbench binary>
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
# The correctness checks each workload must report as run.
CHECKS = {
    "sweep_cold": {"ground_truth", "sweeps_equal_warmup"},
    "sweep_remote": {"ground_truth", "remote_equals_cold"},
    "follow_mixed": {"ground_truth", "followed_equals_cold", "read_bodies"},
    "serve_reads": {"ground_truth", "reads_do_no_work", "read_bodies"},
}


def run(binary, workload, trace, work_dir):
    cmd = [binary, "--workload", workload, "--seed", "11", "--seconds", "1",
           "--trace", str(trace), "--scale", "300",
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not any(line.startswith("perfbench-detail ") for line in lines):
        raise AssertionError(f"{workload}: no perfbench-detail line")
    return json.loads(lines[-1]), proc.stdout


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    binary = sys.argv[1]
    with open(SPEC) as f:
        spec = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as work_dir:
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                name = w["name"]
                try:
                    result, stdout = run(binary, name, trace, work_dir)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = result["metrics"]
                    assert set(result) == {"correct", "attempted", "failed",
                                           "metrics"}, result.keys()
                    assert result["correct"] is True, stdout
                    assert result["failed"] == 0, stdout
                    assert result["attempted"] >= 1
                    assert set(got) == set(want), (
                        f"metric names differ: {sorted(set(got) ^ set(want))}")
                    for metric, unit in want.items():
                        assert got[metric]["unit"] == unit, (metric, got[metric])
                        assert isinstance(got[metric]["value"], (int, float))
                    ran = next((line for line in stdout.splitlines()
                                if line.startswith("checks run: ")), "")
                    ran = set(ran[len("checks run: "):].split(", "))
                    assert CHECKS[name] <= ran, f"checks run: {sorted(ran)}"
                    if trace:
                        assert "per-layer spans" in stdout, stdout
                        assert "tracing overhead" in stdout, stdout
                    print(f"ok   {name} trace={trace}")
                except AssertionError as e:
                    failures.append(f"{name} trace={trace}: {e}")
                    print(f"FAIL {name} trace={trace}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
