#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Run from the root of a checkout (takes about two minutes):

    python3 perfbench/tests/smoke_test.py

For every workload in BENCHMARK.json:
  * a short untraced run prints every end-to-end metric with its unit,
    reports correct outputs, and prints error_rate 0;
  * a short traced run prints every per-layer metric with its unit;
  * a run whose reference outputs are deliberately corrupted reports the
    mismatches as failed requests (the output check is live).
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SECONDS = "2"


def run(workload, trace, corrupt=False):
    spec = json.load(open(BENCHMARK))
    command = spec["command"] + ["--workload", workload, "--seed", "5",
                                 "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        command.append("--corrupt-reference")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def expect_metrics(result, metrics, label):
    got = result["metrics"]
    for metric in metrics:
        name = metric["name"]
        assert name in got, f"{label}: missing metric {name}"
        assert got[name]["unit"] == metric["unit"], (
            f"{label}: {name} unit {got[name]['unit']} != {metric['unit']}")
        assert isinstance(got[name]["value"], (int, float)), label
    extra = set(got) - {m["name"] for m in metrics}
    assert not extra, f"{label}: metrics not in BENCHMARK.json: {extra}"


def main():
    spec = json.load(open(BENCHMARK))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            lines, result = run(workload, 0)
            expect_metrics(result, spec["end_to_end"], f"{workload} e2e")
            assert result["correct"] is True, f"{workload}: outputs wrong"
            assert result["attempted"] >= 1 and result["failed"] == 0
            error_rate = [l for l in lines if l.startswith("error_rate ")]
            assert error_rate and float(error_rate[0].split()[1]) == 0.0, (
                f"{workload}: error_rate line {error_rate}")

            _, traced = run(workload, 1)
            expect_metrics(traced, spec["per_layer"], f"{workload} traced")
            assert traced["correct"] is True, f"{workload}: traced outputs"

            _, corrupted = run(workload, 0, corrupt=True)
            assert corrupted["failed"] > 0 and corrupted["correct"] is False, (
                f"{workload}: corrupted reference not reported")
            print(f"ok   {workload}")
        except AssertionError as err:
            failures += 1
            print(f"FAIL {workload}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
