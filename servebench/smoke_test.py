#!/usr/bin/env python3
"""Smoke test of the serving benchmark: tiny scale, short runs.

Run from the repository root:

    python3 servebench/smoke_test.py

Checks, for every workload in BENCHMARK.json and both trace modes, that the
run succeeds, that its result line round-trips through the JSON parser, and
that it emits exactly the metrics BENCHMARK.json names, with their units.
Then checks that a planted wrong answer trips the correctness gate, and that
the benchmark fails cleanly in a directory without the library sources.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.25"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("servebench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_run(spec, workload, trace):
    proc = run(["--workload", workload, "--trace", str(trace)] + TINY)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = last_json(proc)
    check(json.loads(json.dumps(result)) == result, "result does not round-trip")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} trace={trace} reported failures")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "attempted must be a whole number >= 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          f"{workload} trace={trace} metric names differ: "
          f"missing {sorted({m['name'] for m in wanted} - set(got))}, "
          f"extra {sorted(set(got) - {m['name'] for m in wanted})}")
    for m in wanted:
        value = got[m["name"]]
        check(value["unit"] == m["unit"], f"{m['name']} unit {value['unit']} != {m['unit']}")
        check(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
              f"{m['name']} is not a finite number")
        if not trace:
            check(value["value"] > 0, f"end-to-end metric {m['name']} is 0")
    print(f"ok: {workload} trace={trace} ({len(got)} metrics)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)

    proc = run(["--workload", "read_hot", "--plant-wrong-answer"] + TINY)
    check(proc.returncode != 0, "planted wrong answer did not fail the run")
    result = last_json(proc)
    check(result["correct"] is False and result["failed"] >= 1,
          "planted wrong answer not counted")
    print("ok: planted wrong answer trips the gate")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        proc = run(["--workload", "read_hot"] + TINY, cwd=bare)
        check(proc.returncode != 0, "run without library sources exited 0")
        lines = proc.stdout.strip().splitlines()
        check(not lines or not lines[-1].startswith("{\"correct\""),
              "run without library sources printed a result")
    print("ok: fails cleanly without the library sources")


if __name__ == "__main__":
    main()
