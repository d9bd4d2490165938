#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see README.md in this directory).

Run from the repository root:

    python3 servebench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the servebench binary
under .bench_build/ (or $CARGO_TARGET_DIR when set); later calls only rebuild
what changed. The binary's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; this script checks its shape and
exits with the binary's code (0 only when every answer was correct).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "read_wide", "write_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(base)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    build_dir = os.path.join(build_base(), "servebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} has keys {sorted(metric)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=4.0,
                        help="XMark scale (DKI_SCALE); 4 is 69k nodes")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one served answer (gate self-test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    workdir = os.path.join(build_base(), f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--workdir", workdir,
           "--git-describe", git_describe()]
    if args.plant_wrong_answer:
        cmd.append("--plant-wrong-answer")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"servebench printed nothing (exit code {proc.returncode})")
    try:
        check_result(lines[-1])
    except (ValueError, json.JSONDecodeError) as e:
        fail(f"malformed result line: {e}")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
