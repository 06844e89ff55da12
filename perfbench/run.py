#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The program is configured with CMake (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), built, and
run. Its output is passed through; the last line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Inputs and spans go under the build directory; the inputs are deleted
when the run ends. --self-test builds and runs the benchmark's own test.

Exits non-zero without a result line when the repository sources are
missing, the build fails, or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_replay", "paper_generate", "flash_ledger", "spec_matrix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to {HERE} (need CMakeLists.txt "
             "and src/ at the checkout root)", 2)

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")

    if args.self_test:
        build(build_dir, "perfbench_test")
        test = os.path.join(build_dir, "perfbench_test")
        if not os.path.exists(test):
            fail("perfbench_test was not built (GTest not found)")
        sys.exit(subprocess.run([test], cwd=ROOT).returncode)

    build(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--spec", os.path.join(HERE, "spec_matrix.json")]
    if args.trace:
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        fail(f"perfbench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench result line has unexpected keys")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
