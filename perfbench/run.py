#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

The driver binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use; later runs only re-check it.
Build output goes to stderr, so the last line of stdout is always the
driver's one-line JSON result. A run that stalls or overruns its time is
killed and reported as failed; a checkout without the program sources
exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train", "serve_hot", "serve_cold")
# A run must end within 180 s of its start, not counting the build.
RUN_LIMIT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every program and benchmark source file, in path order."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for root, dirs, files in os.walk(os.path.join(SOURCE_ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, SOURCE_ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", SOURCE_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir, env):
    binary = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.path.exists(binary):
        fail("build produced no binary at " + binary)
    return binary


def stalled_result(workload, why):
    return json.dumps({
        "correct": False, "attempted": 1, "failed": 1,
        "metrics": {"ok_share": {"value": 0.0, "unit": "ratio"}},
    }), "workload %s %s" % (workload, why)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.exists(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found next to " + BENCH_DIR)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.abspath(target)
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp_dir
    env.pop("RTGCN_TRACE", None)  # tracing is the --trace flag's business
    binary = build(build_dir, env)

    work_dir = os.path.join(build_root, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work_dir", work_dir]
    start = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_LIMIT_S)
        code = child.returncode
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        line, why = stalled_result(
            args.workload, "overran %d s and was stopped" % RUN_LIMIT_S)
        print(line)
        print("perfbench: " + why, file=sys.stderr)
        code = 3
        out = None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        subprocess.run(["rm", "-rf", work_dir])
    if out is not None:
        sys.stdout.write(out)
        sys.stdout.flush()
        print("perfbench: %s run took %.1f s" % (args.workload,
                                                  time.monotonic() - start),
              file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
