#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the program's libraries
from src/ plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to standard error. The benchmark report goes to standard
output, and its last line is the JSON result. The exit status is the
binary's: 0 when every output check passed, 1 when one failed or the build
failed, 2 on usage errors.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["hula_mitm", "probe_chain", "ctrl_rotate", "fuzz_campaign"]
RUN_TIMEOUT_S = 170


def source_digest(roots):
    """SHA-256 over every file under `roots` (relative path and bytes)."""
    digest = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit_id():
    # Only a checkout that is itself a git work tree names its commit;
    # git is never asked to search parent directories.
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_logged(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(result.stdout)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        return False
    return True


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            sys.stderr.write("perfbench: %s not found; run from the root of a full checkout\n"
                             % needed)
            return 1

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--source-digest", source_digest(["src", "perfbench"])]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
