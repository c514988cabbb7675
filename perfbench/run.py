#!/usr/bin/env python3
"""Builds the DISCS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload facade_mix|paper_stream|control_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark binary is built (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset; a
second run only re-checks the build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Traced runs write their span
dump under .bench_out/.
"""
import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "core", "discs_system.hpp")):
        print("perfbench: no library sources under %s/src; run from a checkout"
              % root, file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: cmake configure failed", file=sys.stderr)
            return 1
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(["cmake", "--build", build, "--target", "discs_perfbench",
                            "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build, "discs_perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(root)
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
