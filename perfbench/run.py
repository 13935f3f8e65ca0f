#!/usr/bin/env python3
"""Builds the perfbench binary and runs one workload (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built with CMake from this
directory's CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr so that the last line
of stdout is the JSON result. Exits with the binary's status, or
3 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.abspath(os.path.join(root, "perfbench"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    args = sys.argv[1:] + ["--expected", os.path.join(HERE, "expected.txt")]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
