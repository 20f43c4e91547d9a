#!/usr/bin/env python3
"""Build the profiler's benchmark from source and run one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload <live-parallel|dag-exact|daemon-replay> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to _build/ in the tree (dune's shared cache is off, so
nothing is read or written elsewhere).  The last line of stdout is the
benchmark's JSON result; the exit code is the benchmark's, or the
build's when the tree does not build.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/ddpbench.exe"],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "ddpbench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
