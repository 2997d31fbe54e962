#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository.  It builds
perfbench/main.exe with dune (progress goes to standard error), then
runs it with the same arguments.  Standard output ends with one JSON
line, the result; the exit code is the benchmark's own (0 when every
job ran and every check passed).
"""

import os
import subprocess
import sys

# A run ends within 180 s; the program stops repeating at 150 s.
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run this from the root of a checkout of the repository\n"
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    try:
        run = subprocess.run(
            ["./_build/default/perfbench/main.exe"] + sys.argv[1:],
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
