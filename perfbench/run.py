#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench.exe with dune
(the repo's own libraries, from source) and hands the arguments to it;
its last line of output is the result object. Exits non-zero without a
result when the build fails, e.g. outside a full checkout.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def pin(argv):
    """Pin the cut workloads (one busy thread: the solving child) to the
    last allowed CPU. Left to the scheduler, a run's children land on
    one CPU or another, and CPU 0, which takes most interrupts, runs the
    same solve up to a fifth slower on a shared 2-vCPU virtual machine,
    so run-to-run figures split in two.
    serve-mix keeps every CPU: it has two busy threads and pins each
    to a CPU of its own."""
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else ""
    if workload.startswith("cut-") and hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
        print("  cpu          pinned to %d of %s" % (allowed[-1], allowed), flush=True)


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: no dune-project here; run from the repo root\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/bench.exe"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.stderr.write("run.py: build failed\n")
        return 2
    pin(sys.argv[1:])
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
