#!/usr/bin/env python3
"""quasilat benchmark: one workload per run, checked outputs, one JSON result line.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload gabor-scenarios --seed 1 --seconds 40 --trace 0

The program is imported from ./src of the checkout. A run prepares its
inputs from the seed, then repeats whole rounds of the workload's operations
until the next round would end past --seconds (at least one round), and
reports medians over rounds. Set-up time is measured in fresh processes that
import quasilat and prepare the same inputs. With --trace 1 the run
alternates untraced and traced rounds and reports per-layer self times and
counts instead of the end-to-end metrics. The last line of standard output
is the result; the line before it and perfbench/out/ hold the run record.
"""

import argparse
import os
import sys

# At most 1 BLAS thread: fixed before numpy loads, and below nproc on any host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("gabor-scenarios", "pointsets-large", "padic-exact")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and prepare inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def setup(workload, seed, work):
    """Import the program from this checkout and build the workload's inputs."""
    sys.path.insert(0, SRC)
    import quasilat
    if not os.path.realpath(quasilat.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: quasilat imported from {quasilat.__file__}, not {SRC}")
    import workloads
    return workloads.PLANS[workload](seed, work)


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "quasilat", "__init__.py")):
        print(f"error: no quasilat sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{os.getpid()}")
    if args.setup_probe:
        setup(args.workload, args.seed, work)
        print("ready", flush=True)
        return 0
    import bench
    return bench.run(args, setup, os.path.abspath(__file__), ROOT, OUT, work)


if __name__ == "__main__":
    sys.exit(main())
