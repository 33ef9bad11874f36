"""Set-up probe: one fresh interpreter doing a run's set-up and nothing else.

It imports ``bergerflow`` from the checkout, makes the workload's inputs,
and prints the monotonic clock at the moment the first timed op would
start.  ``run.py`` reads the clock before starting this process; the
difference is one ``setup_s`` sample.

    python3 perfbench/setup_probe.py --workload sweep --seed 1
"""

import argparse
import time

import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bf = workloads.load_program()
    workloads.build(bf, args.workload, args.seed)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
