"""Every end-to-end metric of every workload, in one command.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload once untraced (for BENCHMARK.json's run_seconds unless
``--seconds`` is given) and prints one line per metric: workload,
name, value, unit and sample count, including the failure ratio (failed
passes over attempted passes).  Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import sys

from run import load_spec, measure, save
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ns = parser.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        result = measure(name, ns.seed, ns.seconds, trace=False)
        save(result, ns.seed, False)
        for metric, (value, unit, samples) in result["metrics"].items():
            print(f"{name:18} {metric:12} {value:12.6g} {unit:5} n={samples}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name:18} {'fail_ratio':12} {ratio:12.6g} {'1':5} n={result['attempted']}")
        for problem in result["problems"]:
            print(f"{name:18} problem: {problem}")
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
