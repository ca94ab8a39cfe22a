"""Self-test of the benchmark harness: every workload once at a tiny size.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Runs each workload untraced and traced with tiny inputs, then checks that
each run is correct, that every metric of BENCHMARK.json is emitted with its
unit, and that in every traced pass the span self-times sum to no more than
the pass's wall time.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import sys

from run import load_spec, measure
from tracer import LAYERS
from workloads import WORKLOADS


def main() -> int:
    spec = load_spec()
    failures = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, seed=0, seconds=0, trace=trace, tiny=True)
            label = f"{name} trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: not correct: {result['problems']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: unit for k, (_, unit, _) in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got)} != {sorted(want)}")
            for p in result["passes"]:
                if not p.get("trace"):
                    continue
                self_sum = sum(p["trace"][f"{layer}.self_s"] for layer in LAYERS)
                if not 0 < self_sum <= p["run_s"]:
                    failures.append(
                        f"{label}: span self-times {self_sum} vs pass wall {p['run_s']}"
                    )
            print(f"{label}: {result['attempted']} passes, "
                  f"{len(result['metrics'])} metrics, {result['wall_s']:.1f} s")
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
