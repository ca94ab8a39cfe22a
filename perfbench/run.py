"""Benchmark of the ``hbl`` CLI: cold-process passes of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs ``hbl.cli.main`` in a fresh interpreter (library caches start
cold, as for every CLI user), one pass at a time from this one process: a
closed loop with one client.  Passes start while the next one is expected to
end within ``--seconds``.  After the passes the outputs are checked against
the library at doubled precision.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
the run's passes).  ``--trace 1`` alternates untraced passes with passes whose
layer functions are wrapped by `tracer.Tracer`, and reports the per-layer
metrics.  The last stdout line is the result object; the line before it
holds the environment and the sample counts, also written, with every pass's
record, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2  # byte-identity needs two passes of one seed
SETUP_SPAWNS = 6  # extra import-only interpreters per run, for setup_s
TIME_LIMIT_S = 160  # passes still running then are killed, leaving time for the checks
HOST_REF_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def host_reference() -> float:
    """Median time of a fixed pure-Python loop; shows a slow or busy host."""
    times = []
    for _ in range(HOST_REF_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(record_precision) -> dict:
    import mpmath

    versions = {}
    for dist in ("mpmath", "numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "precision_bits": record_precision,
    }


def artifact_digest(out: Path) -> tuple:
    """(sha256 over every artifact's name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


class Runner:
    """Spawns the pass interpreters of one run inside a scratch directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, argv: list, trace: bool) -> dict:
        """One interpreter; returns its setup time and, for a pass, its record."""
        self.count += 1
        record_path = self.work / f"record{self.count}.json"
        spec = {"src": str(SRC), "argv": argv, "trace": trace, "record": str(record_path)}
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=self.work,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            # setup_s None marks the pass that hit the run's time limit
            return {"setup_s": None, "exit": None, "error": "timed out"}
        if ready.strip() != "ready":
            raise BenchError(f"cannot import hbl.cli ({proc.returncode}): {err.strip()}")
        if not argv:
            return {"setup_s": setup_s}
        if proc.returncode != 0 or not record_path.is_file():
            return {"setup_s": setup_s, "exit": None,
                    "error": f"interpreter exited {proc.returncode}: {err.strip()[-300:]}"}
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record["setup_s"] = setup_s
        record["stderr"] = err[-4000:]
        return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    if not (SRC / "hbl" / "cli.py").is_file():
        raise BenchError(f"no hbl sources under {SRC}")
    workload = WORKLOADS[name]
    started = time.perf_counter()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    try:
        runner = Runner(work, started + TIME_LIMIT_S)
        host_ref_s = host_reference()
        inputs = workload.inputs(seed, work / "config.json", tiny)
        runner.spawn([], False)  # untimed, so the first pass finds files cached

        # Traced runs repeat (untraced, traced, traced): the untraced passes
        # give the tracing overhead, two traced ones the count check.
        min_passes = 3 if trace else MIN_PASSES
        passes = []
        pass_start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 3 != 0
            out = work / f"pass{len(passes)}"
            record = runner.spawn(["--out", str(out)] + inputs.argv, traced)
            record["traced"] = traced
            record["out"] = out
            passes.append(record)
            if record["setup_s"] is None:
                break
            now = time.perf_counter()
            expected = (now - pass_start) / len(passes)
            if len(passes) >= min_passes and now + expected > pass_start + seconds:
                break
        setups = [p["setup_s"] for p in passes]
        for _ in range(SETUP_SPAWNS):
            setups.append(runner.spawn([], False)["setup_s"])
        setups = [s for s in setups if s is not None]

        result = evaluate(workload, inputs, passes, trace)
        result["setup_samples"] = setups
        result["host.ref_s"] = host_ref_s
        result["wall_s"] = time.perf_counter() - started
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(workload, inputs, passes: list, trace: bool) -> dict:
    """Failures, checks and counts of a run's passes (outside any timing)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hbl

    if SRC not in Path(hbl.__file__).resolve().parents:
        raise BenchError(f"hbl imported from {hbl.__file__}, not from {SRC}")

    problems = []
    for p in passes:
        p["ok"] = p.get("exit") == 0 and p.get("error") is None
        if p["ok"]:
            p["digest"], p["artifact_bytes"] = artifact_digest(p["out"])
        elif len(problems) < 5:
            problems.append(f"pass failed: exit {p.get('exit')}, {p.get('error')}, "
                            f"{p.get('stderr', '').strip()[-300:]}")
    good = [p for p in passes if p["ok"]]
    precision = None
    if good:
        first = good[0]
        try:
            check = workload.check(first["out"], inputs)
        except Exception as exc:  # a check that cannot run fails the passes
            check = [f"check raised {type(exc).__name__}: {exc}"]
        problems += check
        for p in good:
            if p["digest"] != first["digest"]:
                p["ok"] = False
                problems.append(f"artifacts of {p['out'].name} differ from {first['out'].name}")
            elif check:
                p["ok"] = False
        precision = _artifact_precision(first["out"])

    traced = [p["trace"] for p in passes if p["traced"] and "trace" in p]
    counts_equal = True
    if trace:
        count_keys = [k for k, v in traced[0].items() if isinstance(v, int)] if traced else []
        for t in traced[1:]:
            diff = [k for k in count_keys if t[k] != traced[0][k]]
            if diff:
                counts_equal = False
                problems.append(f"traced passes disagree on counts: {diff}")
        if len(traced) < 2:
            counts_equal = False
            problems.append("fewer than two traced passes completed")

    failed = sum(not p["ok"] for p in passes)
    return {
        "workload": workload.name,
        "inputs": {"config": json.loads(inputs.config_path.read_text()), "t": inputs.t,
                   "argv": inputs.argv},
        "attempted": len(passes),
        "failed": failed,
        "correct": failed == 0 and counts_equal and not problems,
        "problems": problems,
        "precision_bits": precision,
        "passes": [{k: (str(v) if isinstance(v, Path) else v) for k, v in p.items()}
                   for p in passes],
    }


def _artifact_precision(out: Path):
    for path in sorted(out.glob("*.json")):
        return json.loads(path.read_text(encoding="utf-8")).get("precision_bits")
    for path in sorted(out.glob("*.csv")):
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.readline()[2:]).get("precision_bits")
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict) -> dict:
    good = [p for p in result["passes"] if p["ok"] and not p["traced"]]
    return {
        "setup_s": (_median(result["setup_samples"]), len(result["setup_samples"])),
        "run_s": (_median([p["run_s"] for p in good]), len(good)),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in good]), len(good)),
    }


def per_layer(result: dict, units: dict) -> dict:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"] and p["ok"]]
    untraced = [p for p in passes if not p["traced"] and p["ok"]]
    values = {}
    if traced:
        for key, first in traced[0]["trace"].items():
            values[key] = first if isinstance(first, int) else _median(
                [p["trace"][key] for p in traced])
        values["cli.artifact_bytes"] = traced[0]["artifact_bytes"]
    values["trace.overhead_s"] = (
        _median([p["run_s"] for p in traced]) - _median([p["run_s"] for p in untraced])
        if traced and untraced else 0.0
    )
    values["host.ref_s"] = result["host.ref_s"]
    return {name: (values.get(name, 0), len(traced)) for name in units}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: the result record with its metrics as {name: (value, unit, samples)}."""
    spec = load_spec()
    result = run_workload(name, seed, seconds, trace, tiny)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(result, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(result)
    result["metrics"] = {k: (values[k][0], units[k], values[k][1]) for k in units}
    result["environment"] = environment(result["precision_bits"])
    result["environment"]["host.ref_s"] = result["host.ref_s"]
    return result


def save(result: dict, seed: int, trace: bool) -> Path:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        result = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    save(result, ns.seed, bool(ns.trace))
    for name, (value, unit, samples) in result["metrics"].items():
        sys.stderr.write(f"{ns.workload} {name} = {value:.6g} {unit} (n={samples})\n")
    sys.stderr.write(
        f"{ns.workload} fail_ratio = {result['failed']}/{result['attempted']} "
        f"(n={result['attempted']})\n"
    )
    for problem in result["problems"]:
        sys.stderr.write(f"{ns.workload} problem: {problem}\n")
    print(json.dumps({
        "environment": result["environment"],
        "samples": {k: v[2] for k, v in result["metrics"].items()},
        "wall_s": result["wall_s"],
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
