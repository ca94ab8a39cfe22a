"""One cold pass of an ``hbl`` command in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (the checkout's source directory), ``argv`` (the
arguments for ``hbl.cli.main``; empty to stop after the import), ``trace``
and ``record`` (the file this pass writes its measurements to).  The child
prints ``ready`` on stdout once ``hbl.cli`` is imported, so the parent can
time interpreter start-up plus import, then runs the command with its output
captured and writes the record.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` keeps the parent's peak across fork and exec, so a large
    parent would show in every pass; ``VmHWM`` belongs to this image alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import hbl.cli

    if src not in Path(hbl.cli.__file__).resolve().parents:
        sys.stderr.write(f"hbl imported from {hbl.cli.__file__}, not from {src}\n")
        return 2
    print("ready", flush=True)
    if not spec["argv"]:
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    record = {"exit": None, "error": None}
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            record["exit"] = hbl.cli.main(spec["argv"])
    except Exception as exc:  # a failed pass is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["run_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = peak_rss_mb()
    record["stdout"] = captured.getvalue()[-4000:]
    if tracer is not None:
        record["trace"] = tracer.metrics()
        record["spans"] = tracer.span_table()
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
