"""One round of a workload in a fresh interpreter, so crossnum's memos start empty.

    python3 crossbench/worker.py [MODULE]

Imports MODULE (default ``crossnum``), writes ``ready`` on stdout, then reads
one JSON request on stdin: ``null`` ends the process (a set-up probe), else
``{"ops": [...], "spans": PATH or null}``.  It runs the operations in order,
timing each, and writes one JSON reply with the latencies, the wall time,
the peak resident memory read at the end of the timed section, the exported
results and, when ``spans`` is set, the layer totals of the traced run.
"""

import importlib
import sys

importlib.import_module(sys.argv[1] if len(sys.argv) > 1 else "crossnum")
sys.stdout.write("ready\n")
sys.stdout.flush()

import json  # noqa: E402  (everything after "ready" is outside set-up)
from time import perf_counter  # noqa: E402


def peak_rss_mb() -> float:
    # VmHWM is this process's own peak; getrusage's ru_maxrss would also
    # carry the peak of the harness this process was started from
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    request = json.load(sys.stdin)
    if request is None:
        return
    import workloads

    tracer = None
    if request["spans"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cn = importlib.import_module("crossnum")
    shared: dict = {}
    latencies, results, errors = [], [], []
    first = perf_counter()
    for op in request["ops"]:
        began = perf_counter()
        try:
            result = workloads.execute(cn, op, shared)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(perf_counter() - began)
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(perf_counter() - began)
        results.append(workloads.export(op, result))
        errors.append(None)
    wall = perf_counter() - first
    peak_mb = peak_rss_mb()
    reply = {"latencies": latencies, "wall_s": wall, "peak_rss_mb": peak_mb,
             "results": results, "errors": errors}
    if tracer is not None:
        reply["layers"] = tracer.raw()
        tracer.write(request["spans"])
    json.dump(reply, sys.stdout)


main()
