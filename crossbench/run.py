"""crossnum benchmark harness.

    python3 crossbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/crossnum``).  A run
repeats rounds of the workload for about S seconds, always whole rounds and
at least one.  Each round starts fresh processes, one at a time, so
crossnum's memos start empty as in a user's script: one worker process for
d-sweep, staircase and enumeration, and one process per invocation of the
``crossnum`` CLI for cli-batch.  Every output is checked against the
oracles in ``oracles.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Problems found by the checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150.0


def _environment() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CROSSNUM_MAX_ENUM", None)   # the default guard, as a user has it
    return env


def _start_worker(module: str, env: dict) -> tuple[subprocess.Popen, float]:
    """Launch a worker and wait until it has imported ``module``; returns
    the process and the set-up time from launch to ready."""
    began = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), module],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - began
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (said {line!r})")
    return proc, setup


def _finish_worker(proc: subprocess.Popen, request) -> str:
    try:
        reply, _ = proc.communicate(json.dumps(request), timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return reply


def worker_round(ops: list[dict], spans: Path | None, env: dict) -> dict:
    proc, setup = _start_worker("crossnum", env)
    reply = json.loads(_finish_worker(proc, {"ops": ops,
                                             "spans": spans and str(spans)}))
    reply["setup_s"] = setup
    return reply


def cli_round(invocations: list[dict], spans: Path | None, env: dict) -> dict:
    """Every invocation in its own process, one after another."""
    workdir = OUT / "cli"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if spans is not None:
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
    proc, setup = _start_worker("crossnum.cli", env)
    _finish_worker(proc, None)
    launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                cwd=ROOT, env=env, text=True)
    runs = []
    first = perf_counter()
    for i, inv in enumerate(invocations):
        if spans is None:
            argv = [sys.executable, "-m", "crossnum.cli", *inv["args"]]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"),
                    str(spans / f"{i:03d}.tsv"), *inv["args"]]
        launcher.stdin.write(json.dumps({"argv": argv, "cwd": str(workdir)}) + "\n")
        launcher.stdin.flush()
        runs.append(json.loads(launcher.stdout.readline()))
    wall = perf_counter() - first
    launcher.stdin.close()
    launcher.wait()
    latencies = [run["seconds"] for run in runs]
    peak_mb = runs[-1]["peak_rss_mb"]
    for inv, run in zip(invocations, runs):
        path = workdir / inv["out"] if inv["out"] else None
        run["file"] = path.read_text() if path and path.is_file() else ""
    reply = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": peak_mb,
             "latencies": latencies, "runs": runs}
    if spans is not None:
        import spans as tracing

        raws = []
        for i, latency in enumerate(latencies):
            path = spans / f"{i:03d}.tsv.json"
            if path.is_file():
                raw = json.loads(path.read_text())
                raw["process_s"] = latency - raw["main_s"]
                raws.append(raw)
        reply["layers"] = tracing.merge(raws)
    return reply


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crossnum" / "__init__.py").is_file():
        print(f"crossbench: no crossnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import checks

    ops = workloads.make(args.workload, args.seed)
    checker = checks.Checker()
    env = _environment()
    is_cli = args.workload == "cli-batch"
    rounds, latencies = [], []
    attempted = failed = 0
    began = perf_counter()
    while True:
        round_began = perf_counter()
        spans = None
        if args.trace:  # each round overwrites the spans of the one before
            spans = OUT / "spans" / (args.workload + ("" if is_cli else ".tsv"))
            spans.parent.mkdir(parents=True, exist_ok=True)
        if is_cli:
            reply = cli_round(ops, spans, env)
            failed += checks.check_cli_round(checker, ops, reply["runs"])
        else:
            reply = worker_round(ops, spans, env)
            failed += checks.check_worker_round(checker, ops, reply)
        attempted += len(ops)
        latencies += reply["latencies"]
        rounds.append(reply)
        spent = perf_counter() - began
        if spent + (perf_counter() - round_began) > args.seconds:
            break

    if args.trace:
        import spans as tracing

        per_round = [tracing.finish(r["layers"], checker.least_radius) for r in rounds]
        metrics = {}
        for name, unit in tracing.UNITS.items():
            values = [m[name] for m in per_round if m[name] is not None]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"crossbench: traced wall_s {statistics.median(r['wall_s'] for r in rounds)!r} "
              f"over {len(rounds)} rounds", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1000.0 * _quantile(latencies, 90), "ms"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for problem in checker.problems:
        print(f"crossbench: {problem}", file=sys.stderr)
    result = {"correct": not checker.problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
