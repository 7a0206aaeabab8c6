"""Shows that the checks accept crossnum's real outputs and reject corrupted ones.

    python3 crossbench/selftest.py

Run from the root of a source checkout.  Each case computes a few real
outputs, checks that they pass, corrupts one of them and checks that the
checker now reports a problem.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import subprocess
import sys

import checks
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import crossnum  # noqa: E402


def _worker_reply(ops: list[dict]) -> dict:
    shared: dict = {}
    results = [workloads.export(op, workloads.execute(crossnum, op, shared)) for op in ops]
    return {"results": results, "errors": [None] * len(ops)}


def _cli_runs(invocations: list[dict]) -> list[dict]:
    runs = []
    for inv in invocations:
        done = subprocess.run([sys.executable, "-m", "crossnum.cli", *inv["args"]],
                              env=run._environment(), capture_output=True, text=True,
                              timeout=60)
        runs.append({"code": done.returncode, "stdout": done.stdout,
                     "stderr": done.stderr, "file": ""})
    return runs


def _judge(check, outputs) -> tuple[int, list[str]]:
    checker = checks.Checker()
    failed = check(checker, outputs)
    return failed, checker.problems


def case(name: str, check, outputs, corrupt) -> bool:
    failed, problems = _judge(check, outputs)
    accepted = failed == 0 and not problems
    bad = copy.deepcopy(outputs)
    corrupt(bad)
    _, problems_bad = _judge(check, bad)
    ok = accepted and bool(problems_bad)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: real output "
          f"{'accepted' if accepted else f'rejected {problems}'}, corrupted output "
          f"{'rejected: ' + problems_bad[0] if problems_bad else 'accepted'}")
    return ok


def _swap_distinct(values: list[float]) -> None:
    i = next(i for i in range(len(values) - 1) if values[i] != values[i + 1])
    values[i], values[i + 1] = values[i + 1], values[i]


def main() -> int:
    row = [{"op": "complexity_row", "eps": 0.0123, "s": 0.5, "ds": list(range(1, 17))}]
    table = [{"op": "rearranged", "family": "star", "s": 1.5, "d": 2, "n": 300,
              "key": "t"}]
    tail = [{"op": "rearranged", "family": "plus", "s": 2.0, "d": 3, "n": 5000,
             "key": "t"}]
    window = [{"op": "window", "d": 3, "s": 1.0, "start": 123456, "length": 50}]
    count = [workloads.invocation(["count", "--r", 5000, "--d", 4], "count", r=5000, d=4)]
    refused = [workloads.invocation(["cross", "--r", 200, "--d", 3, "--max-enum", 100],
                              "refused", expect=4)]
    known = [workloads.invocation(workloads.KNOWN_FAILURE, "known_failure")]

    def on_worker(ops):
        return lambda checker, reply: checks.check_worker_round(checker, ops, reply)

    def on_cli(invocations):
        return lambda checker, runs: checks.check_cli_round(checker, invocations, runs)

    def bump_count(reply):
        reply["results"][0][7] += 1

    def bump_radius(reply):
        reply["results"][0]["r"][20] += 1

    def swap_head(reply):
        values = reply["results"][0]["values"]
        middle = values[100:]
        _swap_distinct(middle)
        values[100:] = middle

    def swap_tail(reply):
        values = reply["results"][0]["values"]
        tail_values = values[4900:]
        _swap_distinct(tail_values)
        values[4900:] = tail_values

    def cli_count_off(runs):
        runs[0]["stdout"] = runs[0]["stdout"].replace('"count":"', '"count":"1', 1)

    def wrong_exit(runs):
        runs[0]["code"] = 3

    def refusal_exit_zero(runs):
        runs[0]["code"] = 0

    results = [
        case("count off by one (d-sweep)", on_worker(row), _worker_reply(row), bump_count),
        case("staircase radius off by one", on_worker(window), _worker_reply(window),
             bump_radius),
        case("spectrum value swapped in the box-checked head", on_worker(table),
             _worker_reply(table), swap_head),
        case("spectrum value swapped beyond the box", on_worker(tail),
             _worker_reply(tail), swap_tail),
        case("CLI count altered", on_cli(count), _cli_runs(count), cli_count_off),
        case("wrong exit code", on_cli(count), _cli_runs(count), wrong_exit),
        case("refusal that exits 0", on_cli(refused), _cli_runs(refused),
             refusal_exit_zero),
    ]
    # the kept failure is counted as failed, not as a wrong output
    failed, problems = _judge(on_cli(known), _cli_runs(known))
    print(f"info kept failure `crossnum {' '.join(workloads.KNOWN_FAILURE)}`: "
          f"counted failed={failed}, problems={problems}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
