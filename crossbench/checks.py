"""Checks of crossnum's outputs against the oracles, one checker per workload.

``check_worker_round`` and ``check_cli_round`` get the operations of a
round and what the worker (or the CLI processes) returned.  They return the
number of operations that did not complete and record every wrong output of
the others in ``Checker.problems``.  Nothing is compared with a stored copy
of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracles
import workloads

REL = 1e-12   # two float computations of the same value in a different order


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Checker:
    """Shared oracle state; the same instance serves every round of a run."""

    def __init__(self) -> None:
        self.counts = oracles.CountOracle()
        self._stairs: dict[int, oracles.Staircase] = {}
        self._boxes: dict[tuple, oracles.BoxSpectrum] = {}
        self.problems: list[str] = []

    # -- oracle access ------------------------------------------------------
    def stairs(self, d: int) -> oracles.Staircase:
        if d not in self._stairs:
            self._stairs[d] = oracles.Staircase(d)
        return self._stairs[d]

    def box(self, family: str, s: float, d: int) -> oracles.BoxSpectrum:
        key = (family, float(s), d)
        if key not in self._boxes:
            self._boxes[key] = oracles.BoxSpectrum(family, float(s), d)
        return self._boxes[key]

    def least_radius(self, n: int, d: int) -> int:
        return int(self.stairs(d).radii([n])[0])

    def sharp_values(self, d: int, s: float, count: int) -> np.ndarray:
        radii = self.stairs(d).radii(np.arange(1, count + 1))
        return 1.0 / radii.astype(np.float64) ** s

    def complexity(self, eps: float, d: int, s: float) -> int:
        return oracles.complexity_sharp(self.counts, eps, d, s)

    def enclosure(self, family: str, s: float, d: int, eps: float) -> tuple[int, int]:
        """Sharp complexities that enclose n(eps, d) by norm-one embeddings."""
        return tuple(self.complexity(eps, d, e) for e in _sandwich(family, s))

    # -- reporting ----------------------------------------------------------
    def expect(self, ok: bool, what: str) -> bool:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        return ok

    # -- shared property checks --------------------------------------------
    def spectrum(self, family: str, s: float, d: int, values, label: str) -> None:
        """A non-sharp spectrum head: box oracle where it is certified, the
        sharp sandwich everywhere, sigma_1 = 1 and non-increasing order."""
        n = len(values)
        got = np.asarray(values, dtype=np.float64)
        self.expect(n >= 1 and got[0] == 1.0, f"{label}: sigma_1 != 1")
        self.expect(bool(np.all(np.diff(got) <= 0.0)), f"{label}: not non-increasing")
        box = self.box(family, s, d)
        head = min(n, box.certified)
        diff = np.abs(got[:head] - box.values[:head])
        self.expect(bool(np.all(diff <= REL * box.values[:head])),
                    f"{label}: head differs from box enumeration")
        lower_s, upper_s = _sandwich(family, s)
        # the larger exponent gives the smaller sharp spectrum
        low = self.sharp_values(d, max(lower_s, upper_s), n)
        high = self.sharp_values(d, min(lower_s, upper_s), n)
        self.expect(bool(np.all(got >= low * (1 - REL)) and np.all(got <= high * (1 + REL))),
                    f"{label}: outside the sharp sandwich")

    def csv_rows(self, text: str, header: list[str], label: str) -> list[list[str]]:
        rows = list(csv.reader(io.StringIO(text)))
        self.expect(bool(rows) and rows[0] == header, f"{label}: CSV header")
        return rows[1:]

    def qpt(self, record: dict, s: float, ds, eps_grid, label: str) -> None:
        t, c_t = 8.0 / s, math.exp(2.0)
        self.expect(record["passed"] and not record["violations"],
                    f"{label}: proof-derived certificate did not pass")
        self.expect(_close(record["t"], t) and _close(record["c_t"], c_t),
                    f"{label}: not the proof-derived pair")
        grid = [[float(e), d] for d in ds for e in eps_grid]
        self.expect(record["grid"] == grid, f"{label}: grid")
        margins = [math.log(self.complexity(e, d, s)) - 2.0
                   - t * math.log(1.0 / e) * (1.0 + math.log(d)) for e, d in grid]
        worst = max(margins)
        self.expect(worst <= 0.0, f"{label}: an oracle complexity breaks the bound")
        self.expect(abs(record["slack"] - worst) <= 1e-9 * max(1.0, abs(worst)),
                    f"{label}: slack {record['slack']} != {worst}")

    def trace_rows(self, rows, d: int, s: float, rs, label: str) -> None:
        self.expect(len(rows) == len(rs), f"{label}: row count")
        for (n, ratio), r in zip(rows, rs):
            n = int(n)
            self.expect(n == self.counts.count(r, d), f"{label}: C({r},{d})")
            ln_n = math.log(n)
            expected = math.exp(s * (ln_n - math.log(r) - (d - 1) * math.log(ln_n)))
            self.expect(_close(float(ratio), expected, 1e-9), f"{label}: ratio at r={r}")


def _sandwich(family: str, s: float) -> tuple[float, float]:
    """(s_low, s_high): n_sharp(s_low) <= n(eps) <= n_sharp(s_high), i.e.
    a_n(sharp, s_low) <= sigma_n <= a_n(sharp, s_high)."""
    if family == "plus":
        return s, s / 2.0
    if family == "star":
        return (s, 0.5) if s >= 0.5 else (0.5, s)
    if family == "intm":
        return float(s), 0.5
    raise ValueError(family)


# -- per-workload checks -----------------------------------------------------

def check_worker_round(checker: Checker, ops: list[dict], reply: dict) -> int:
    """Check one worker reply; returns the number of failed operations."""
    failed = 0
    by_key = {op["key"]: op for op in ops if "key" in op}
    for i, (op, result, error) in enumerate(zip(ops, reply["results"], reply["errors"])):
        label = f"op {i} {op['op']}"
        if error is not None:
            failed += 1
            checker.expect(False, f"{label}: raised {error}")
            continue
        _CHECKS[op["op"]](checker, op, result, label, by_key)
    return failed


def _complexity_row(c: Checker, op, result, label, _) -> None:
    for d, n in zip(op["ds"], result):
        c.expect(n == c.complexity(op["eps"], d, op["s"]),
                 f"{label}: n({op['eps']}, {d}) at s={op['s']}")
    c.expect(len(result) == len(op["ds"]), f"{label}: length")


def _qpt(c: Checker, op, result, label, _) -> None:
    c.qpt(result, op["s"], op["d_grid"], op["eps_grid"], label)


def _trace(c: Checker, op, result, label, _) -> None:
    c.trace_rows(result, op["d"], op["s"], op["rs"], label)


def _window(c: Checker, op, result, label, _) -> None:
    ns = np.arange(op["start"], op["start"] + op["length"])
    expected = c.stairs(op["d"]).radii(ns)
    c.expect(result["r"] == expected.tolist(), f"{label}: staircase radii")
    c.expect(result["s"] == [op["s"], op["s"]], f"{label}: smoothness")
    c.expect(_close(result["value"][0], oracles.sharp_value(int(expected[0]), op["s"]))
             and _close(result["value"][1], oracles.sharp_value(int(expected[-1]), op["s"])),
             f"{label}: a_n value")


def _sharp_table(c: Checker, op, result, label, _) -> None:
    n = op["n_max"]
    radii = c.stairs(op["d"]).radii(np.arange(1, n + 1))
    c.expect(result["certification"] == "exact", f"{label}: certification")
    c.expect(result["bases"] == radii.tolist(), f"{label}: bases")
    values = np.asarray(result["values"])
    expected = 1.0 / radii.astype(np.float64) ** op["s"]
    c.expect(len(values) == n and bool(np.all(np.abs(values - expected) <= REL * expected)),
             f"{label}: values")


def _verify(c: Checker, op, result, label, _) -> None:
    c.expect(result["passed"] and result["violations"] == 0, f"{label}: violations")
    c.expect(result["checked"] >= 1, f"{label}: nothing checked")
    c.expect(result["checked"] + result["skipped"] == len(set(op["grid"])),
             f"{label}: checked + skipped != grid size")


def _rearranged(c: Checker, op, result, label, _) -> None:
    n, d = op["n"], op["d"]
    c.expect(len(result["values"]) == n, f"{label}: length")
    c.expect(result["certification"] == "enumerated-certified", f"{label}: certification")
    c.expect(result["radius"] >= c.least_radius(n, d), f"{label}: radius below n")
    c.spectrum(op["family"], op["s"], d, result["values"], label)


def _complexity_bounds(c: Checker, op, result, label, _) -> None:
    lower, upper, exact = result
    family, s, d, eps = op["family"], op["s"], op["d"], op["eps"]
    c.expect((lower, upper) == c.enclosure(family, s, d, eps), f"{label}: enclosure")
    c.expect(exact is not None and lower <= exact <= upper, f"{label}: exact outside")
    box = c.box(family, s, d)
    below = np.nonzero(box.values <= eps * (1.0 + REL))[0]
    if below.size:
        c.expect(exact == int(below[0]) + 1, f"{label}: exact {exact} != box answer")


def _truncation(c: Checker, op, result, label, _) -> None:
    n, d = op["n"], op["d"]
    r = c.least_radius(n, d)
    rank = c.stairs(d).count(r - 1)
    c.expect(result["r"] == r and result["rank"] == rank and rank < n,
             f"{label}: radius or rank")
    keys = [(math.prod(1 + abs(x) for x in k), k) for k in result["indices"]]
    c.expect(len(keys) == rank, f"{label}: kept modes")
    c.expect(all(a < b for a, b in zip(keys, keys[1:])), f"{label}: order or duplicates")
    c.expect(not keys or keys[-1][0] <= r - 1, f"{label}: mode outside the cross")


def _truncation_error(c: Checker, op, result, label, by_key) -> None:
    made = by_key[op["operator"]]
    r = c.least_radius(made["n"], made["d"])
    model_error, bound = result
    expected = oracles.residual_energy(
        c.stairs(made["d"]), r, r * op["tail_factor"],
        lambda p: workloads.coefficient(p, op["rate"]))
    c.expect(_close(model_error, expected), f"{label}: model error {model_error} != {expected}")
    c.expect(model_error <= bound, f"{label}: model error above the certified bound")


_CHECKS = {"complexity_row": _complexity_row, "qpt": _qpt, "trace": _trace,
           "window": _window, "sharp_table": _sharp_table, "verify": _verify,
           "rearranged": _rearranged, "complexity_bounds": _complexity_bounds,
           "truncation": _truncation, "truncation_error": _truncation_error}


# -- cli-batch ---------------------------------------------------------------

def refused_cleanly(run: dict) -> bool:
    """Exit 2 or 4, one ``crossnum:`` line on stderr, no traceback, no stdout."""
    lines = run["stderr"].splitlines()
    return (run["code"] in (2, 4) and run["stdout"] == "" and len(lines) == 1
            and lines[0].startswith("crossnum:") and "Traceback" not in run["stderr"])


def check_cli_round(checker: Checker, invocations: list[dict], runs: list[dict]) -> int:
    failed = 0
    for i, (inv, run) in enumerate(zip(invocations, runs)):
        label = f"invocation {i} `crossnum {' '.join(inv['args'])}`"
        if inv["check"] == "known_failure":
            failed += not refused_cleanly(run)
            continue
        if not checker.expect(run["code"] == inv["expect"],
                              f"{label}: exit {run['code']}, expected {inv['expect']}"):
            continue
        if inv["expect"] != 0:
            checker.expect(refused_cleanly(run), f"{label}: refusal not clean")
            continue
        try:
            _CLI_CHECKS[inv["check"]](checker, dict(inv["params"], out=inv["out"]),
                                      run, label)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            checker.expect(False, f"{label}: unreadable output ({exc})")
    return failed


def _payload(run: dict, out: bool) -> str:
    return run["file"] if out else run["stdout"]


def _cli_count(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    count = c.counts.count(p["r"], p["d"])
    c.expect(int(record["count"]) == count and record["r"] == p["r"]
             and record["d"] == p["d"], f"{label}: count")
    if p.get("brute"):
        c.expect(record["match"] is True and int(record["brute"]) == count,
                 f"{label}: brute-force count")


def _cli_sharp_value(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    r = c.least_radius(p["n"], p["d"])
    c.expect(record["r"] == r and _close(record["a_n"], oracles.sharp_value(r, p["s"])),
             f"{label}: a_n")


def _cli_sharp_csv(c: Checker, p, run, label) -> None:
    rows = c.csv_rows(_payload(run, p["out"]), ["n", "sigma", "r"], label)
    c.expect(len(rows) == p["n"], f"{label}: {len(rows)} rows, expected {p['n']}")
    radii = c.stairs(p["d"]).radii(np.arange(1, len(rows) + 1)).tolist()
    c.expect([int(row[0]) for row in rows] == list(range(1, len(rows) + 1)),
             f"{label}: index column")
    c.expect([int(row[2]) for row in rows] == radii, f"{label}: radius column")
    c.expect(all(_close(float(row[1]), oracles.sharp_value(r, p["s"]))
                 for row, r in zip(rows, radii)), f"{label}: sigma column")
    if p["out"]:
        c.expect(run["stdout"] == "", f"{label}: stdout beside --out")


def _cli_box_value(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    box = c.box(p["family"], p["s"], p["d"])
    c.expect(p["n"] <= box.certified and _close(record["a_n"], float(box.values[p["n"] - 1])),
             f"{label}: a_n")
    c.expect(record["certification"] == "enumerated-certified", f"{label}: certification")


def _cli_box_csv(c: Checker, p, run, label) -> None:
    rows = c.csv_rows(_payload(run, p["out"]), ["n", "sigma"], label)
    c.expect(len(rows) == p["n"], f"{label}: {len(rows)} rows, expected {p['n']}")
    c.spectrum(p["family"], p["s"], p["d"], [float(row[1]) for row in rows], label)


def _cli_report(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    c.expect(record["formula"] == p["formula"] and record["pass"] is True
             and not record["violations"] and record["checked"] >= 1,
             f"{label}: report")


def _cli_report_list(c: Checker, p, run, label) -> None:
    records = json.loads(run["stdout"])
    c.expect(len(records) >= 1 and all(rec["pass"] and not rec["violations"]
                                       for rec in records)
             and sum(rec["checked"] for rec in records) >= 1, f"{label}: reports")


def _cli_qpt(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    record["passed"] = record["pass"]
    record["c_t"] = record["C_t"]
    c.qpt(record, p["s"], p["ds"], p["eps"], label)


def _cli_tract_sharp(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    c.expect(int(record["n"]) == c.complexity(p["eps"], p["d"], p["s"]), f"{label}: n")


def _cli_tract_bounds(c: Checker, p, run, label) -> None:
    record = json.loads(run["stdout"])
    lower, upper = c.enclosure(p["family"], p["s"], p["d"], p["eps"])
    c.expect(int(record["lower"]) == lower and int(record["upper"]) == upper,
             f"{label}: enclosure")
    if p.get("exact"):
        _complexity_bounds(c, p, [int(record["lower"]), int(record["upper"]),
                                  int(record["exact"])], label, None)


def _cli_cross(c: Checker, p, run, label) -> None:
    r, d = p["r"], p["d"]
    count = c.counts.count(r, d)
    if p["out"]:
        summary = json.loads(run["stdout"])
        c.expect(summary["rows"] == str(count) and summary["path"] == p["out"],
                 f"{label}: summary")
    rows = c.csv_rows(_payload(run, p["out"]),
                      [f"k_{j}" for j in range(1, d + 1)] + ["product"], label)
    c.expect(len(rows) == count, f"{label}: {len(rows)} rows, expected {count}")
    keys = []
    for row in rows:
        k = [int(x) for x in row[:-1]]
        product = math.prod(1 + abs(x) for x in k)
        c.expect(product == int(row[-1]) and product <= r, f"{label}: row {row}")
        keys.append((product, k))
    c.expect(all(a < b for a, b in zip(keys, keys[1:])), f"{label}: order or duplicates")


def _cli_trace(c: Checker, p, run, label) -> None:
    rows = c.csv_rows(_payload(run, p["out"]), ["n", "ratio", "constant"], label)
    d, s = p["d"], p["s"]
    c.trace_rows([row[:2] for row in rows], d, s, p["rs"], label)
    constant = (2.0 ** d / math.factorial(d - 1)) ** s
    c.expect(all(_close(float(row[2]), constant, 1e-9) for row in rows),
             f"{label}: constant")


_CLI_CHECKS = {"count": _cli_count, "sharp_value": _cli_sharp_value,
               "sharp_csv": _cli_sharp_csv, "box_value": _cli_box_value,
               "box_csv": _cli_box_csv, "report": _cli_report,
               "report_list": _cli_report_list, "qpt": _cli_qpt,
               "tract_sharp": _cli_tract_sharp, "tract_bounds": _cli_tract_bounds,
               "cross": _cli_cross, "trace": _cli_trace}
