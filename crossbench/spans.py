"""Spans and work counters recorded around each crossnum layer's public functions.

:class:`Tracer` replaces each traced function by a wrapper at every place in
the package that holds a reference to it (the defining module, the modules
that imported it by name, the package namespace).  Each call leaves a span
``(name, start, end, busy, parent)``; ``busy`` differs from ``end - start``
only for generators, whose work happens in the consumer's ``next`` calls.
A span's self time is its busy time minus the busy time of its children.

Names that a later version of crossnum no longer has are skipped, and the
metrics that depend on them are reported absent.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from array import array
from time import perf_counter

TRACED = {
    "combinatorics": ("count_cross", "count_positive", "enumerate_cross"),
    "spectra": ("exact_an_sharp", "sharp_table", "rearranged_spectrum"),
    "bounds": ("verify_bound", "limit_ratio_trace"),
    "tractability": ("info_complexity_sharp", "info_complexity_bounds",
                     "qpt_certify"),
    "fourier": ("optimal_truncation", "truncation_error"),
    "cli": ("main",),
}
GENERATORS = {"combinatorics.enumerate_cross"}
PROBED = ("combinatorics", "_count_cross")     # the count the staircase probes
MEMOS = ("_count_cross", "_positive_count")    # counting memos in combinatorics


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "crossnum" or name.startswith("crossnum.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.points: dict[int, int] = {}        # enumerate span -> points yielded
        self.tables: dict[int, tuple] = {}      # rearranged span -> (n, d, radius)
        self.answers: dict[int, int] = {}       # info_complexity_bounds span -> exact
        self.points_checked = 0
        self.probes: int | None = None

    def install(self) -> None:
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"crossnum.{layer}")
            for function in functions:
                original = getattr(module, function, None)
                if original is None:
                    continue
                qualified = f"{layer}.{function}"
                wrap = self._generator if qualified in GENERATORS else self._function
                _replace_everywhere(original, wrap(qualified, original))
        module = importlib.import_module(f"crossnum.{PROBED[0]}")
        probed = getattr(module, PROBED[1], None)
        if probed is not None:
            self.probes = 0
            _replace_everywhere(probed, self._probe_counter(probed))

    def _name_id(self, qualified: str) -> int:
        if qualified not in self.names:
            self.names.append(qualified)
        return self.names.index(qualified)

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        return index

    def _function(self, qualified: str, original):
        stack = self.stack
        name_id = self._name_id(qualified)
        observe = {
            "spectra.rearranged_spectrum": self._saw_table,
            "bounds.verify_bound": self._saw_report,
            "tractability.info_complexity_bounds": self._saw_enclosure,
        }.get(qualified)

        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            stack.append(index)
            began = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                self.start[index] = began
                self.end[index] = ended
                self.busy[index] = ended - began
            if observe is not None:
                observe(index, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _generator(self, qualified: str, original):
        name_id = self._name_id(qualified)

        def wrapper(*args, **kwargs):
            # runs at the first next(), inside the consumer's span
            index = self._open(name_id)
            self.start[index] = perf_counter()
            inner = original(*args, **kwargs)
            busy = 0.0
            yielded = 0
            try:
                while True:
                    began = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - began
                        return
                    busy += perf_counter() - began
                    yielded += 1
                    yield item
            finally:
                self.end[index] = perf_counter()
                self.busy[index] = busy
                self.points[index] = yielded

        wrapper.__wrapped__ = original
        return wrapper

    def _probe_counter(self, original):
        stack = self.stack
        name = self.name
        lookup = self._name_id("spectra.exact_an_sharp")

        def wrapper(*args, **kwargs):
            if stack and name[stack[-1]] == lookup:
                self.probes += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        for attr in ("cache_info", "cache_clear"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        return wrapper

    def _saw_table(self, index, args, kwargs, table) -> None:
        d = args[1] if len(args) > 1 else kwargs["d"]
        self.tables[index] = (len(table), int(d), table.radius)

    def _saw_report(self, index, args, kwargs, report) -> None:
        self.points_checked += report.checked

    def _saw_enclosure(self, index, args, kwargs, enclosure) -> None:
        if enclosure.exact is not None:
            self.answers[index] = enclosure.exact

    def memo_entries(self) -> int | None:
        module = sys.modules.get(f"crossnum.{PROBED[0]}")
        sizes = []
        for name in MEMOS:
            info = getattr(getattr(module, name, None), "cache_info", None)
            if info is not None:
                sizes.append(info().currsize)
        return sum(sizes) if sizes else None

    def raw(self) -> dict:
        """Additive per-process totals; :func:`finish` turns them into metrics."""
        count = len(self.name)
        child_busy = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child_busy[self.parent[i]] += self.busy[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(count):
            key = self.names[self.name[i]]
            self_s[key] = self_s.get(key, 0.0) + self.busy[i] - child_busy[i]
            calls[key] = calls.get(key, 0) + 1
        under_tables = [i for i in self.points if self.parent[i] in self.tables]
        table_values = [self.tables[i][0] for i in self.tables
                        if self.parent[i] in self.answers]
        main = [self.busy[i] for i in range(count)
                if self.names[self.name[i]] == "cli.main"]
        return {
            "self_s": self_s,
            "calls": calls,
            "points": sum(self.points.values()),
            "table_points": sum(self.points[i] for i in under_tables),
            "table_enumerations": len(under_tables),
            "tables": list(self.tables.values()),
            "answer_values": [sum(table_values), sum(self.answers.values())],
            "points_checked": self.points_checked,
            "probes": self.probes,
            "memo_entries": self.memo_entries(),
            "main_s": sum(main),
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("index\tname\tstart\tend\tbusy\tparent\n")
            handle.writelines(
                f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                f"{self.end[i]!r}\t{self.busy[i]!r}\t{self.parent[i]}\n"
                for i in range(len(self.name)))


def merge(raws: list[dict]) -> dict:
    """Sum the raw totals of several processes (one per CLI invocation)."""
    total = {"self_s": {}, "calls": {}, "tables": [], "answer_values": [0, 0]}
    for raw in raws:
        for group in ("self_s", "calls"):
            for key, value in raw[group].items():
                total[group][key] = total[group].get(key, 0) + value
        total["tables"] += raw["tables"]
        total["answer_values"] = [a + b for a, b in
                                  zip(total["answer_values"], raw["answer_values"])]
        for key in ("points", "table_points", "table_enumerations",
                    "points_checked", "main_s", "process_s"):
            if key in raw:
                total[key] = total.get(key, 0) + raw[key]
        for key in ("probes", "memo_entries"):
            if raw.get(key) is None:
                total.setdefault(key, None)
            elif key == "memo_entries":
                total[key] = max(total.get(key) or 0, raw[key])
            else:
                total[key] = (total.get(key) or 0) + raw[key]
    return total


UNITS = {
    "combinatorics.count_cross.calls": "count",
    "combinatorics.count_cross.self_s": "s",
    "combinatorics.memo_entries": "count",
    "combinatorics.enumerate_cross.points": "count",
    "combinatorics.enumerate_cross.self_s": "s",
    "spectra.exact_an_sharp.calls": "count",
    "spectra.exact_an_sharp.self_s": "s",
    "spectra.exact_an_sharp.probes_per_call": "probes/call",
    "spectra.sharp_table.self_s": "s",
    "spectra.rearranged_spectrum.self_s": "s",
    "spectra.rearranged_spectrum.points_per_value": "points/value",
    "spectra.rearranged_spectrum.enumerations_per_call": "enums/call",
    "spectra.rearranged_spectrum.radius_overshoot": "ratio",
    "bounds.verify_bound.self_s": "s",
    "bounds.verify_bound.points_checked": "count",
    "bounds.limit_ratio_trace.self_s": "s",
    "tractability.info_complexity_sharp.self_s": "s",
    "tractability.qpt_certify.self_s": "s",
    "tractability.info_complexity_bounds.values_per_answer": "values/answer",
    "fourier.optimal_truncation.self_s": "s",
    "fourier.truncation_error.self_s": "s",
    "cli.main.self_s": "s",
    "cli.process_s": "s",
}


def finish(raw: dict, least_radius) -> dict[str, float | None]:
    """Per-layer metrics of one round; ``least_radius(n, d)`` is the smallest
    radius whose cross holds n points.  None marks an absent metric."""
    self_s = raw["self_s"]
    calls = raw["calls"]

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    tables = raw["tables"]
    lookups = calls.get("spectra.exact_an_sharp", 0)
    overshoot = [radius / least_radius(n, d) for n, d, radius in tables
                 if radius is not None]
    metrics = {
        "combinatorics.count_cross.calls": calls.get("combinatorics.count_cross", 0),
        "combinatorics.count_cross.self_s": self_s.get("combinatorics.count_cross", 0.0),
        "combinatorics.memo_entries": raw["memo_entries"],
        "combinatorics.enumerate_cross.points": raw["points"],
        "combinatorics.enumerate_cross.self_s":
            self_s.get("combinatorics.enumerate_cross", 0.0),
        "spectra.exact_an_sharp.calls": lookups,
        "spectra.exact_an_sharp.self_s": self_s.get("spectra.exact_an_sharp", 0.0),
        "spectra.exact_an_sharp.probes_per_call":
            None if raw["probes"] is None else ratio(raw["probes"], lookups),
        "spectra.sharp_table.self_s": self_s.get("spectra.sharp_table", 0.0),
        "spectra.rearranged_spectrum.self_s":
            self_s.get("spectra.rearranged_spectrum", 0.0),
        "spectra.rearranged_spectrum.points_per_value":
            ratio(raw["table_points"], sum(n for n, _, _ in tables)),
        "spectra.rearranged_spectrum.enumerations_per_call":
            ratio(raw["table_enumerations"], len(tables)),
        "spectra.rearranged_spectrum.radius_overshoot":
            statistics.fmean(overshoot) if overshoot else 0.0,
        "bounds.verify_bound.self_s": self_s.get("bounds.verify_bound", 0.0),
        "bounds.verify_bound.points_checked": raw["points_checked"],
        "bounds.limit_ratio_trace.self_s": self_s.get("bounds.limit_ratio_trace", 0.0),
        "tractability.info_complexity_sharp.self_s":
            self_s.get("tractability.info_complexity_sharp", 0.0),
        "tractability.qpt_certify.self_s": self_s.get("tractability.qpt_certify", 0.0),
        "tractability.info_complexity_bounds.values_per_answer":
            ratio(*raw["answer_values"]),
        "fourier.optimal_truncation.self_s":
            self_s.get("fourier.optimal_truncation", 0.0),
        "fourier.truncation_error.self_s": self_s.get("fourier.truncation_error", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.process_s": raw.get("process_s", 0.0),
    }
    return metrics
