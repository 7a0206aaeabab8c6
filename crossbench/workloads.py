"""The four workloads: inputs made from a seed, and how each operation runs.

The harness calls :func:`make` to turn a seed into a list of operations; the
worker process calls :func:`execute` on each and :func:`export` on its
result.  Nothing here imports crossnum: the worker passes its modules in,
looked up at call time so that the traced run sees its wrappers.

A seed moves parameters only where the amount of work stays put (radii and
tolerances jittered by about a percent, the smoothness of the plus weight,
whose ordering of frequencies does not depend on s), so two seeds cost
about the same.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("d-sweep", "staircase", "enumeration", "cli-batch")

# d-sweep: n(eps, d) for d = 1..64 on a ladder of radii r* per smoothness
SWEEP_S = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
SWEEP_DIMS = tuple(range(1, 65))
SWEEP_RUNGS = 16
SWEEP_RADII = (3000, 2 * 10 ** 5)   # dense in cost, so op percentiles are steady
# limit-ratio traces: fresh radii up to 1e7, smaller where counting costs more
TRACE_TOP = {2: 10 ** 7, 3: 10 ** 7, 4: 10 ** 7, 5: 3 * 10 ** 6, 6: 10 ** 6,
             7: 10 ** 6, 8: 10 ** 6}
TRACE_POINTS = 5

# staircase: contiguous windows of exact_an_sharp lookups per (d, s)
STAIR_CONFIGS = ((2, 1.0), (3, 0.5), (3, 2.0), (4, 1.0), (6, 1.5), (8, 1.0))
STAIR_WINDOWS = 25
STAIR_WINDOW = 3000
STAIR_FIRST, STAIR_LAST = 10 ** 4, 5 * 10 ** 6
STAIR_TABLE = 30000
STAIR_VERIFY = {
    2: (("p-squared", "upper", 2, 1500), ("sharp-upper-43", "upper", 30, 1500)),
    3: (("p-squared", "upper", 2, 600), ("tensor-trick-45", "upper", 40, 600)),
    4: (("p-squared", "upper", 2, 300), ("pre-lower-47", "lower", 2, 16)),
    6: (("p-squared", "upper", 2, 120), ("pre-lower-47", "lower", 2, 64)),
    8: (("p-squared", "upper", 2, 60), ("pre-upper-46", "upper", 2, 256)),
}

# enumeration: certified spectra over several powers of two
ENUM_EXPONENTS = {2: range(6, 15), 3: range(6, 12), 4: range(6, 10)}
ENUM_SHARED_EXPONENT = 13     # d = 2 tables that the bound checks share
ENUM_STAR_S = 1.5
ENUM_INTM_M = {2: 2, 3: 1, 4: 2}
ENUM_BOUNDS = (("star", 2.0, 2, 0.05), ("plus", 2.0, 2, 0.05),
               ("plus", 1.0, 3, 0.1), ("intm", 1.0, 2, 0.05),
               ("plus", 2.0, 3, 0.08), ("star", 1.0, 2, 0.1),
               ("intm", 2.0, 2, 0.05), ("plus", 1.5, 2, 0.04),
               ("star", 0.75, 2, 0.15), ("intm", 1.0, 3, 0.15),
               ("plus", 3.0, 2, 0.02), ("star", 2.0, 2, 0.1),
               ("plus", 1.0, 2, 0.08))
ENUM_SHARED = (("plus-upper-49", "plus-lower-49", "plus"),
               ("star-upper-410", "star-lower-410", "star"),
               ("intm-upper-413", "intm-lower-413", "intm"))
ENUM_TRUNCATIONS = ((500, 2), (1000, 2), (2000, 2), (4000, 2), (8000, 2),
                    (16000, 2), (500, 3), (1000, 3), (2000, 3), (4000, 3),
                    (8000, 3), (500, 4), (1000, 4), (2000, 4), (4000, 4),
                    (8000, 4))


def _jitter(rng: random.Random, value: float, spread: float = 0.01) -> float:
    return value * (1.0 + rng.uniform(-spread, spread))


def _geometric(first: float, last: float, count: int) -> list[float]:
    return [first * (last / first) ** (i / (count - 1)) for i in range(count)]


def _sweep_eps(rng: random.Random, radius: float, s: float) -> float:
    # r* = ceil(eps^(-1/s)) lands near the radius; keep eps^(-1/s) away
    # from an integer so that the 1e-12 tie rule of the program never applies
    while True:
        x = _jitter(rng, radius)
        if abs(x - round(x)) > 1e-3:
            return float(f"{x ** -s:.12g}")


def _make_d_sweep(rng: random.Random) -> list[dict]:
    ops: list[dict] = []
    for s in SWEEP_S:
        grid = [_sweep_eps(rng, r, s)
                for r in _geometric(*SWEEP_RADII, SWEEP_RUNGS)]
        ops += [{"op": "complexity_row", "eps": eps, "s": s,
                 "ds": list(SWEEP_DIMS)} for eps in grid]
        ops.append({"op": "qpt", "s": s, "d_grid": list(SWEEP_DIMS),
                    "eps_grid": grid})
    for d, top in TRACE_TOP.items():
        ops.append({"op": "trace", "d": d, "s": rng.choice(SWEEP_S),
                    "rs": [round(_jitter(rng, r))
                           for r in _geometric(10 ** 3, top, TRACE_POINTS)]})
    return ops


def _make_staircase(rng: random.Random) -> list[dict]:
    from oracles import Staircase  # harness side only; the worker never makes inputs

    ops: list[dict] = []
    for d, s in STAIR_CONFIGS:
        for first in _geometric(STAIR_FIRST, STAIR_LAST, STAIR_WINDOWS):
            ops.append({"op": "window", "d": d, "s": s,
                        "start": round(_jitter(rng, first, 0.02)),
                        "length": STAIR_WINDOW})
        ops.append({"op": "sharp_table", "d": d, "s": s,
                    "n_max": round(_jitter(rng, STAIR_TABLE, 0.02))})
        stairs = Staircase(d)
        for formula, side, r_lo, r_hi in STAIR_VERIFY[d]:
            # breakpoint grids: upper bounds are tightest at the right end of
            # each constant window, lower bounds at the left end
            ends = [stairs.count(r) if side == "upper" else stairs.count(r - 1) + 1
                    for r in range(r_lo, r_hi + 1)]
            ops.append({"op": "verify", "formula": formula, "d": d, "s": s,
                        "grid": ends})
    return ops


def _make_enumeration(rng: random.Random) -> list[dict]:
    plus_s = round(rng.uniform(1.0, 3.0), 3)
    ops: list[dict] = []
    for d, exponents in ENUM_EXPONENTS.items():
        for e in exponents:
            for family, s in (("plus", plus_s), ("star", ENUM_STAR_S),
                              ("intm", float(ENUM_INTM_M[d]))):
                ops.append({"op": "rearranged", "family": family, "s": s,
                            "d": d, "n": 2 ** e, "key": f"{family}-{d}-{e}"})
    top = ENUM_SHARED_EXPONENT
    for upper, lower, family in ENUM_SHARED:
        table = next(op for op in ops if op.get("key") == f"{family}-2-{top}")
        for formula, first in ((upper, 27 ** 2), (lower, 7863)):
            ops.append({"op": "verify", "formula": formula, "d": 2,
                        "s": table["s"], "table": table["key"],
                        "grid": list(range(first, 2 ** top + 1))})
    # enumeration cost jumps when a table length crosses a radius doubling,
    # so the seed leaves lengths and tolerances alone and moves only values
    # that do not change the work: the smoothness of the plus weight, and
    # the smoothness and coefficient decay of the truncations
    for family, s, d, eps in ENUM_BOUNDS:
        ops.append({"op": "complexity_bounds", "family": family, "s": s,
                    "d": d, "eps": eps})
    for i, (n, d) in enumerate(ENUM_TRUNCATIONS):
        ops.append({"op": "truncation", "n": n, "d": d,
                    "s": rng.choice((0.5, 1.0, 2.0)), "key": f"t{i}"})
        ops.append({"op": "truncation_error", "operator": f"t{i}",
                    "tail_factor": 3, "rate": round(rng.uniform(0.8, 1.5), 3)})
    return ops


# cli-batch: dies today with an OverflowError traceback; kept as a counted failure
KNOWN_FAILURE = ["tract", "--kind", "sharp", "--d", "2", "--s", "0.1",
                 "--eps", "1e-300"]


def invocation(args: list, check: str, expect: int = 0, out: str | None = None,
         **params) -> dict:
    return {"args": [str(a) for a in args], "check": check, "expect": expect,
            "out": out, "params": params}


def _make_cli_batch(rng: random.Random) -> list[dict]:
    inv: list[dict] = []
    u = rng.uniform

    def add(args: list, check: str, **kw) -> None:
        inv.append(invocation(args, check, **kw))

    for i in range(16):
        r, d = round(10 ** u(3.0, 5.3)), 1 + i % 12
        add(["count", "--r", r, "--d", d], "count", r=r, d=d)
    for i in range(4):
        r, d = round(u(10, 60)), 2 + i % 2
        add(["count", "--r", r, "--d", d, "--brute"], "count", r=r, d=d, brute=True)
    for i in range(10):
        d, s, n = 2 + i % 7, rng.choice((0.5, 1.0, 2.0)), round(10 ** u(1, 6))
        add(["spectrum", "--kind", "sharp", "--d", d, "--s", s, "--n", n],
            "sharp_value", d=d, s=s, n=n)
    for i in range(6):
        d, s, n = 2 + i % 3, rng.choice((0.5, 1.0, 2.0)), round(u(5000, 15000))
        out = f"sharp-{i}.csv" if i % 2 == 0 else None
        add(["spectrum", "--kind", "sharp", "--d", d, "--s", s, "--nmax", n,
             "--format", "csv"] + (["--out", out] if out else []),
            "sharp_csv", out=out, d=d, s=s, n=n)
    for i in range(6):
        family, d, n = ("plus", "star", "intm")[i % 3], 2 + i % 2, round(u(50, 500))
        kind = ["--m", 1 + i % 2] if family == "intm" else ["--s", round(u(1.0, 2.0), 2)]
        add(["spectrum", "--kind", family, "--d", d, *kind, "--n", n],
            "box_value", family=family, d=d, n=n, s=float(kind[1]))
    for i, family in enumerate(("plus", "star", "intm", "plus")):
        kind = ["--m", 2] if family == "intm" else ["--s", round(u(1.0, 2.0), 2)]
        n, out = round(u(600, 2000)), f"spectrum-{i}.csv"
        add(["spectrum", "--kind", family, "--d", 2, *kind, "--nmax", n,
             "--format", "csv", "--out", out],
            "box_csv", out=out, family=family, d=2, n=n, s=float(kind[1]))
    for formula, d in (("sharp-upper-43", 2), ("p-squared", 3), ("tensor-trick-45", 2),
                       ("pre-upper-46", 4), ("pre-lower-47", 5), ("sharp-lower-43", 2),
                       ("p-squared", 2), ("tensor-trick-45", 3)):
        add(["verify", "--formula", formula, "--d", d, "--s",
             rng.choice((0.5, 1.0, 2.0)), "--rmax", 400], "report", formula=formula)
    # the batch's peak memory is its largest child's: the qpt checks always
    # count at r* = 1e6 up to d = 39, and "verify all" keeps fixed smoothness
    # values (its star tables grow with s), so the peak does not move with
    # the seed
    for i in range(6):
        s = (0.5, 1.0, 2.0)[i % 3]
        ds = sorted(rng.sample(range(1, 39), 5)) + [39]
        eps = sorted({float(f"{10 ** -u(0.3, 2.5):.6g}") for _ in range(5)} | {0.001})
        add(["verify", "--formula", "qpt", "--s", s, "--d-grid", ",".join(map(str, ds)),
             "--eps-grid", ",".join(map(repr, eps))], "qpt", s=s, ds=ds, eps=eps)
    for s in (1.0, 1.5):
        add(["verify", "--formula", "all", "--d", 2, "--s", s, "--rmax", 300,
             "--nmax", 8192], "report_list")
    for i in range(12):
        d, s = 1 + 5 * i, rng.choice((0.5, 1.0, 2.0))
        eps = float(f"{10 ** -u(0.5, 2.5):.6g}")
        add(["tract", "--kind", "sharp", "--d", d, "--s", s, "--eps", eps],
            "tract_sharp", d=d, s=s, eps=eps)
    for d, (family, kind) in enumerate((("plus", ["--s", 1.0]), ("star", ["--s", 0.75]),
                                        ("intm", ["--m", 2]), ("star", ["--s", 1.5])),
                                       start=3):
        eps = float(f"{10 ** -u(1.0, 2.0):.6g}")
        add(["tract", "--kind", family, "--d", d, *kind, "--eps", eps],
            "tract_bounds", family=family, d=d, s=float(kind[1]), eps=eps)
    for family in ("plus", "star", "intm", "plus"):
        kind = ["--m", 1] if family == "intm" else ["--s", 2.0]
        eps = float(f"{u(0.1, 0.2):.4g}")
        add(["tract", "--kind", family, "--d", 2, *kind, "--eps", eps, "--exact"],
            "tract_bounds", family=family, d=2, s=float(kind[1]), eps=eps, exact=True)
    for i in range(8):
        d = 2 + i % 3
        r, out = round(u(100, 400) / (d - 1)), f"cross-{i}.csv"
        add(["cross", "--r", r, "--d", d, "--out", out], "cross", out=out, r=r, d=d)
    for d in (2, 3, 4):
        r = round(u(10, 40))
        add(["cross", "--r", r, "--d", d], "cross", r=r, d=d)
    for i in range(8):
        d, s = 2 + i % 6, rng.choice((0.5, 1.0, 2.0))
        rs = sorted({round(10 ** u(1.5, 5.0)) for _ in range(4)})
        out = f"trace-{i}.csv" if i < 2 else None
        add(["trace", "--d", d, "--s", s, "--rs", ",".join(map(str, rs))]
            + (["--out", out] if out else []), "trace", out=out, d=d, s=s, rs=rs)
    add(["spectrum", "--kind", "intm", "--d", 2, "--n", 5], "refused", expect=2)
    add(["tract", "--kind", "sharp", "--d", 2, "--s", 1, "--eps", round(u(1.5, 3.0), 3)],
        "refused", expect=2)
    for _ in range(2):
        add(["cross", "--r", round(u(150, 250)), "--d", 3, "--max-enum", 100],
            "refused", expect=4)
    add(KNOWN_FAILURE, "known_failure")
    rng.shuffle(inv)
    return inv


_MAKERS = {"d-sweep": _make_d_sweep, "staircase": _make_staircase,
           "enumeration": _make_enumeration, "cli-batch": _make_cli_batch}


def make(workload: str, seed: int) -> list[dict]:
    """The operations of one round of a workload; the same seed, the same list."""
    return _MAKERS[workload](random.Random(f"{workload}/{seed}"))


# -- execution inside the worker ---------------------------------------------

def coefficient(p: int, rate: float) -> float:
    """Fourier coefficient of the truncation model at product weight p."""
    return float(p) ** -rate


def _model_evaluator(rate: float):
    return lambda k: coefficient(math.prod(1 + abs(x) for x in k), rate)


def _kind(cn, op: dict):
    return cn.spectra.WeightKind(op["family"], float(op["s"]))


def execute(cn, op: dict, shared: dict):
    """Run one operation against the crossnum modules in ``cn``."""
    kind = op["op"]
    if kind == "complexity_row":
        f = cn.tractability.info_complexity_sharp
        return [f(op["eps"], d, op["s"]) for d in op["ds"]]
    if kind == "qpt":
        return cn.tractability.qpt_certify(op["s"], op["d_grid"], op["eps_grid"])
    if kind == "trace":
        return cn.bounds.limit_ratio_trace(op["d"], op["s"], op["rs"])
    if kind == "window":
        f, d, s = cn.spectra.exact_an_sharp, op["d"], op["s"]
        return [f(n, d, s) for n in range(op["start"], op["start"] + op["length"])]
    if kind == "sharp_table":
        return cn.spectra.sharp_table(op["d"], op["s"], op["n_max"])
    if kind == "verify":
        table = shared.get(op.get("table"))
        return cn.bounds.verify_bound(cn.bounds.BoundFormula(op["formula"]),
                                      op["d"], op["s"], op["grid"], spectrum=table)
    if kind == "rearranged":
        table = cn.spectra.rearranged_spectrum(_kind(cn, op), op["d"], op["n"])
        shared[op["key"]] = table
        return table
    if kind == "complexity_bounds":
        return cn.tractability.info_complexity_bounds(_kind(cn, op), op["eps"],
                                                      op["d"], exact=True)
    if kind == "truncation":
        operator = cn.fourier.optimal_truncation(op["n"], op["d"], op["s"])
        shared[op["key"]] = operator
        return operator
    if kind == "truncation_error":
        operator = shared[op["operator"]]
        model = cn.fourier.CoefficientModel(_model_evaluator(op["rate"]), 1.0,
                                            op["rate"])
        return cn.fourier.truncation_error(model, operator,
                                           operator.r * op["tail_factor"])
    raise ValueError(f"unknown operation {kind!r}")


def export(op: dict, result) -> object:
    """Plain JSON form of a result, for the checks in the harness."""
    kind = op["op"]
    if kind in ("complexity_row", "truncation_error"):
        return list(result)
    if kind == "qpt":
        return {"s": result.s, "t": result.t, "c_t": result.c_t,
                "grid": [list(p) for p in result.grid], "passed": result.passed,
                "violations": [list(p) for p in result.violations],
                "slack": result.slack}
    if kind == "trace":
        return [list(row) for row in result]
    if kind == "window":
        return {"r": [a.r for a in result], "s": [result[0].s, result[-1].s],
                "value": [result[0].value(), result[-1].value()]}
    if kind in ("sharp_table", "rearranged"):
        return {"values": list(result.values), "certification": result.certification,
                "radius": result.radius,
                "bases": None if result.bases is None else list(result.bases)}
    if kind == "verify":
        return {"checked": result.checked, "skipped": result.skipped,
                "passed": result.passed, "violations": len(result.violations)}
    if kind == "complexity_bounds":
        return [result.lower, result.upper, result.exact]
    if kind == "truncation":
        return {"r": result.r, "rank": result.rank,
                "indices": [list(k) for k in result.indices]}
    raise ValueError(f"unknown operation {kind!r}")
