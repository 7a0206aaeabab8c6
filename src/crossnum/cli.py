"""Command-line interface.

Subcommands: ``count`` (exact cross counts, optional brute-force
cross-check), ``spectrum`` (single values or tables), ``verify`` (bound
formulas and quasi-polynomial certificates against exact spectra),
``tract`` (information complexity), ``cross`` (index-set CSV export) and
``trace`` (limit-ratio traces).

The library returns immutable records: ``__slots__`` classes whose one
base initializer binds the fields in slot order, the trailing ones
defaulting to a class's ``_defaults``.  They are not data classes, so
``replace``, ``asdict`` and ``fields`` from the standard library's
data-class module do not apply to them (see README).  This module alone
formats output, in the JSON payloads and the CSV tables below.  Like
the lazy package namespace, it loads layers only when they run: the
parser and :func:`main` need only ``bounds`` and ``combinatorics``, and
each command imports the further layers it uses, so ``count`` and
``cross`` never load the spectra.

Output is byte-stable: JSON is compact with sorted keys, CSV uses fixed
headers and bare newlines, floats print as their shortest round-trip
representation.  Counts travel as decimal strings because they can
exceed double precision.  Exit codes: 0 success, 2 argument error,
3 verification failure, 4 resource limit.  Files named by ``--out`` are
opened only after every argument and guard check has passed, so those
errors never leave output behind.  A CSV is written row by row, so a
``cross`` export holds one shell of the cross in memory, not its text.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable, Sequence

from . import bounds, combinatorics
from ._checks import FAMILIES, integer, intm_order, positive
from .errors import ResourceLimitError

if TYPE_CHECKING:
    from . import spectra, tractability

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_CHECK = 3
EXIT_RESOURCE = 4


def _positive_int(text: str) -> int:
    try:
        return integer(int(text), "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnum",
        description="Exact hyperbolic-cross counts, spectra, bounds and "
                    "tractability checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, out: bool = True) -> None:
        if out:
            p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--max-enum", type=_positive_int, default=None,
                       help="override the enumeration guard (reported in metadata)")

    p_count = sub.add_parser("count", help="exact #N(r, d)")
    p_count.add_argument("--r", type=_positive_int, required=True)
    p_count.add_argument("--d", type=_positive_int, required=True)
    p_count.add_argument("--brute", action="store_true",
                         help="re-count by direct enumeration and compare")
    add_common(p_count)

    p_spec = sub.add_parser("spectrum", help="approximation numbers")
    p_spec.add_argument("--kind", choices=FAMILIES, required=True)
    p_spec.add_argument("--d", type=_positive_int, required=True)
    p_spec.add_argument("--s", type=float)
    p_spec.add_argument("--m", type=_positive_int)
    group = p_spec.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int, help="single index")
    group.add_argument("--nmax", type=_positive_int, help="table up to this index")
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p_spec)

    p_verify = sub.add_parser("verify", help="check bounds against exact spectra")
    names = [f.value for f in bounds.BoundFormula
             if f is not bounds.BoundFormula.ASYMPTOTIC_CONSTANT]
    p_verify.add_argument("--formula", choices=names + ["qpt", "all"], required=True)
    p_verify.add_argument("--d", type=_positive_int)
    p_verify.add_argument("--s", type=float)
    p_verify.add_argument("--m", type=_positive_int)
    p_verify.add_argument("--rmax", type=_positive_int, default=1000,
                          help="largest breakpoint radius for sharp-family grids")
    p_verify.add_argument("--nmax", type=_positive_int, default=10000,
                          help="largest index for enumerated-spectrum grids")
    p_verify.add_argument("--t", type=float,
                          help="qpt exponent (default: derived uniform value)")
    p_verify.add_argument("--Ct", dest="c_t", type=float,
                          help="qpt constant (default: derived uniform value)")
    p_verify.add_argument("--d-grid", type=_int_list,
                          default=[2, 3, 4, 5, 6, 7, 8, 9, 10])
    p_verify.add_argument("--eps-grid", type=_float_list,
                          default=[2.0 ** -j for j in range(1, 11)])
    add_common(p_verify)

    p_tract = sub.add_parser("tract", help="information complexity n(eps, d)")
    p_tract.add_argument("--kind", choices=FAMILIES, required=True)
    p_tract.add_argument("--d", type=_positive_int, required=True)
    p_tract.add_argument("--s", type=float)
    p_tract.add_argument("--m", type=_positive_int)
    p_tract.add_argument("--eps", type=float, required=True)
    p_tract.add_argument("--exact", action="store_true",
                         help="resolve non-sharp kinds exactly")
    add_common(p_tract)

    p_cross = sub.add_parser("cross", help="export N(r, d) as CSV")
    p_cross.add_argument("--r", type=_positive_int, required=True)
    p_cross.add_argument("--d", type=_positive_int, required=True)
    add_common(p_cross)

    p_trace = sub.add_parser("trace", help="limit-ratio trace at breakpoints")
    p_trace.add_argument("--d", type=_positive_int, required=True)
    p_trace.add_argument("--s", type=float, required=True)
    p_trace.add_argument("--rs", type=_int_list, required=True,
                         help="comma-separated radii, each >= 2")
    add_common(p_trace)

    return parser


def _dump_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit_csv(header: list[str], rows: Iterable[list], out: str | None) -> int:
    # the one CSV writer: fixed header, bare newline line endings, each row
    # written as it comes; returns the number of data rows
    destination = nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    with destination as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        count = 0
        for count, row in enumerate(rows, start=1):
            writer.writerow(row)
    return count


def _spectrum_record(table: spectra.SpectrumTable) -> dict[str, object]:
    record: dict[str, object] = {"kind": table.kind.label(), "d": table.d,
                                 "certification": table.certification,
                                 "values": table.values}
    if table.radius is not None:
        record["radius"] = table.radius
    return record


def _spectrum_csv(table: spectra.SpectrumTable, out: str | None) -> None:
    values = enumerate(table.values, start=1)
    if table.bases is None:
        _emit_csv(["n", "sigma"], ([n, repr(v)] for n, v in values), out)
    else:
        _emit_csv(["n", "sigma", "r"],
                  ([n, repr(v), r] for (n, v), r in zip(values, table.bases)), out)


def _report_record(report: bounds.VerificationReport) -> dict[str, object]:
    return {
        "formula": report.formula.value,
        "d": report.d,
        "s": report.s,
        "checked": report.checked,
        "skipped": report.skipped,
        "pass": report.passed,
        "max_slack": report.max_slack if report.checked else None,  # no -inf
        "violations": [{"n": str(n), "exact": exact, "bound": bound}
                       for n, exact, bound in report.violations],
    }


def _certificate_record(cert: tractability.QptCertificate) -> dict[str, object]:
    return {
        "s": cert.s,
        "t": cert.t,
        "C_t": cert.c_t,
        "grid": cert.grid,
        "pass": cert.passed,
        "violations": cert.violations,
        "worst_point": cert.worst_point,
        "slack": cert.slack,
        "per_point_t": cert.per_point_t,
    }


def _emit(text: str, out: str | None) -> None:
    # computation is already done when we get here; writing is the last step
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _with_meta(payload: dict[str, object], args: argparse.Namespace) -> dict[str, object]:
    if args.max_enum is not None:
        payload["max_enum"] = args.max_enum
    return payload


def _resolve_kind(args: argparse.Namespace) -> spectra.WeightKind:
    from . import spectra

    if args.kind == "intm":
        if args.m is None:
            raise ValueError("--kind intm requires --m")
        if args.s is not None:
            raise ValueError("--kind intm takes --m, not --s")
        return spectra.WeightKind.integer_m(args.m)
    if args.s is None:
        raise ValueError(f"--kind {args.kind} requires --s")
    if args.m is not None:
        raise ValueError("--m is only meaningful with --kind intm")
    return spectra.WeightKind(args.kind, args.s)


def _cmd_count(args: argparse.Namespace) -> int:
    payload = {"r": args.r, "d": args.d,
               "count": str(combinatorics.count_cross(args.r, args.d))}
    code = EXIT_OK
    if args.brute:
        brute = combinatorics.count_cross_bruteforce(args.r, args.d)
        payload["brute"] = str(brute)
        payload["match"] = str(brute) == payload["count"]
        if not payload["match"]:
            code = EXIT_CHECK
    _emit(_dump_json(_with_meta(payload, args)), args.out)
    return code


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from . import spectra

    kind = _resolve_kind(args)
    if args.n is not None:
        if kind.family == "sharp":
            step = spectra.exact_an_sharp(args.n, args.d, kind.s)
            payload: dict[str, object] = {"a_n": step.value(), "r": step.r}
        else:
            table = spectra.rearranged_spectrum(kind, args.d, args.n)
            payload = {"a_n": table.sigma(args.n), "kind": kind.label(),
                       "certification": table.certification,
                       "radius": table.radius}
        _emit(_dump_json(_with_meta(payload, args)), args.out)
        return EXIT_OK
    if kind.family == "sharp":
        table = spectra.sharp_table(args.d, kind.s, args.nmax)
    else:
        table = spectra.rearranged_spectrum(kind, args.d, args.nmax)
    if args.format == "csv":
        _spectrum_csv(table, args.out)
    else:
        _emit(_dump_json(_with_meta(_spectrum_record(table), args)), args.out)
    return EXIT_OK


def _default_grid(formula: bounds.BoundFormula, d: int, rmax: int,
                  nmax: int) -> list[int]:
    """Breakpoint-aware default verification grids.

    Upper bounds are worst at the right end of each constant window
    (n = C(r, d)), lower bounds at the left end (n = C(r-1, d) + 1), both
    clamped to the validity range; enumerated-spectrum families get the
    full integer range instead since their exact values are table lookups.
    """
    info = bounds.formula_info(formula)
    first = info.first(d)
    if info.family != "sharp":
        if first > nmax:
            raise ValueError(
                f"{formula.value} has no valid points below nmax = {nmax}")
        size = nmax - first + 1
        combinatorics._check_guard(size, f"verify grid of {size} indices")
        return list(range(first, nmax + 1))
    grid: set[int] = set()
    cap = info.cap(d) if info.cap is not None else None
    if cap is not None:
        rmax = min(rmax, 2 ** d)
    combinatorics._check_guard(rmax, f"verify grid over {rmax} radii")
    right = 0  # C(0, d): each window starts one past the last one's right end
    for r in range(1, rmax + 1):
        left, right = right + 1, combinatorics.count_cross(r, d)
        n = right if info.side == "upper" else left
        if cap is not None:
            if info.side == "upper":
                if left > cap:
                    continue
                n = min(n, cap)  # window straddles the cap: clamp to it
            elif n > cap:
                continue
        grid.add(n)
    grid.add(first)  # the first valid index of each range is a worst point too
    return sorted(n for n in grid if 1 <= n <= right)  # right = C(rmax, d)


def _verify_formula(formula: bounds.BoundFormula, args: argparse.Namespace,
                    spectrum_cache: dict) -> bounds.VerificationReport:
    from . import spectra

    info = bounds.formula_info(formula)
    if info.family == "intm":
        if args.m is None:
            raise ValueError(f"{formula.value} requires --m")
        s = intm_order(args.m)
    else:
        if args.s is None:
            raise ValueError(f"{formula.value} requires --s")
        s = positive(args.s, "smoothness s")  # before the grid counts anything
    if args.d is None:
        raise ValueError("verify requires --d")
    grid = _default_grid(formula, args.d, args.rmax, args.nmax)
    spectrum = None
    if info.family != "sharp":
        key = (info.family, s)
        if key not in spectrum_cache:
            kind = spectra.WeightKind(info.family, s)
            spectrum_cache[key] = spectra.rearranged_spectrum(kind, args.d, grid[-1])
        spectrum = spectrum_cache[key]
    return bounds.verify_bound(formula, args.d, s, grid, spectrum=spectrum)


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import tractability

    if args.formula == "qpt":
        if args.s is None:
            raise ValueError("verify --formula qpt requires --s")
        cert = tractability.qpt_certify(args.s, args.d_grid, args.eps_grid,
                                        t=args.t, c_t=args.c_t)
        _emit(_dump_json(_with_meta(_certificate_record(cert), args)), args.out)
        return EXIT_OK if cert.passed else EXIT_CHECK

    spectrum_cache: dict = {}
    if args.formula == "all":
        formulas = [f for f in bounds.BoundFormula
                    if bounds.formula_info(f).side != "constant"
                    and not bounds.formula_info(f).experimental]
        if args.m is None:
            formulas = [f for f in formulas
                        if bounds.formula_info(f).family != "intm"]
        reports = [_verify_formula(f, args, spectrum_cache) for f in formulas]
        payload: object = [_report_record(rep) for rep in reports]
        passed = all(rep.passed for rep in reports)
    else:
        report = _verify_formula(bounds.BoundFormula(args.formula), args,
                                 spectrum_cache)
        payload = _report_record(report)
        passed = report.passed
    _emit(_dump_json(payload), args.out)
    return EXIT_OK if passed else EXIT_CHECK


def _cmd_tract(args: argparse.Namespace) -> int:
    from . import tractability

    kind = _resolve_kind(args)
    if kind.family == "sharp":
        n = tractability.info_complexity_sharp(args.eps, args.d, kind.s)
        payload: dict[str, object] = {"n": str(n)}
    else:
        enclosure = tractability.info_complexity_bounds(kind, args.eps, args.d,
                                                        exact=args.exact)
        payload = {"kind": kind.label(), "lower": str(enclosure.lower),
                   "upper": str(enclosure.upper)}
        if enclosure.exact is not None:
            payload["exact"] = str(enclosure.exact)
    _emit(_dump_json(_with_meta(payload, args)), args.out)
    return EXIT_OK


def _cmd_cross(args: argparse.Namespace) -> int:
    shells = combinatorics._shells(1, args.r, args.d)  # refused before --out opens
    rows = _emit_csv([f"k_{j}" for j in range(1, args.d + 1)] + ["product"],
                     ([*k, product] for product, points in shells for k in points),
                     args.out)
    if args.out is not None:
        summary = _with_meta({"path": args.out, "rows": str(rows)}, args)
        sys.stdout.write(_dump_json(summary))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    rows = bounds.limit_ratio_trace(args.d, args.s, args.rs)
    constant = repr(bounds.asymptotic_constant(args.d, args.s))
    _emit_csv(["n", "ratio", "constant"],
              ([str(n), repr(ratio), constant] for n, ratio in rows), args.out)
    return EXIT_OK


_DISPATCH = {
    "count": _cmd_count,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "tract": _cmd_tract,
    "cross": _cmd_cross,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_ARGS if exc.code else EXIT_OK
    try:
        with combinatorics._guard_override(args.max_enum):  # --max-enum applies here only
            return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"crossnum: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"crossnum: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
