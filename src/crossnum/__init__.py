"""Exact hyperbolic-cross counts, spectra and certified error bounds.

The namespace is lazy (PEP 562): ``import crossnum`` loads no layer, and
the first use of a name below, or of a layer such as ``crossnum.spectra``,
imports the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "bounds": ("BoundFormula", "VerificationReport", "alpha_exponent",
               "asymptotic_constant", "bound_value", "formula_info",
               "limit_ratio_trace", "verify_bound"),
    "combinatorics": ("CrossSpec", "GeneralizedWeightSeq", "count_cross",
                      "count_cross_bruteforce", "count_generalized",
                      "count_positive", "enumerate_cross",
                      "enumerate_dyadic_cross", "enumeration_guard",
                      "volume_bounds", "volume_exact"),
    "errors": ("ResourceLimitError", "UnsupportedRegimeError"),
    "fourier": ("CoefficientModel", "TruncationOperator", "optimal_truncation",
                "truncation_error", "worst_case_witness"),
    "spectra": ("ApproxNumber", "Breakpoint", "DominationReport",
                "SpectrumTable", "WeightKind", "breakpoints_sharp",
                "exact_an_sharp", "rearranged_spectrum", "sharp_table",
                "verify_weight_domination", "weight"),
    "tractability": ("ComplexityEnclosure", "QptCertificate",
                     "info_complexity_bounds", "info_complexity_sharp",
                     "qpt_certify", "qpt_constants"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str) -> object:
    if name in _HOMES:  # the import binds the layer here as well
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
