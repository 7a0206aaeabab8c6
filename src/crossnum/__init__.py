"""Exact hyperbolic-cross counts, spectra and certified error bounds."""

from .bounds import (BoundFormula, VerificationReport, alpha_exponent,
                     asymptotic_constant, bound_value, formula_info,
                     limit_ratio_trace, verify_bound)
from .combinatorics import (CrossSpec, GeneralizedWeightSeq, count_cross,
                            count_cross_bruteforce, count_generalized,
                            count_positive, enumerate_cross,
                            enumerate_dyadic_cross, enumeration_guard,
                            volume_bounds, volume_exact)
from .errors import ResourceLimitError, UnsupportedRegimeError
from .fourier import (CoefficientModel, TruncationOperator,
                      optimal_truncation, truncation_error, worst_case_witness)
from .spectra import (ApproxNumber, Breakpoint, DominationReport,
                      SpectrumTable, WeightKind, breakpoints_sharp,
                      exact_an_sharp, rearranged_spectrum, sharp_table,
                      verify_weight_domination, weight)
from .tractability import (ComplexityEnclosure, QptCertificate,
                           info_complexity_bounds, info_complexity_sharp,
                           qpt_certify, qpt_constants)

__version__ = "0.1.0"

__all__ = [
    "ApproxNumber", "BoundFormula", "Breakpoint", "CoefficientModel",
    "ComplexityEnclosure", "CrossSpec", "DominationReport",
    "GeneralizedWeightSeq", "QptCertificate", "ResourceLimitError",
    "SpectrumTable", "TruncationOperator", "UnsupportedRegimeError",
    "VerificationReport", "WeightKind", "alpha_exponent",
    "asymptotic_constant", "bound_value", "breakpoints_sharp", "count_cross",
    "count_cross_bruteforce", "count_generalized", "count_positive",
    "enumerate_cross", "enumerate_dyadic_cross", "enumeration_guard",
    "exact_an_sharp", "formula_info", "info_complexity_bounds",
    "info_complexity_sharp", "limit_ratio_trace", "optimal_truncation",
    "qpt_certify", "qpt_constants", "rearranged_spectrum", "sharp_table",
    "truncation_error", "verify_bound", "verify_weight_domination",
    "volume_bounds", "volume_exact", "weight", "worst_case_witness",
    "__version__",
]
