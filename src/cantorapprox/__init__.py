"""Exact-arithmetic toolkit for rational approximation on missing-digit
Cantor sets: exact self-similar measures, limsup-layer statistics, the
zero/full series dichotomy, and rigorous continued-fraction verification
of explicit sparse-digit numbers.

All certified computations run on exact rationals or directed-rounded
rational enclosures; every value is either exact or carries two-sided
bounds.

The public names below are loaded on first use (PEP 562), so importing
the package, or one submodule such as the command line, does not load
the others.
"""

from importlib import import_module

_EXPORTS = {
    "digitsets": ("CantorMeasureValue", "MembershipResult", "MissingDigitSet",
                  "cantor_cdf", "cantor_measure", "center_count", "enumerate_centers",
                  "full_cover_check", "measure_union", "membership",
                  "prefix_interval_disjoint_from"),
    "enclosures": ("AffineSource", "LogRatioSource", "RealEnclosure", "SqrtSource",
                   "enclose_real", "exponent_enclosure", "floor_power",
                   "golden_ratio_source", "iroot"),
    "errors": ("HypothesisViolation", "InputError", "PrecisionError",
               "ResourceBudgetError", "UndecidableFloorError"),
    "intervals": ("PrefixInterval", "RatInterval", "cf_prefix_interval",
                  "convergents_from_quotients"),
    "layers": ("ApproxFunction", "BorelCantelliReport", "BoxDimensionEstimate",
               "DimensionFunction", "Layer", "NaturalCoverTail", "PairRow", "Scalar",
               "ScanReport", "SeriesVerdict", "borel_cantelli_ratio",
               "box_dimension_estimate", "build_layer", "layer_comparator",
               "layer_measure", "natural_cover_tail", "pairwise_measure", "psi_value",
               "quasi_independence_scan", "series_classify", "series_term",
               "truncate_psi", "window_t0"),
    "contfrac": ("ContinuedFraction", "ExponentEstimate", "continued_fraction_expand",
                 "irrationality_exponent_estimate", "legendre_is_convergent"),
    "sparse": ("FactorialRule", "PowerRule", "SparseDigitNumber", "TruncationReport",
               "build_sparse_number", "exceeds_exact_order_threshold",
               "te_inequality_holds", "truncation_report", "truncation_reports",
               "well_approximable_band"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
