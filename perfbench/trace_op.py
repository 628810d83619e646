"""Run one `cantorapprox` CLI call with spans around calls into each module.

    python3 perfbench/trace_op.py SPANS_PATH OP_ID CLI_ARGV...

The package is not changed: before `cli.main` runs, each traced function
is replaced by a recording wrapper in its own module and in every module
that bound it with `from .x import y`, and each traced method is
replaced on its class.  Spans stay in memory and are written to
SPANS_PATH as JSON when the call ends.  Pool workers forked by
`--workers` write nothing, so those ops' spans cover the parent process
only.  Helpers that are not traced count toward their caller's self time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import cantorapprox
from cantorapprox import (cli, contfrac, digitsets, enclosures, intervals, layers,
                          render, sparse)

FUNCTIONS = {
    cli: ["run_command"],
    render: ["decimal_str", "rat_str", "rational_json", "value_json", "value_csv",
             "lossy_float", "dump_report", "dump_csv"],
    digitsets: ["cantor_cdf", "measure_pair", "measure_union", "cantor_measure",
                "full_cover_check", "enumerate_centers", "center_count", "membership"],
    intervals: ["merge_pairs", "intersect_unions", "clip_union", "total_length"],
    layers: ["build_layer", "layer_measure", "pairwise_measure", "layer_comparator",
             "quasi_independence_scan", "borel_cantelli_ratio", "series_classify",
             "series_term", "natural_cover_tail", "box_dimension_estimate", "psi_value",
             "classify_pair_case"],
    enclosures: ["ln_interval", "sqrt_interval", "rational_pow", "floor_power",
                 "exp_interval", "nthroot_interval", "pow_interval", "enclose_real"],
    contfrac: ["continued_fraction_expand", "irrationality_exponent_estimate",
               "legendre_is_convergent", "cf_prefix_interval",
               "prefix_interval_disjoint_from"],
    sparse: ["build_sparse_number", "truncation_report", "truncation_reports"],
}
METHODS = {
    digitsets: [(digitsets.MissingDigitSet, "allowed_prefixes"),
                (digitsets.MissingDigitSet, "prefix_allowed")],
    enclosures: [(enclosures.RealEnclosure, "refine")],
    sparse: [(sparse.SparseDigitNumber, "truncation")],
}
MODULES = [cantorapprox, cli, contfrac, digitsets, enclosures, intervals, layers,
           render, sparse]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# attribute recorded with a span, from (args, result): a key whose distinct
# values count distinct work, or a size
ATTRS = {
    "digitsets.cantor_cdf": lambda a, r: hash((a[0].base, a[0].digits, a[1])),
    "layers.build_layer": lambda a, r: hash(repr(a)),
    "digitsets.allowed_prefixes": lambda a, r: len(r),
    "intervals.merge_pairs": lambda a, r: len(a[0]),
    "enclosures.ln_interval": lambda a, r: _bits(a[0]),
    "enclosures.refine": lambda a, r: r.level,
}

names: list[str] = []
spans: list = []  # [name index, start, end, parent span index or -1, attribute]
stack = [-1]


def traced(name: str, fn):
    name_id = len(names)
    names.append(name)
    attr = ATTRS.get(name)
    materialize = name == "intervals.merge_pairs"

    def wrapper(*args, **kwargs):
        if materialize and not isinstance(args[0], list):
            args = (list(args[0]),) + args[1:]
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = [name_id, start, end, parent, None]
        if attr is not None:
            spans[index][4] = attr(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install() -> None:
    for module, fnames in FUNCTIONS.items():
        short = module.__name__.rsplit(".", 1)[1]
        for fname in fnames:
            original = getattr(module, fname)
            wrapper = traced(f"{short}.{fname}", original)
            for m in MODULES:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
    for module, methods in METHODS.items():
        short = module.__name__.rsplit(".", 1)[1]
        for cls, mname in methods:
            setattr(cls, mname, traced(f"{short}.{mname}", vars(cls)[mname]))


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "names": names, "spans": spans}, fh,
                      separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
