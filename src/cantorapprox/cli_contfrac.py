"""Command-line handlers of the continued-fraction family: cf and exponent,
on every --x.

`cli.run_command` imports this module on first use, and `parse_x` imports
`cli_sparse` only for --x xi, so the other values of --x load no sparse
numbers.  cf-interval runs in `cli` itself, since its prefix intervals
need no continued-fraction expansion and no enclosures.
Each handler takes the parsed arguments and the digit set and returns
(results, csv_rows) of numbers, which `cli.run_command` renders in the
format asked for.
"""

from __future__ import annotations

from importlib import import_module

from . import render
from .cli import parse_fraction
from .contfrac import continued_fraction_expand, irrationality_exponent_estimate
from .enclosures import SqrtSource, exponent_enclosure, golden_ratio_source
from .errors import InputError


def parse_x(args, dset):
    """The --x argument as a real for `enclosures.as_enclosure`: the source of a
    symbolic constant or of the sparse number xi, gamma's enclosure, or a rational."""
    t = args.x
    if t == "xi":
        return import_module(".cli_sparse", __package__).build_xi(args, dset)
    if t == "golden":
        return golden_ratio_source()
    if t == "gamma":
        return exponent_enclosure(dset)
    if t.startswith("sqrt:"):
        q = parse_fraction(t[5:])
        if not 0 < q < 1:
            raise InputError("sqrt:Q needs 0 < Q < 1")
        return SqrtSource(q)
    return parse_fraction(t)


def cmd_cf(args, dset):
    cf = continued_fraction_expand(parse_x(args, dset), args.depth)
    printable = [pq for pq in cf.convergents
                 if pq[1].bit_length() <= render.RENDER_INT_BITS]
    results = {
        "quotients": list(cf.quotients),
        "convergents": [{"p": render.Digits(p), "q": render.Digits(q)} for p, q in printable],
        "convergents_omitted": len(cf.convergents) - len(printable),
        "exact": cf.exact,
        "certified_depth": cf.certified_depth,
        "exhausted": cf.exhausted,
    }
    rows = [{"k": i + 1, "a": a, "p": p, "q": q}
            for i, (a, (p, q)) in enumerate(zip(cf.quotients, printable))]
    return results, rows


def cmd_exponent(args, dset):
    cf = continued_fraction_expand(parse_x(args, dset), args.depth)
    est = irrationality_exponent_estimate(cf, args.min_q)
    row = {"estimate": render.Value((est.lo, est.hi)), "window": est.window,
           "min_denominator": est.min_denominator}
    results = {**row, "cf_certified_depth": cf.certified_depth,
               "witnesses": [{"q": render.Digits(a), "q_next": render.Digits(b)}
                             for a, b in est.witnesses]}
    return results, [row]
