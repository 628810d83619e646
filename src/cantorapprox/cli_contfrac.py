"""Command-line handlers of the continued-fraction family: cf and exponent
on every --x but xi.

`cli.run_command` imports this module on first use; `cli_xi` runs cf and
exponent on --x xi, so that this module never loads the sparse numbers.
cf-interval runs in `cli` itself, since its prefix intervals need no
continued-fraction expansion and no enclosures.
Each handler takes the parsed arguments and the digit set and returns
(results, csv_rows).
"""

from __future__ import annotations

from . import render
from .cli import parse_fraction, parse_set
from .contfrac import continued_fraction_expand, irrationality_exponent_estimate
from .enclosures import RealEnclosure, SqrtSource, exponent_enclosure, golden_ratio_source
from .errors import InputError


def parse_x(args):
    """The --x argument, other than xi: a symbolic constant or a rational."""
    t = args.x
    if t == "golden":
        return RealEnclosure.from_source(golden_ratio_source())
    if t == "gamma":
        return exponent_enclosure(parse_set(args.set))
    if t.startswith("sqrt:"):
        q = parse_fraction(t[5:])
        if not 0 < q < 1:
            raise InputError("sqrt:Q needs 0 < Q < 1")
        return RealEnclosure.from_source(SqrtSource(q))
    return parse_fraction(t)


def cf_report(x, depth: int):
    """The cf results and rows of x, expanded to the given depth."""
    cf = continued_fraction_expand(x, depth)
    printable = [pq for pq in cf.convergents
                 if pq[1].bit_length() <= render.RENDER_INT_BITS]
    results = {
        "quotients": list(cf.quotients),
        "convergents": [{"p": str(p), "q": str(q)} for p, q in printable],
        "convergents_omitted": len(cf.convergents) - len(printable),
        "exact": cf.exact,
        "certified_depth": cf.certified_depth,
        "exhausted": cf.exhausted,
    }
    rows = [{"k": i + 1, "a": a, "p": p, "q": q}
            for i, (a, (p, q)) in enumerate(zip(cf.quotients, printable))]
    return results, rows


def exponent_report(x, depth: int, min_q: int):
    """The exponent results and rows of x, expanded to the given depth."""
    cf = continued_fraction_expand(x, depth)
    est = irrationality_exponent_estimate(cf, min_q)
    results = {
        "estimate": render.value_json((est.lo, est.hi)),
        "witnesses": [{"q": str(a), "q_next": str(b)} for a, b in est.witnesses],
        "window": est.window,
        "min_denominator": est.min_denominator,
        "cf_certified_depth": cf.certified_depth,
    }
    rows = [{"estimate": render.value_csv((est.lo, est.hi)),
             "window": est.window, "min_denominator": est.min_denominator}]
    return results, rows


def cmd_cf(args, dset):
    return cf_report(parse_x(args), args.depth)


def cmd_exponent(args, dset):
    return exponent_report(parse_x(args), args.depth, args.min_q)
