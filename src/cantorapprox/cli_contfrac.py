"""Command-line handlers of the continued-fraction family: cf and exponent
on every --x (xi from `build_xi`), xi-build, which builds the sparse number
xi's exponents and truncations, and xi-verify, which checks its
truncations, its membership and its continued fraction.

`cli.run_command` imports this module on first use, so cf and exponent
compile the sparse-number code on every --x.  Each handler takes the parsed
arguments and the digit set and returns (results, csv_rows) of numbers,
which `cli.run_command` renders in the format asked for; xi-build's
JSON-only exponents pass `render.check_int` as they are built, so that one
past the print limit stops the build.
"""

from __future__ import annotations

from math import gcd

from . import render
from .cli import parse_fraction
from .contfrac import (continued_fraction_expand, irrationality_exponent_estimate,
                       legendre_is_convergent)
from .digitsets import membership
from .enclosures import SqrtSource, exponent_enclosure, golden_ratio_source
from .errors import InputError
from .sparse import (FactorialRule, PowerRule, SparseDigitNumber, build_sparse_number,
                     truncation_reports)

CF_DEPTH = 60  # the depth of xi-verify's first continued-fraction expansion


def build_rule(args) -> PowerRule | FactorialRule:
    if args.rule == "factorial":
        return FactorialRule()
    return PowerRule(parse_fraction(args.tau), parse_fraction(args.lam))


def build_xi(args, dset) -> SparseDigitNumber:
    """xi = c * sum_n b^(-e_n) in the base b of the digit set, so that xi
    lies in the set when 0 and c are among its digits.  c is --coeff, by
    default the least nonzero digit of the set prime to b."""
    coeff = args.coeff
    if coeff is None:
        coeff = next((d for d in dset.digits if d and gcd(d, dset.base) == 1), None)
        if coeff is None:
            raise InputError(f"the set {args.set} has no nonzero digit prime to its base; "
                             "give --coeff")
    return build_sparse_number(dset.base, coeff, build_rule(args), args.terms)


def parse_x(args, dset):
    """The --x argument as a real for `enclosures.as_enclosure`: the source of a
    symbolic constant or of the sparse number xi, gamma's enclosure, or a rational."""
    t = args.x
    if t == "xi":
        return build_xi(args, dset)
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


def _reported(q: int) -> bool:
    """Whether a report holds the convergent or truncation of denominator q:
    one past the print limit `render.RENDER_INT_BITS` is left out."""
    return q.bit_length() <= render.RENDER_INT_BITS


def cmd_cf(args, dset):
    cf = continued_fraction_expand(parse_x(args, dset), args.depth)
    printable = [pq for pq in cf.convergents if _reported(pq[1])]
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


def _feasible_truncations(x: SparseDigitNumber):
    out = []
    for s in range(1, x.terms + 1):
        if x.exponent(s) > render.RENDER_INT_BITS:  # then q_s = b^(e_s) is not built
            break
        p, q = x.truncation(s)
        if not _reported(q):
            break
        out.append((s, p, q))
    return out


def cmd_xi_build(args, dset):
    x = build_xi(args, dset)
    truncs = _feasible_truncations(x)
    results = {
        "base": x.base, "coefficient": x.coefficient, "terms": x.terms,
        "rule": args.rule,
        "exponents": ([render.check_int(x.exponent(n)) for n in range(1, x.terms + 1)]
                      if args.output == "json" else None),
        "truncations": [{"s": s, "p": render.Digits(p), "q": render.Digits(q)}
                        for s, p, q in truncs],
    }
    rows = [{"s": s, "exponent": x.exponent(s), "p": p, "q": q}
            for s, p, q in truncs]
    return results, rows


def cmd_xi_verify(args, dset):
    x = build_xi(args, dset)
    reports, s_min = truncation_reports(x)
    depth = x.exponent(x.terms) if args.depth is None else args.depth
    verdict = membership(x, dset, depth)
    expand_to = CF_DEPTH
    cf = continued_fraction_expand(x, expand_to)
    truncations = [x.truncation(s) for s in range(1, x.terms)]
    verdicts = [legendre_is_convergent(p, q, x) for p, q in truncations]
    # a truncation certified by Legendre's bound must be among the
    # convergents: double the expansion depth until they all are, or until
    # the expansion stops short of the depth asked for
    certified = [pq for pq, v in zip(truncations, verdicts) if v == "yes"]
    while cf.certified_depth == expand_to and not set(certified) <= set(cf.convergents):
        expand_to *= 2
        cf = continued_fraction_expand(x, expand_to)
    for p, q in certified:
        if (p, q) not in cf.convergents:
            raise InputError(f"certified Legendre bound but ({p},{q}) not among the convergents")
    legendre = [{"s": s, "verdict": v} for s, v in enumerate(verdicts, start=1)]
    rows = [{"s": rep.s, "coprime_ok": rep.coprime_ok,
             "denominator_growth_ok": rep.denominator_growth_ok,
             "gap_bounds_ok": rep.gap_bounds_ok, "power_bounds_ok": rep.power_bounds_ok,
             "passes": rep.passes} for rep in reports]
    results = {
        "membership": {"depth": depth, "verdict": verdict.kind},
        "s_min": s_min,
        "truncation_checks": rows,
        "legendre": legendre,
        "cf_certified_depth": cf.certified_depth,
    }
    return results, rows
