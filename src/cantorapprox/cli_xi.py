"""Command-line handlers of the sparse number xi: xi-build, which builds
its exponents and truncations, and xi-verify, which checks its
truncations, its membership and its continued fraction.

`cli.run_command` imports this module on first use, and
`cli_contfrac.parse_x` only for --x xi, where cf and exponent read xi
from `build_xi`.  Each handler takes the parsed arguments and the digit
set and returns (results, csv_rows) of numbers, which `cli.run_command`
renders in the format asked for; xi-build's JSON-only exponents pass
`render.check_int` as they are built, so that one past the print limit
stops the build.
"""

from __future__ import annotations

from math import gcd

from . import render
from .cli import parse_fraction
from .contfrac import continued_fraction_expand, legendre_is_convergent
from .digitsets import membership
from .errors import InputError
from .sparse import (FactorialRule, PowerRule, SparseDigitNumber, build_sparse_number,
                     truncation_reports)

CF_DEPTH = 60  # the depth of the first continued-fraction expansion


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


def _feasible_truncations(x: SparseDigitNumber):
    out = []
    for s in range(1, x.terms + 1):
        if x.exponent(s) > render.RENDER_INT_BITS:  # then q_s = b^(e_s) is not built
            break
        p, q = x.truncation(s)
        if q.bit_length() > render.RENDER_INT_BITS:  # the rule of `cli_contfrac.cmd_cf`
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
    rows = []
    for rep in reports:
        rows.append({
            "s": rep.s, "coprime_ok": rep.coprime_ok,
            "denominator_growth_ok": rep.denominator_growth_ok,
            "gap_bounds_ok": rep.gap_bounds_ok,
            "power_bounds_ok": rep.power_bounds_ok,
            "passes": rep.passes,
        })
    results = {
        "membership": {"depth": depth, "verdict": verdict.kind},
        "s_min": s_min,
        "truncation_checks": rows,
        "legendre": legendre,
        "cf_certified_depth": cf.certified_depth,
    }
    return results, rows
