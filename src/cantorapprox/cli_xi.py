"""Command-line handlers that expand the sparse number xi as a continued
fraction: xi-verify, and cf and exponent on --x xi.

`cli.run_command` imports this module on first use, in place of
`cli_contfrac` when --x is xi.  Each handler takes the parsed arguments
and the digit set and returns (results, csv_rows).
"""

from __future__ import annotations

from .cli_contfrac import cf_report, exponent_report
from .cli_sparse import build_xi
from .contfrac import continued_fraction_expand, legendre_is_convergent
from .digitsets import membership
from .errors import InputError
from .sparse import truncation_reports


def cmd_cf(args, dset):
    return cf_report(build_xi(args), args.depth)


def cmd_exponent(args, dset):
    return exponent_report(build_xi(args), args.depth, args.min_q)


def cmd_xi_verify(args, dset):
    x = build_xi(args)
    reports, s_min = truncation_reports(x)
    depth = x.exponent(x.terms) if args.depth is None else args.depth
    verdict = membership(x, dset, depth)
    cf_depth = args.cf_depth
    cf = continued_fraction_expand(x, cf_depth)
    truncations = [x.truncation(s) for s in range(1, x.terms)]
    verdicts = [legendre_is_convergent(p, q, x) for p, q in truncations]
    # a truncation certified by Legendre's bound must be among the
    # convergents: double the expansion depth until they all are, or until
    # the expansion stops short of the depth asked for
    certified = [pq for pq, v in zip(truncations, verdicts) if v == "yes"]
    while cf.certified_depth == cf_depth and not set(certified) <= set(cf.convergents):
        cf_depth *= 2
        cf = continued_fraction_expand(x, cf_depth)
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
