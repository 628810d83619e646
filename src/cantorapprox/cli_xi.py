"""Command-line handler of xi-verify, which checks the sparse number xi's
truncations, its membership and its continued fraction.

`cli.run_command` imports this module on first use; cf and exponent run
in `cli_contfrac` on every --x, xi too.  The handler takes the parsed
arguments and the digit set and returns (results, csv_rows) of numbers,
which `cli.run_command` renders in the format asked for.
"""

from __future__ import annotations

from .cli_sparse import build_xi
from .contfrac import continued_fraction_expand, legendre_is_convergent
from .digitsets import membership
from .errors import InputError
from .sparse import truncation_reports

CF_DEPTH = 60  # the depth of the first continued-fraction expansion


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
