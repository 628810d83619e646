"""Command-line handler of xi-build, and the sparse number xi that the
--x xi and xi-verify handlers in `cli_xi` also build.

`cli.run_command` imports this module on first use.  It loads no
continued-fraction code.
"""

from __future__ import annotations

from . import render
from .cli import parse_fraction
from .sparse import FactorialRule, PowerRule, SparseDigitNumber, build_sparse_number


def build_rule(args) -> PowerRule | FactorialRule:
    if args.rule == "factorial":
        return FactorialRule()
    tau = parse_fraction(args.tau)
    lam = parse_fraction(getattr(args, "lam", "1") or "1")
    return PowerRule(tau, lam)


def build_xi(args) -> SparseDigitNumber:
    return build_sparse_number(args.base_override or 3, args.coeff, build_rule(args),
                               args.terms)


def _feasible_truncations(x: SparseDigitNumber):
    out = []
    for s in range(1, x.terms + 1):
        if x.exponent(s) > render.RENDER_INT_BITS:  # then q_s = b^(e_s) is not built
            break
        p, q = x.truncation(s)
        if q.bit_length() > render.RENDER_INT_BITS:  # the rule of `cf_report`
            break
        out.append((s, p, q))
    return out


def cmd_xi_build(args, dset):
    x = build_xi(args)
    truncs = _feasible_truncations(x)
    results = {
        "base": x.base, "coefficient": x.coefficient, "terms": x.terms,
        "rule": args.rule,
        "exponents": list(x.exponents_up_to(x.terms)),
        "truncations": [{"s": s, "p": str(p), "q": str(q)} for s, p, q in truncs],
    }
    rows = [{"s": s, "exponent": x.exponent(s), "p": p, "q": q}
            for s, p, q in truncs]
    return results, rows
