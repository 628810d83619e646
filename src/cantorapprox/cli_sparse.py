"""Command-line handler of xi-build, and the sparse number xi that
xi-verify (`cli_xi`) and cf and exponent on --x xi (`cli_contfrac`) also
build.

`cli.run_command` imports this module on first use, and
`cli_contfrac.parse_x` only for --x xi.  It loads no continued-fraction
code.  `cmd_xi_build` returns numbers, as the other handlers do, except
that it checks its JSON-only exponents for printing as they are built.
"""

from __future__ import annotations

import sys

from . import render
from .cli import parse_fraction
from .sparse import FactorialRule, PowerRule, SparseDigitNumber, build_sparse_number


def build_rule(args) -> PowerRule | FactorialRule:
    if args.rule == "factorial":
        return FactorialRule()
    return PowerRule(parse_fraction(args.tau), parse_fraction(args.lam))


def build_xi(args, dset) -> SparseDigitNumber:
    """xi = coeff * sum_n b^(-e_n) in the base b of the digit set, so that
    xi lies in the set when 0 and coeff are among its digits."""
    return build_sparse_number(dset.base, args.coeff, build_rule(args), args.terms)


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


def _printable_exponents(x: SparseDigitNumber) -> list[int]:
    """The JSON report's e_1 .. e_terms, each checked by `render.int_str` as it
    is built unless under 3.3 d bits, so below 10^d (d the int-to-str limit)."""
    safe_bits = sys.get_int_max_str_digits() * 33 // 10
    out = []
    for n in range(1, x.terms + 1):
        if (e := x.exponent(n)).bit_length() > safe_bits:
            render.int_str(e)
        out.append(e)
    return out


def cmd_xi_build(args, dset):
    x = build_xi(args, dset)
    truncs = _feasible_truncations(x)
    results = {
        "base": x.base, "coefficient": x.coefficient, "terms": x.terms,
        "rule": args.rule,
        "exponents": _printable_exponents(x) if args.output == "json" else None,
        "truncations": [{"s": s, "p": render.Digits(p), "q": render.Digits(q)}
                        for s, p, q in truncs],
    }
    rows = [{"s": s, "exponent": x.exponent(s), "p": p, "q": q}
            for s, p, q in truncs]
    return results, rows
