"""Batch command-line front end.

Every run emits a deterministic report: identical argv produces
byte-identical output (keys sorted, rationals as exact num/den strings
with decimal renderings).  Wall-clock timing is only included with
--timing, which is documented as non-deterministic.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import calibration, enclosures, render
from .digitsets import MissingDigitSet, cantor_measure, full_cover_check, membership
from .enclosures import RealEnclosure, SqrtSource, golden_ratio_source
from .errors import InputError, PrecisionError, ResourceBudgetError
from .intervals import RatInterval

# Only what every command needs is imported above.  The layer,
# continued-fraction and sparse-number families import their module in
# the functions that use it, so a call loads only the code it runs.
if TYPE_CHECKING:
    from .layers import ApproxFunction, DimensionFunction, Scalar, WindowConfig
    from .sparse import FactorialRule, PowerRule, SparseDigitNumber

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def parse_scalar(text: str) -> Scalar:
    """rational | gamma | C*gamma | gamma/C | C/gamma."""
    from .layers import Scalar
    t = text.strip()
    if t == "gamma":
        return Scalar(Fraction(1), 1)
    if t.endswith("*gamma"):
        return Scalar(parse_fraction(t[:-6]), 1)
    if t.startswith("gamma/"):
        return Scalar(1 / parse_fraction(t[6:]), 1)
    if t.endswith("/gamma"):
        return Scalar(parse_fraction(t[:-6]), -1)
    return Scalar(parse_fraction(t), 0)


def parse_set(text: str) -> MissingDigitSet:
    try:
        base_s, digits_s = text.split(":")
        return MissingDigitSet(int(base_s), tuple(int(d) for d in digits_s.split(",")))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad set spec {text!r}; expected BASE:D1,D2,...") from exc


def parse_window(text: str) -> RatInterval:
    try:
        lo_s, hi_s = text.split(":")
    except ValueError as exc:
        raise InputError(f"bad window {text!r}; expected LO:HI") from exc
    return RatInterval.make(parse_fraction(lo_s), parse_fraction(hi_s))


def parse_table(text: str) -> dict[int, Fraction]:
    out = {}
    for item in text.split(","):
        k, v = item.split("=")
        out[int(k)] = parse_fraction(v)
    return out


def parse_psi(text: str, trunc: Optional[str]) -> ApproxFunction:
    from .layers import ApproxFunction, truncate_psi
    kind, _, arg = text.partition(":")
    if kind == "pow":
        sc = parse_scalar(arg)
        psi = ApproxFunction.power(sc.coef, sc.gexp)
    elif kind == "powlog":
        alpha_s, _, beta_s = arg.partition(",")
        if not beta_s:
            raise InputError("powlog needs ALPHA,BETA")
        psi = ApproxFunction.power_log(parse_fraction(alpha_s), parse_scalar(beta_s))
    elif kind == "table":
        psi = ApproxFunction.table(parse_table(arg))
    else:
        raise InputError(f"unknown psi kind {kind!r}")
    if trunc is not None:
        psi = truncate_psi(psi, parse_fraction(trunc))
    return psi


def parse_f(text: str, table_witness: bool = True) -> DimensionFunction:
    from .layers import DimensionFunction
    kind, _, arg = text.partition(":")
    if kind == "pow":
        sc = parse_scalar(arg)
        return DimensionFunction.power(sc.coef, sc.gexp)
    if kind == "table":
        return DimensionFunction.table(parse_table(arg), table_witness)
    raise InputError(f"unknown f kind {kind!r}")


def build_rule(args) -> PowerRule | FactorialRule:
    from .sparse import FactorialRule, PowerRule
    if args.rule == "factorial":
        return FactorialRule()
    tau = parse_fraction(args.tau)
    lam = parse_fraction(getattr(args, "lam", "1") or "1")
    return PowerRule(tau, lam)


def build_xi(args) -> SparseDigitNumber:
    from .sparse import build_sparse_number
    return build_sparse_number(args.base_override or 3, args.coeff, build_rule(args),
                               args.terms)


def parse_x(args):
    """The --x argument: symbolic constant, rational, or the xi construction."""
    t = args.x
    if t == "golden":
        return RealEnclosure.from_source(golden_ratio_source())
    if t == "gamma":
        dset = parse_set(args.set)
        return dset.exponent_enclosure()
    if t.startswith("sqrt:"):
        return RealEnclosure.from_source(SqrtSource(parse_fraction(t[5:])))
    if t == "xi":
        return build_xi(args)
    return parse_fraction(t)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (results, csv_rows)
# ---------------------------------------------------------------------------

def _psi_of(args) -> ApproxFunction:
    return parse_psi(args.psi, args.trunc)


def _window_cfg(args, dset) -> WindowConfig:
    from .layers import WindowConfig
    return WindowConfig.for_window(parse_window(args.window), dset.base)


def cmd_measure(args, dset):
    iv = parse_window(args.window)
    mv = cantor_measure(dset, iv)
    results = {"window": {"lo": render.rational_json(iv.lo),
                          "hi": render.rational_json(iv.hi)},
               "measure": render.value_json(mv)}
    rows = [{"lo": render.rat_str(iv.lo), "hi": render.rat_str(iv.hi),
             "measure": render.value_csv(mv), "approx_lossy": render.lossy_float(mv.lo)}]
    return results, rows


def cmd_layer(args, dset):
    from .layers import build_layer, layer_comparator, layer_measure
    cfg = _window_cfg(args, dset)
    psi = _psi_of(args)
    layer = build_layer(dset, psi, args.n, cfg, args.coprime)
    mv = layer_measure(layer)
    comp = layer_comparator(dset, psi, args.n, cantor_measure(dset, cfg.window).value)
    results = {
        "n": args.n,
        "coprime": args.coprime,
        "t0": cfg.t0,
        "ball_count": len(layer.center_numerators),
        "centers": [render.rational_json(c) for c in layer.centers],
        "radius": render.value_json(layer.radius),
        "disjoint": layer.disjoint,
        "measure": render.value_json(mv),
        "comparator": render.value_json(comp),
    }
    rows = [{"n": args.n, "ball_count": len(layer.center_numerators),
             "radius": render.value_csv(layer.radius),
             "measure": render.value_csv(mv),
             "comparator": render.value_csv(comp),
             "approx_lossy": render.lossy_float(mv.lo)}]
    return results, rows


def cmd_pairwise(args, dset):
    from .layers import build_layer, layer_measure, pairwise_measure
    cfg = _window_cfg(args, dset)
    psi = _psi_of(args)
    lm = build_layer(dset, psi, args.m, cfg, args.coprime)
    ln_ = build_layer(dset, psi, args.n, cfg, args.coprime)
    inter = pairwise_measure(lm, ln_)
    mu_m, mu_n = layer_measure(lm), layer_measure(ln_)
    results = {"m": args.m, "n": args.n,
               "mu_m": render.value_json(mu_m),
               "mu_n": render.value_json(mu_n),
               "mu_mn": render.value_json(inter)}
    rows = [{"m": args.m, "n": args.n,
             "mu_m": render.value_csv(mu_m),
             "mu_n": render.value_csv(mu_n),
             "mu_mn": render.value_csv(inter),
             "approx_lossy": render.lossy_float(inter.lo)}]
    return results, rows


def _scan_row_payload(row):
    return {"m": row.m, "n": row.n, "case": row.case,
            "mu_m": render.value_csv(row.mu_m), "mu_n": render.value_csv(row.mu_n),
            "mu_mn": render.value_csv(row.mu_mn), "rho": render.value_csv(row.rho)}


def cmd_quasi_scan(args, dset):
    from .layers import quasi_independence_scan
    cfg = _window_cfg(args, dset)
    rep = quasi_independence_scan(dset, _psi_of(args), cfg, args.nmax, args.mmin,
                                  args.coprime)
    results = {
        "window_measure": render.rational_json(rep.window_measure),
        "pairs": [_scan_row_payload(r) for r in rep.rows],
        "skipped_null_pairs": [list(p) for p in rep.skipped],
        "c_empirical": render.value_json(rep.c_empirical) if rep.c_empirical else None,
    }
    rows = [_scan_row_payload(r) for r in rep.rows]
    return results, rows


def cmd_series(args, dset):
    from .layers import series_classify
    psi = _psi_of(args)
    f = parse_f(args.f)
    sv = series_classify(dset, psi, f, args.nmax)
    if hasattr(f.kind, "exponent"):
        mode = "exact-gamma" if f.kind.exponent.gexp != 0 else "rational-approximation"
    else:
        mode = "table"
    results = {
        "verdict": sv.verdict,
        "prediction": sv.prediction,
        "exponent_mode": mode,
        "partial_sums": [render.value_json(s) for s in sv.partial_sums],
    }
    rows = [{"N": i + 1, "partial_sum": render.value_csv(s),
             "approx_lossy": render.lossy_float(s[0])}
            for i, s in enumerate(sv.partial_sums)]
    return results, rows


def cmd_tail(args, dset):
    from .layers import natural_cover_tail
    tail = natural_cover_tail(dset, _psi_of(args), parse_f(args.f), args.n0, args.nmax)
    results = {"n0": tail.n0, "n_max": tail.n_max,
               "value": render.value_json(tail.value),
               "series_verdict": tail.series_verdict}
    rows = [{"n0": tail.n0, "n_max": tail.n_max,
             "value": render.value_csv(tail.value),
             "series_verdict": tail.series_verdict}]
    return results, rows


def cmd_bc_ratio(args, dset):
    from .layers import borel_cantelli_ratio
    cfg = _window_cfg(args, dset)
    rep = borel_cantelli_ratio(dset, _psi_of(args), cfg, args.q, args.coprime)
    results = {"Q": rep.q, "ratio": render.value_json(rep.ratio),
               "union_measure": render.rational_json(rep.union_measure),
               "layer_measures": [render.value_json(m) for m in rep.layer_measures]}
    rows = [{"Q": rep.q, "ratio": render.value_csv(rep.ratio),
             "union_measure": render.rat_str(rep.union_measure)}]
    return results, rows


def cmd_dim_estimate(args, dset):
    from .layers import box_dimension_estimate
    est = box_dimension_estimate(dset, parse_fraction(args.tau), args.n, args.coprime)
    results = {"n": est.n, "level": est.level, "count": est.count,
               "coprime": est.coprime, "estimate": render.value_json(est.estimate)}
    rows = [{"n": est.n, "level": est.level, "count": est.count,
             "estimate": render.value_csv(est.estimate),
             "approx_lossy": render.lossy_float(est.estimate[0])}]
    return results, rows


# integers beyond this bit size are summarized, not printed (int->str is
# quadratic and capped by the interpreter)
RENDER_INT_BITS = 12_000


def _feasible_truncations(x: SparseDigitNumber):
    out = []
    for s in range(1, x.terms + 1):
        if x.exponent(s) * x.base.bit_length() > RENDER_INT_BITS:
            break
        try:
            p, q = x.truncation(s)
        except PrecisionError:
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


def cmd_xi_verify(args, dset):
    from .contfrac import continued_fraction_expand, legendre_is_convergent
    from .sparse import truncation_reports
    x = build_xi(args)
    reports, s_min = truncation_reports(x)
    depth = args.depth or x.exponent(x.terms)
    verdict = membership(x, dset, depth)
    cf_depth = args.cf_depth
    cf = continued_fraction_expand(x, cf_depth)
    truncations = [x.truncation(s) for s in range(1, x.terms)]
    # a truncation certified by Legendre's bound must be among the
    # convergents: double the expansion depth until they all are, or until
    # the expansion stops short of the depth asked for
    certified = {pq for pq in truncations if legendre_is_convergent(*pq, x) == "yes"}
    while cf.certified_depth == cf_depth and not certified <= set(cf.convergents):
        cf_depth *= 2
        cf = continued_fraction_expand(x, cf_depth)
    legendre = [{"s": s, "verdict": legendre_is_convergent(p, q, x, cf)}
                for s, (p, q) in enumerate(truncations, start=1)]
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


def cmd_cf(args, dset):
    from .contfrac import continued_fraction_expand
    x = parse_x(args)
    cf = continued_fraction_expand(x, args.depth)
    printable = [pq for pq in cf.convergents if pq[1].bit_length() <= RENDER_INT_BITS]
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


def cmd_exponent(args, dset):
    from .contfrac import continued_fraction_expand, irrationality_exponent_estimate
    x = parse_x(args)
    cf = continued_fraction_expand(x, args.depth)
    est = irrationality_exponent_estimate(cf, args.min_q)
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


def cmd_cf_interval(args, dset):
    from .contfrac import cf_prefix_interval, prefix_interval_disjoint_from
    quotients = [int(a) for a in args.quotients.split(",")]
    pi = cf_prefix_interval(quotients)
    disjoint = prefix_interval_disjoint_from(pi, dset, args.depth)
    results = {
        "quotients": quotients,
        "interval": {
            "lo": render.rational_json(pi.lo), "hi": render.rational_json(pi.hi),
            "lo_closed": pi.lo_closed, "hi_closed": pi.hi_closed,
        },
        "depth": args.depth,
        "disjoint_from_set": disjoint,
        "verdict": "not_in_set" if disjoint else "undetermined_at_depth",
    }
    rows = [{"quotients": ";".join(str(a) for a in quotients),
             "lo": render.rat_str(pi.lo), "hi": render.rat_str(pi.hi),
             "lo_closed": pi.lo_closed, "hi_closed": pi.hi_closed,
             "disjoint_from_set": disjoint}]
    return results, rows


def cmd_full_cover(args, dset):
    window = parse_window(args.window)
    ok = full_cover_check(dset, args.n, window)
    results = {"n": args.n, "window": {"lo": render.rational_json(window.lo),
                                       "hi": render.rational_json(window.hi)},
               "full_cover": ok}
    rows = [{"n": args.n, "lo": render.rat_str(window.lo),
             "hi": render.rat_str(window.hi), "full_cover": ok}]
    return results, rows


COMMANDS = {
    "measure": cmd_measure,
    "layer": cmd_layer,
    "pairwise": cmd_pairwise,
    "quasi-scan": cmd_quasi_scan,
    "series": cmd_series,
    "tail": cmd_tail,
    "bc-ratio": cmd_bc_ratio,
    "dim-estimate": cmd_dim_estimate,
    "xi-build": cmd_xi_build,
    "xi-verify": cmd_xi_verify,
    "cf": cmd_cf,
    "exponent": cmd_exponent,
    "cf-interval": cmd_cf_interval,
    "full-cover": cmd_full_cover,
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--set", default="3:0,2", help="BASE:D1,D2,... (default middle thirds)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; every command runs serially")
    p.add_argument("--precision-budget", type=int, default=None,
                   help="override the enclosure refinement step cap")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (non-deterministic)")


def _add_psi(p):
    p.add_argument("--psi", required=True, help="pow:T | powlog:A,B | table:n=v,...")
    p.add_argument("--trunc", default=None, help="truncation constant c for min(c/r, psi)")


def _add_window(p):
    p.add_argument("--window", default="0:1", help="LO:HI window interval")
    p.add_argument("--coprime", action=argparse.BooleanOptionalAction, default=True)


def _add_xi(p):
    p.add_argument("--rule", choices=("pow", "factorial"), default="pow")
    p.add_argument("--tau", default="3")
    p.add_argument("--lam", default="1")
    p.add_argument("--coeff", type=int, default=2)
    p.add_argument("--terms", type=int, default=5)
    p.add_argument("--base-override", type=int, default=None,
                   help="base for the sparse number (defaults to 3)")


_N = ("--n", {"type": int, "required": True})
_NMAX = ("--nmax", {"type": int, "required": True})
_DEPTH = ("--depth", {"type": int, "required": True})

# each subcommand's shared option groups, then its own options, in help order
SUBCOMMAND_OPTIONS = {
    "measure": ((), [("--window", {"required": True, "help": "LO:HI interval to measure"})]),
    "layer": ((_add_psi, _add_window), [_N]),
    "pairwise": ((_add_psi, _add_window), [("--m", {"type": int, "required": True}), _N]),
    "quasi-scan": ((_add_psi, _add_window), [_NMAX, ("--mmin", {"type": int, "default": 1})]),
    "series": ((_add_psi,), [("--f", {"required": True, "help": "pow:S | table:n=v,..."}),
                             _NMAX]),
    "tail": ((_add_psi,), [("--f", {"required": True}),
                           ("--n0", {"type": int, "required": True}), _NMAX]),
    "bc-ratio": ((_add_psi, _add_window), [("--q", {"type": int, "required": True})]),
    "dim-estimate": ((), [("--tau", {"required": True}), _N,
                          ("--coprime", {"action": argparse.BooleanOptionalAction,
                                         "default": True})]),
    "xi-build": ((_add_xi,), []),
    "xi-verify": ((_add_xi,), [
        ("--depth", {"type": int, "default": None,
                     "help": "membership depth (default: the last exponent)"}),
        ("--cf-depth", {"type": int, "default": 60,
                        "help": "continued-fraction depth, doubled while a Legendre-"
                                "certified truncation is not among the convergents"})]),
    "cf": ((_add_xi,), [("--x", {"required": True,
                                 "help": "golden | gamma | sqrt:N | xi | rational"}), _DEPTH]),
    "exponent": ((_add_xi,), [("--x", {"required": True}), _DEPTH,
                              ("--min-q", {"type": int, "default": 2})]),
    "cf-interval": ((), [("--quotients", {"required": True,
                                          "help": "comma-separated positive integers"}),
                         _DEPTH]),
    "full-cover": ((), [_N, ("--window", {"default": "0:1"})]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or with only `command`'s."""
    top = argparse.ArgumentParser(prog="cantorapprox",
                                  description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_OPTIONS if command is None else (command,):
        groups, options = SUBCOMMAND_OPTIONS[name]
        p = subs.add_parser(name)
        _add_common(p)
        for add_group in groups:
            add_group(p)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return top


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice key=value file entries in as flags ahead of explicit ones."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise InputError("--config needs a path")
    extra: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if value.lower() in ("true", "false") and key in ("coprime", "timing"):
                extra.append(f"--{key}" if value.lower() == "true" else f"--no-{key}")
            else:
                extra.extend([f"--{key}", value])
    return argv[:1] + extra + argv[1:]


def _calibration_payload() -> dict:
    env = {str(k): {"lo": render.rational_json(v[0]), "hi": render.rational_json(v[1])}
           for k, v in calibration.MU_RATIO_ENVELOPE.items()}
    return {"c_fix": render.rational_json(calibration.C_FIX),
            "mu_ratio_envelope": env}


def run_command(argv: list[str]) -> tuple[str, Optional[str]]:
    """Returns (report text, output path or None)."""
    argv = _apply_config_file(argv)
    # the named subcommand is argv[0]; anything else (help, an unknown
    # command) needs the full parser and its list of choices
    named = argv[0] if argv and argv[0] in SUBCOMMAND_OPTIONS else None
    args = build_parser(named).parse_args(argv)
    if args.precision_budget is not None and args.precision_budget < 1:
        raise InputError("precision budget must be >= 1")
    dset = parse_set(args.set)
    saved_steps = enclosures.MAX_REFINE_STEPS
    try:
        if args.precision_budget is not None:
            enclosures.MAX_REFINE_STEPS = args.precision_budget
        start = time.monotonic()
        results, rows = COMMANDS[args.command](args, dset)
        elapsed_ms = int((time.monotonic() - start) * 1000)
    finally:
        enclosures.MAX_REFINE_STEPS = saved_steps
    if args.output == "csv":
        return render.dump_csv(rows), args.out
    echo = {k: (v if isinstance(v, (int, bool, float)) or v is None else str(v))
            for k, v in sorted(vars(args).items())
            if k not in ("config", "out", "output", "timing")}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config_echo": echo,
        "results": results,
        "calibration_constants_used": _calibration_payload(),
        "timing_ms": elapsed_ms if args.timing else None,
    }
    return render.dump_report(report), args.out


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        text, out_path = run_command(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
