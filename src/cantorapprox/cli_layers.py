"""Command-line handlers of the layer family: layer, pairwise, quasi-scan,
series, tail, bc-ratio and dim-estimate.

`cli.run_command` imports this module on first use.  Each handler takes
the parsed arguments and the digit set and returns (results, csv_rows).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import render
from .cli import parse_fraction, parse_window
from .digitsets import cantor_measure
from .errors import BUDGET, InputError
from .intervals import RatInterval
from .layers import (ApproxFunction, DimensionFunction, Scalar, borel_cantelli_ratio,
                     box_dimension_estimate, build_layer, layer_comparator, layer_measure,
                     natural_cover_tail, pairwise_measure, psi_value,
                     quasi_independence_scan, series_classify, truncate_psi, window_t0)


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def parse_scalar(text: str) -> Scalar:
    """rational | gamma | C*gamma | gamma/C | C/gamma."""
    t = text.strip()
    if t == "gamma":
        return Scalar(Fraction(1), 1)
    if t.endswith("*gamma"):
        return Scalar(parse_fraction(t[:-6]), 1)
    if t.startswith("gamma/"):
        divisor = parse_fraction(t[6:])
        if not divisor:
            raise InputError(f"zero divisor in {text!r}")
        return Scalar(1 / divisor, 1)
    if t.endswith("/gamma"):
        return Scalar(parse_fraction(t[:-6]), -1)
    return Scalar(parse_fraction(t), 0)


def parse_table(text: str) -> dict[int, Fraction]:
    out = {}
    for item in text.split(","):
        try:
            k, v = item.split("=")
            n = int(k)
        except ValueError as exc:
            raise InputError(f"bad table entry {item!r}; expected N=VALUE, N an integer") from exc
        out[n] = parse_fraction(v)
    return out


def parse_psi(text: str, trunc: Optional[str]) -> ApproxFunction:
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


def parse_f(text: str) -> DimensionFunction:
    kind, _, arg = text.partition(":")
    if kind == "pow":
        sc = parse_scalar(arg)
        return DimensionFunction.power(sc.coef, sc.gexp)
    if kind == "table":
        return DimensionFunction.table(parse_table(arg), True)
    raise InputError(f"unknown f kind {kind!r}")


def _psi_of(args) -> ApproxFunction:
    return parse_psi(args.psi, args.trunc)


def _window_of(args) -> RatInterval:
    window = parse_window(args.window)
    if window.radius <= 0:
        raise InputError("window must have positive length")
    return window


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_layer(args, dset):
    window = _window_of(args)
    psi = _psi_of(args)
    cap = BUDGET.get().cells
    # render the radius b^(-tau n) (refused past the print limit) before the
    # build, at a level of at most `cells` cells, m^n (n cut at the cap's bit
    # length, past which m >= 2 passes it): only there can the build not refuse first
    if args.n >= 1 and dset.digit_count ** min(args.n, cap.bit_length()) <= cap:
        render.value_csv(psi_value(psi, dset, args.n))
    layer = build_layer(dset, psi, args.n, window, args.coprime)
    mv = layer_measure(layer)
    comp = layer_comparator(dset, psi, args.n, cantor_measure(dset, window).value)
    results = {
        "n": args.n,
        "coprime": args.coprime,
        "t0": window_t0(window, dset.base),
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
    window = _window_of(args)
    psi = _psi_of(args)
    lm = build_layer(dset, psi, args.m, window, args.coprime)
    ln_ = build_layer(dset, psi, args.n, window, args.coprime)
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
    window = _window_of(args)
    rep = quasi_independence_scan(dset, _psi_of(args), window, args.nmax, args.mmin,
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
    psi = _psi_of(args)
    f = parse_f(args.f)
    sv = series_classify(dset, psi, f, args.nmax)
    if isinstance(f.kind, Scalar):
        mode = "exact-gamma" if f.kind.gexp != 0 else "rational-approximation"
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
    tail = natural_cover_tail(dset, _psi_of(args), parse_f(args.f), args.n0, args.nmax)
    results = {"n0": tail.n0, "n_max": tail.n_max,
               "value": render.value_json(tail.value),
               "series_verdict": tail.series_verdict}
    rows = [{"n0": tail.n0, "n_max": tail.n_max,
             "value": render.value_csv(tail.value),
             "series_verdict": tail.series_verdict}]
    return results, rows


def cmd_bc_ratio(args, dset):
    window = _window_of(args)
    rep = borel_cantelli_ratio(dset, _psi_of(args), window, args.q, args.coprime)
    results = {"Q": rep.q, "ratio": render.value_json(rep.ratio),
               "union_measure": render.rational_json(rep.union_measure),
               "layer_measures": [render.value_json(m) for m in rep.layer_measures]}
    rows = [{"Q": rep.q, "ratio": render.value_csv(rep.ratio),
             "union_measure": render.rat_str(rep.union_measure)}]
    return results, rows


def cmd_dim_estimate(args, dset):
    est = box_dimension_estimate(dset, parse_fraction(args.tau), args.n, args.coprime)
    results = {"n": est.n, "level": est.level, "count": est.count,
               "coprime": est.coprime, "estimate": render.value_json(est.estimate)}
    rows = [{"n": est.n, "level": est.level, "count": est.count,
             "estimate": render.value_csv(est.estimate),
             "approx_lossy": render.lossy_float(est.estimate[0])}]
    return results, rows
