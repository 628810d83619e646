"""Command-line handlers of the layer family: layer, pairwise, quasi-scan,
series, tail, bc-ratio and dim-estimate.

`cli.run_command` imports this module on first use.  Each handler takes
the parsed arguments and the digit set and returns (results, csv_rows) of
numbers, which `cli.run_command` renders in the format asked for.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import render
from .cli import parse_fraction, parse_window
from .digitsets import CantorMeasureValue, cantor_measure
from .errors import InputError
from .intervals import RatInterval
from .layers import (ApproxFunction, DimensionFunction, Scalar, borel_cantelli_ratio,
                     box_dimension_estimate, build_layer, layer_comparator, layer_measure,
                     layer_table, natural_cover_tail, psi_value, quasi_independence_scan,
                     series_classify, truncate_psi, window_t0)


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
        return DimensionFunction.table(parse_table(arg))
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
    radius = psi_value(psi, dset, args.n)
    for k in (*radius[0].as_integer_ratio(), *radius[1].as_integer_ratio()):
        render.check_int(k)  # a radius past the print limit is refused before the build
    layer = build_layer(dset, radius, args.n, window, args.coprime)
    mv = layer_measure(layer)
    comp = layer_comparator(dset, psi, radius, args.n, cantor_measure(dset, window).value)
    row = {"n": args.n, "ball_count": len(layer.center_numerators),
           "radius": render.Value(layer.radius), "measure": mv, "comparator": render.Value(comp)}
    results = {**row, "coprime": args.coprime, "t0": window_t0(window, dset.base),
               "centers": layer.centers, "disjoint": layer.disjoint}
    return results, [{**row, "approx_lossy": render.lossy_float(mv.lo)}]


def cmd_pairwise(args, dset):
    m, n, window = args.m, args.n, _window_of(args)
    _, measures, pairs = layer_table(dset, _psi_of(args), window, (m, n), args.coprime)
    inter = pairs[m, n] or CantorMeasureValue(Fraction(0), Fraction(0))  # None: a null layer
    results = {"m": m, "n": n, "mu_m": measures[m], "mu_n": measures[n], "mu_mn": inter}
    return results, [{**results, "approx_lossy": render.lossy_float(inter.lo)}]


def _scan_row_payload(row):
    """A scan row; the JSON report's pairs are its CSV text too."""
    return {"m": row.m, "n": row.n, "case": row.case,
            "mu_m": render.value_csv(row.mu_m), "mu_n": render.value_csv(row.mu_n),
            "mu_mn": render.value_csv(row.mu_mn), "rho": render.value_csv(row.rho)}


def cmd_quasi_scan(args, dset):
    window = _window_of(args)
    rep = quasi_independence_scan(dset, _psi_of(args), window, args.nmax, args.mmin,
                                  args.coprime)
    rows = [_scan_row_payload(r) for r in rep.rows]
    results = {
        "window_measure": rep.window_measure,
        "pairs": rows,
        "skipped_null_pairs": rep.skipped,
        "c_empirical": render.Value(rep.c_empirical) if rep.c_empirical else None,
    }
    return results, rows


def cmd_series(args, dset):
    psi = _psi_of(args)
    f = parse_f(args.f)
    sv = series_classify(dset, psi, f, args.nmax)
    if isinstance(f.kind, Scalar):
        mode = "exact-gamma" if f.kind.gexp != 0 else "rational-approximation"
    else:
        mode = "table"
    sums = [render.Value(s) for s in sv.partial_sums]
    results = {
        "verdict": sv.verdict,
        "prediction": sv.prediction,
        "exponent_mode": mode,
        "partial_sums": sums,
    }
    rows = [{"N": i, "partial_sum": s, "approx_lossy": render.lossy_float(s[0])}
            for i, s in enumerate(sums, start=1)]
    return results, rows


def cmd_tail(args, dset):
    tail = natural_cover_tail(dset, _psi_of(args), parse_f(args.f), args.n0, args.nmax)
    results = {"n0": tail.n0, "n_max": tail.n_max, "value": render.Value(tail.value),
               "series_verdict": tail.series_verdict}
    return results, [results]


def cmd_bc_ratio(args, dset):
    window = _window_of(args)
    rep = borel_cantelli_ratio(dset, _psi_of(args), window, args.q, args.coprime)
    row = {"Q": rep.q, "ratio": render.Value(rep.ratio), "union_measure": rep.union_measure}
    return {**row, "layer_measures": rep.layer_measures}, [row]


def cmd_dim_estimate(args, dset):
    est = box_dimension_estimate(dset, parse_fraction(args.tau), args.n, args.coprime)
    row = {"n": est.n, "level": est.level, "count": est.count,
           "estimate": render.Value(est.estimate)}
    return ({**row, "coprime": est.coprime},
            [{**row, "approx_lossy": render.lossy_float(est.estimate[0])}])
