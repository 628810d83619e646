"""Per-layer metrics from the span files that `trace_op.py` writes."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# span name -> (metric suffix, how the span attributes of a run combine)
ATTR_METRICS = {
    "digitsets.cantor_cdf": ("distinct_ratio", "distinct"),
    "layers.build_layer": ("distinct_ratio", "distinct"),
    "digitsets.allowed_prefixes": ("items", "sum"),
    "intervals.merge_pairs": ("pairs_in", "sum"),
    "enclosures.ln_interval": ("max_arg_bits", "max"),
    "enclosures.refine": ("max_level", "max"),
}


def op_metrics(doc: dict, scale: float, totals: defaultdict, distinct: defaultdict) -> None:
    """Add one op's calls, self times (multiplied by `scale`) and attributes
    to the run totals."""
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    keys = defaultdict(set)
    for (name_id, start, end, _, attr), covered in zip(spans, child_time):
        name = names[name_id]
        self_s = (end - start - covered) * scale
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        totals[f"{name.split('.')[0]}.self_s"] += self_s
        if name in ATTR_METRICS and attr is not None:
            suffix, how = ATTR_METRICS[name]
            metric = f"{name}.{suffix}"
            if how == "distinct":
                keys[name].add(attr)
            elif how == "sum":
                totals[metric] += attr
            else:
                totals[metric] = max(totals[metric], attr)
    for name, seen in keys.items():
        distinct[name] += len(seen)


def layer_metrics(trace_dir: Path, scales: list[float]) -> dict:
    """Sum the metrics of every op's span file; an op with no file adds nothing.

    scales[i] turns op i's measured seconds into reference seconds."""
    totals: defaultdict = defaultdict(float)
    distinct: defaultdict = defaultdict(int)
    for index, scale in enumerate(scales):
        path = trace_dir / f"op{index:03d}.json"
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                op_metrics(json.load(fh), scale, totals, distinct)
    for name, count in distinct.items():
        totals[f"{name}.distinct_ratio"] = count / totals[f"{name}.calls"]
    return dict(totals)
