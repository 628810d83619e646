"""Checks of the benchmark itself; run with `python3 -m pytest perfbench/selftest.py`.

The file name keeps these out of the repository's default test
collection: they spawn interpreters and take about half a minute.
"""

from __future__ import annotations

import time

import pytest

import run
import spans
import workloads

SECONDS = run.load_spec()["run_seconds"]
SHORT_OPS = {
    "layer-measure": [["layer", "--psi", "pow:3/2", "--n", "6", "--window", "1/5:4/5"],
                      ["pairwise", "--set", "4:0,3", "--psi", "powlog:2,1", "--m", "2",
                       "--n", "5"]],
    "enclosure-cf": [["exponent", "--x", "xi", "--tau", "11/5", "--terms", "5",
                      "--depth", "40"],
                     ["xi-verify", "--tau", "5/2", "--terms", "5"]],
    "cylinder-walk": [["cf-interval", "--quotients", "2,3", "--depth", "12"],
                      ["full-cover", "--n", "6", "--window", "1/7:5/6"],
                      ["dim-estimate", "--tau", "3/2", "--n", "7"]],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.op_list(workload, 7, SECONDS)
    assert first == workloads.op_list(workload, 7, SECONDS)
    assert first != workloads.op_list(workload, 8, SECONDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, SECONDS])
def test_every_seed_starts_with_the_anchors(workload, seconds):
    anchors = workloads.ANCHORS[workload]
    for seed in range(20):
        assert workloads.op_list(workload, seed, seconds)[:len(anchors)] == anchors


def test_default_seed_draws_the_known_xi_verify_defect():
    ops = workloads.op_list("enclosure-cf", workloads.DEFAULT_SEED, SECONDS)
    assert any(op[0] == "xi-verify" and op[-2:] == ["--terms", "7"] for op in ops)


def test_pins_cover_every_default_seed_op():
    pins = run.Checker().pins
    for workload in workloads.WORKLOADS:
        for argv in workloads.op_list(workload, workloads.DEFAULT_SEED, SECONDS):
            assert run.op_key(argv) in pins, argv


def _run(ops, trace_dir=None):
    run.OUT.mkdir(exist_ok=True)
    return run.run_ops(ops, run.Checker(), run.SpeedGauge(), time.monotonic() + 120, trace_dir,
                       "selftest")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_results_match_untraced(workload, tmp_path):
    ops = SHORT_OPS[workload]
    plain = _run(ops)
    traced = _run(ops, tmp_path)
    assert [(r["exit"], r["hash"]) for r in plain] == [(r["exit"], r["hash"]) for r in traced]
    assert all(r["exit"] == 0 and r["hash"] for r in plain)
    assert not any(r["incorrect"] for r in plain + traced)


def test_traced_counts_repeat_exactly(tmp_path):
    ops = [op for workload in workloads.WORKLOADS for op in SHORT_OPS[workload]]
    counts = []
    for attempt in ("a", "b"):
        (tmp_path / attempt).mkdir()
        _run(ops, tmp_path / attempt)
        metrics = spans.layer_metrics(tmp_path / attempt, [1.0] * len(ops))
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["digitsets.cantor_cdf.calls"] > 0
    assert counts[0]["enclosures.ln_interval.calls"] > 0
    assert counts[0]["digitsets.allowed_prefixes.items"] > 0


def test_tail_latency_leaves_ten_ops_above():
    walls = [float(i) for i in range(50)]
    value, pct = run.tail_latency(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == pytest.approx(80.0)
