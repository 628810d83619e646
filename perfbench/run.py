"""Benchmark of the `cantorapprox` command line.

    python3 perfbench/run.py --workload layer-measure --seed 0 --seconds 25 --trace 0

One client runs a seeded op list in a closed loop, one op at a time; each
op is a fresh interpreter running `cantorapprox.cli.main(argv)`, as the
console script does.  Every report is validated against
`report_schema.json`, and the sha256 of the canonical JSON of its
`results` object is checked against `pinned_results.json`.

Times are in reference seconds: each spawned process's seconds are
scaled by interleaved CPU speed probes of the client (see `SpeedGauge`).
With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics.  With `--trace 1` the op list runs once untraced and
once under `trace_op.py`, and the object holds the per-layer metrics
summed from the traced op spans.  Per-op records (argv, exit code, times,
results hash) and the span files go to `.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA_PATH = SRC / "cantorapprox" / "report_schema.json"
OUT = ROOT / ".perfbench-out"
PINS_PATH = HERE / "pinned_results.json"

ENTRY = "import sys; from cantorapprox.cli import main; sys.exit(main())"
SETUP_ENTRY = "from cantorapprox.cli import build_parser; build_parser()"
SETUP_SPAWNS = 11
PROBE_LOOPS = 300_000
# seconds PROBE_LOOPS take on the reference machine (a typical reading on
# a 2-core x86 box with Python 3.11)
REF_PROBE_S = 0.025
OP_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 170.0
# exit codes of a handled failure (bad input, resource or precision);
# anything else is a crash
HANDLED_EXITS = (0, 2, 3)


def results_hash(report: dict) -> str:
    canonical = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _kill_group(proc: subprocess.Popen, fired: list) -> None:
    fired.append(True)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], out_path: Path, timeout: float) -> dict:
    """Run one process to completion; stdout goes to out_path."""
    fired: list = []
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, env=_env(),
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc, fired))
        timer.start()
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stderr.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = err.decode(errors="replace").strip().splitlines()
    return {"exit": proc.returncode, "timed_out": bool(fired), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024,
            "error": lines[-1][:300] if lines else ""}


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedGauge:
    """Scale factors from measured seconds to reference seconds.

    The CPU speed of a shared box drifts by tens of percent within
    minutes.  A speed probe runs before and after every spawned process,
    and the process's times are multiplied by REF_PROBE_S over the mean of
    the two probes: they read as seconds on a machine where the probe
    takes REF_PROBE_S, and the drift cancels.
    """

    def __init__(self):
        self.last = speed_probe()

    def scale(self) -> float:
        before, self.last = self.last, speed_probe()
        return 2 * REF_PROBE_S / (before + self.last)


def timed_spawn(gauge: SpeedGauge, cmd: list[str], out_path: Path, timeout: float) -> dict:
    rec = spawn(cmd, out_path, timeout)
    rec["scale"] = gauge.scale()
    rec["ref_wall_s"] = rec["wall_s"] * rec["scale"]
    rec["ref_cpu_s"] = rec["cpu_s"] * rec["scale"]
    return rec


def setup_once(gauge: SpeedGauge) -> float:
    """Reference seconds for a fresh interpreter to import the CLI and build its parser."""
    rec = timed_spawn(gauge, [sys.executable, "-c", SETUP_ENTRY], OUT / "setup.out", 60.0)
    if rec["exit"] != 0:
        raise SystemExit(f"setup spawn failed: {rec['error']}")
    return rec["ref_wall_s"]


class Checker:
    """Schema validation and pinned results hashes."""

    def __init__(self):
        with open(SCHEMA_PATH, encoding="utf-8") as fh:
            schema = json.load(fh)
        self.validator = jsonschema.Draft202012Validator(schema)
        with open(PINS_PATH, encoding="utf-8") as fh:
            self.pins = json.load(fh)

    def check(self, argv: list[str], rec: dict, out_path: Path) -> None:
        """Fill rec["hash"], rec["failed"] and rec["incorrect"]."""
        rec["hash"] = None
        rec["failed"] = rec["exit"] != 0
        rec["incorrect"] = not rec["timed_out"] and rec["exit"] not in HANDLED_EXITS
        if rec["exit"] != 0:
            return
        try:
            with open(out_path, encoding="utf-8") as fh:
                report = json.load(fh)
            self.validator.validate(report)
        except (ValueError, OSError) as exc:  # jsonschema's ValidationError is a ValueError
            rec["error"] = f"bad report: {str(exc)[:300]}"
            rec["failed"] = rec["incorrect"] = True
            return
        rec["hash"] = results_hash(report)
        pinned = self.pins.get(op_key(argv))
        if pinned is not None and pinned != rec["hash"]:
            rec["error"] = f"results hash {rec['hash']} differs from pinned {pinned}"
            rec["failed"] = rec["incorrect"] = True


def run_ops(ops: list[list[str]], checker: Checker, gauge: SpeedGauge, deadline: float,
            trace_dir: Path | None = None, label: str = "") -> list[dict]:
    """Run the ops one at a time and return their records."""
    out_path = OUT / f"op-{os.getpid()}.out"
    records = []
    for index, argv in enumerate(ops):
        if trace_dir is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            spans_path = trace_dir / f"op{index:03d}.json"
            cmd = [sys.executable, str(HERE / "trace_op.py"), str(spans_path),
                   f"{label}/{index}", *argv]
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            rec = {"exit": None, "timed_out": True, "wall_s": 0.0, "cpu_s": 0.0,
                   "scale": 1.0, "ref_wall_s": 0.0, "ref_cpu_s": 0.0, "rss_mb": 0.0,
                   "error": "not started: run deadline passed"}
        else:
            rec = timed_spawn(gauge, cmd, out_path, min(OP_TIMEOUT_S, remaining))
        checker.check(argv, rec, out_path)
        records.append({"argv": argv, **rec})
    return records


def run_untraced(ops: list[list[str]], checker: Checker, gauge: SpeedGauge,
                 deadline: float) -> tuple[list[dict], list[float]]:
    """Run the ops with a set-up spawn before each of SETUP_SPAWNS equal
    chunks, so that set-up is sampled across the whole run."""
    records, setups = [], []
    step = -(-len(ops) // SETUP_SPAWNS)
    for first in range(0, len(ops), step):
        setups.append(setup_once(gauge))
        records += run_ops(ops[first:first + step], checker, gauge, deadline)
    return records, setups


def total_wall(records: list[dict]) -> float:
    """Reference seconds the ops took from spawn to exit, without the client's checks."""
    return sum(r["ref_wall_s"] for r in records)


def tail_latency(walls: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile that leaves at least ten ops above it."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(records: list[dict], setups: list[float]) -> tuple[dict, float]:
    walls = [r["ref_wall_s"] for r in records]
    failed = sum(r["failed"] for r in records)
    tail, pct = tail_latency(walls)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": total_wall(records),
        "cpu_s": sum(r["ref_cpu_s"] for r in records),
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        # the rule of succession: (failed + 1) / (attempted + 1) is never 0,
        # so a first new failure reads as a relative change
        "fail_rate": (failed + 1) / (len(records) + 1),
    }, pct


def twin_mismatch(ops: list[list[str]], records: list[dict]) -> str:
    by_key = {op_key(a): r for a, r in zip(ops, records)}
    workers = by_key.get(op_key(workloads.WORKERS_ANCHOR))
    serial = by_key.get(op_key(workloads.SERIAL_TWIN))
    if workers is None or serial is None:
        return ""
    if workers["hash"] != serial["hash"]:
        return f"--workers 2 results {workers['hash']} != serial {serial['hash']}"
    return ""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op list size in seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cantorapprox" / "cli.py").is_file():
        print(f"error: no cantorapprox sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    checker = Checker()
    ops = workloads.op_list(args.workload, args.seed, seconds)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    extra = {}
    if not args.trace:
        records, setups = run_untraced(ops, checker, SpeedGauge(), deadline)
        metrics, pct = end_to_end(records, setups)
        problems = [f"{op_key(r['argv'])}: {r['error']}" for r in records if r["incorrect"]]
        problems += filter(None, [twin_mismatch(ops, records)])
        names = spec["end_to_end"]
    else:
        gauge = SpeedGauge()
        records = run_ops(ops, checker, gauge, deadline)
        trace_dir = OUT / f"{stem}-spans"
        trace_dir.mkdir(exist_ok=True)
        for old in trace_dir.glob("op*.json"):
            old.unlink()
        traced = run_ops(ops, checker, gauge, deadline, trace_dir, stem)
        metrics = spans.layer_metrics(trace_dir, [r["scale"] for r in traced])
        metrics["trace_overhead"] = total_wall(traced) / total_wall(records)
        problems = [f"{op_key(r['argv'])}: {r['error']}" for r in records + traced
                    if r["incorrect"]]
        problems += [f"{op_key(u['argv'])}: traced results differ from untraced"
                     for u, t in zip(records, traced)
                     if (u["exit"], u["hash"]) != (t["exit"], t["hash"])]
        problems += filter(None, [twin_mismatch(ops, records)])
        for u, t in zip(records, traced):
            u["failed"] = u["failed"] or t["failed"]
        names = spec["per_layer"]
        extra = {"traced_ops": traced}

    with open(OUT / f"{stem}{'-trace' if args.trace else ''}.ops.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                   "ops": records, **extra}, fh, indent=1)
    failed = sum(r["failed"] for r in records)
    for r in records:
        if r["failed"]:
            print(f"failed: {op_key(r['argv'])}: exit {r['exit']}: {r['error'][:200]}")
    for p in problems:
        print(f"incorrect: {p}")
    if args.trace:
        print("note: per-layer numbers of --workers ops cover the parent process only")
    else:
        print(f"ops: {len(records)} attempted, {failed} failed; "
              f"op_s.tail is p{pct:.1f} of {len(records)} ops")
    out = {}
    for m in names:
        out[m["name"]] = {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
        print(f"{m['name']:<48} {out[m['name']]['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
