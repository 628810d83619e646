"""Pin the results hashes of the default-seed op lists.

    python3 perfbench/run.py --workload W      # for each workload, default seed
    python3 perfbench/pin.py

Reads each workload's `.perfbench-out/<workload>-seed<default>.ops.json` and
writes `pinned_results.json`: argv joined by spaces -> sha256 of the
canonical `results` JSON, or null for an op that did not exit 0 (a known
failure, whose outcome is counted in `failed` but has no results to pin).
Pin only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    seconds = run.load_spec()["run_seconds"]
    pins = {}
    for workload in workloads.WORKLOADS:
        path = run.OUT / f"{workload}-seed{workloads.DEFAULT_SEED}.ops.json"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        expected = workloads.op_list(workload, workloads.DEFAULT_SEED, seconds)
        if [r["argv"] for r in doc["ops"]] != expected:
            print(f"error: {path} is not the default op list at --seconds {seconds}",
                  file=sys.stderr)
            return 2
        for record in doc["ops"]:
            pins[run.op_key(record["argv"])] = record["hash"] if record["exit"] == 0 else None
    with open(run.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} ops, {sum(v is None for v in pins.values())} known failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
