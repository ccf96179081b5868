#!/usr/bin/env python3
"""Pin result digests for the benchmark's cases.

    python3 bench/pin.py

Solves every case of every workload for each seed in ``oracle.PINNED_SEEDS``
and writes ``problem digest -> result digest`` to ``bench/pins.json`` for
each case with no known defect that finishes and verifies.  The pins were taken on the commit
that added the benchmark; a later change must reproduce them byte for
byte, so do not re-pin to make a changed document pass.
"""

from __future__ import annotations

import json
import signal
import sys

import oracle
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    cx = run.import_coxlift()
    pins = {}
    for workload in workloads.WORKLOADS:
        limit = run.CASE_LIMIT_S[workload]
        for seed in oracle.PINNED_SEEDS:
            for case in workloads.generate(workload, seed):
                if case["defect"]:
                    continue
                status, doc, _ = run.run_limited(lambda: run.solve(cx, case), limit)
                if status == "ok" and doc["verification"]["passed"]:
                    pins[workloads.problem_digest(case["problem"])] = oracle.result_digest(doc)
            print(f"{workload} seed {seed}: {len(pins)} pins", flush=True)
    with open(oracle.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
