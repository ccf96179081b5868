#!/usr/bin/env python3
"""Decompose every random root tower of the bench's shapes and factor the
results against their inputs.

    python3 scripts/tower_sweep.py

Builds the 96 towers of 2-4 generators, 3-6 steps and tower seeds 0-7
with ``bench/workloads.random_tower`` and ``tower_document`` (base
generators not relabelled), and runs ``decompose_as_roots`` on each under
a 4 s limit.  Per tower it prints the status, the seconds taken, the
SHA-256 of the emitted result document as ``result_json`` writes it, and
three ``check_factors_through`` outcomes (``Theta``, ``NoFactor``,
``timeout`` or ``error:<exception>``), each under the same limit:

  parsed   result -> the parsed input stack, read as a lift of the target
  to_nat   result -> the input tower replayed natively with root_divisor
           and root_line_bundle, read the same way
  from_nat that native stack -> result

A stack is read as a lift by ``tests/helpers.stack_as_lift``: identity
images and the identity on Pic.
The summary gives the status counts, how many input rings and result
rings are confluent (``GradedRing.nonjoinable_pair()`` is None, not part
of the rows), the slowest tower that finishes, the count of each
factoring outcome over the towers that finish, the slowest factoring
call, and one SHA-256 over the rows in sweep order, each
row ``name status digest-or-"-" parsed=... to_nat=... from_nat=...``
without the seconds, joined by newlines; two checkouts sweep alike iff
their rows digests agree.  The checkout's own ``src`` is imported, so the
script measures the commit it sits in.
"""

from __future__ import annotations

import hashlib
import random
import signal
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from coxlift.lift import Theta, check_factors_through, decompose_as_roots  # noqa: E402
from coxlift.serialize import emit_result, parse_decompose, result_json  # noqa: E402
from helpers import stack_as_lift, tower_over  # noqa: E402
from run import _on_alarm, run_limited  # noqa: E402
from workloads import random_tower, tower_document  # noqa: E402

LIMIT = 4.0  # seconds per call
SEEDS = range(8)


def factor_outcome(result, candidate):
    status, value, secs = run_limited(lambda: check_factors_through(result, candidate), LIMIT)
    if status != "ok":
        return status, secs
    return ("Theta" if isinstance(value, Theta) else "NoFactor"), secs


def sweep_one(ngens, nsteps, seed):
    name = f"T{ngens}g{nsteps}s#{seed}"
    steps = random_tower(random.Random(seed), ngens, nsteps)
    spec = parse_decompose(tower_document(name, ngens, steps))
    status, result, secs = run_limited(
        lambda: decompose_as_roots(spec.stack, spec.options), LIMIT)
    row = {"name": name, "status": status, "seconds": secs,
           "confluent": [spec.stack.cox_ring.nonjoinable_pair() is None]}
    if status != "ok":
        return row
    row["confluent"].append(result.stack.cox_ring.nonjoinable_pair() is None)
    doc = emit_result(spec.name, result, spec.order)
    failed = [c["name"] for c in doc["verification"]["checks"] if not c["passed"]]
    row["status"] = "failed:" + ",".join(failed) if failed else "ok"
    row["sha256"] = hashlib.sha256(result_json(doc).encode()).hexdigest()
    native = stack_as_lift(result, tower_over(spec.stack.coarse.ring, steps))
    row["checks"] = {
        "parsed": factor_outcome(result, stack_as_lift(result, spec.stack)),
        "to_nat": factor_outcome(result, native),
        "from_nat": factor_outcome(native, result),
    }
    return row


def row_text(row) -> str:
    """The row as the rows digest reads it: everything but the seconds."""
    checks = row.get("checks", {})
    return " ".join([row["name"], row["status"], row.get("sha256", "-")]
                    + [f"{k}={v[0]}" for k, v in checks.items()])


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    rows = []
    for nsteps in range(3, 7):
        for ngens in range(2, 5):
            for seed in SEEDS:
                row = sweep_one(ngens, nsteps, seed)
                rows.append(row)
                checks = row.get("checks", {})
                print(f"{row['name']:<10} {row['status']:<22} {row['seconds']:7.3f}s "
                      f"{row.get('sha256', '-'):<64} "
                      + " ".join(f"{k}={v[0]}" for k, v in checks.items()), flush=True)
    finished = [r for r in rows if "checks" in r]
    print()
    print("statuses:", dict(sorted(Counter(r["status"] for r in rows).items())))
    results = [r["confluent"][1] for r in rows if len(r["confluent"]) > 1]
    print(f"confluent rings: input {sum(r['confluent'][0] for r in rows)}/{len(rows)}, "
          f"result {sum(results)}/{len(results)}")
    if finished:
        slowest = max(finished, key=lambda r: r["seconds"])
        print(f"slowest finishing tower: {slowest['name']} {slowest['status']} "
              f"{slowest['seconds']:.3f}s")
    for key in ("parsed", "to_nat", "from_nat"):
        counts = Counter(r["checks"][key][0] for r in finished)
        print(f"{key} over {len(finished)} finishing towers:", dict(sorted(counts.items())))
    calls = [(v[1], r["name"], k) for r in finished for k, v in r["checks"].items()]
    if calls:
        secs, name, key = max(calls)
        print(f"slowest check_factors_through: {name} {key} {secs:.3f}s")
    digest = hashlib.sha256("\n".join(map(row_text, rows)).encode()).hexdigest()
    print("rows sha256:", digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
