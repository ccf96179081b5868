#!/usr/bin/env python3
"""Time one decomposition of the chain x1 rooted by 5, 5, 3, 2.

    python3 scripts/chain_time.py

Builds the decompose document of the 2-generator tower that roots x1 of
order 5, that root of order 5, then 3, then 2 (Pic Z/150), with
``bench/workloads.tower_document``, and runs ``decompose_as_roots`` on it
once.  It prints the seconds the call took, the seconds spent inside
``pic_level_generators``, inside the base check
``_Engine._spotcheck_base_relations`` and inside ``verify_lift``, each
with its number of calls, the status (``ok``, or ``failed:`` and the
failed verification checks, as ``scripts/tower_sweep.py`` reads them) and
the SHA-256 of the emitted result document as ``result_json`` writes it.
The checkout's own ``src`` is imported, so the script measures the commit
it sits in.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from coxlift import lift  # noqa: E402
from coxlift.serialize import emit_result, parse_decompose, result_json  # noqa: E402
from workloads import tower_document  # noqa: E402

STEPS = [("divisor", "x1", 5, "r1"), ("divisor", "r1", 5, "r2"),
         ("divisor", "r2", 3, "r3"), ("divisor", "r3", 2, "r4")]


def _timed(owner, name, spent):
    """Wrap owner.name so that each call adds its seconds and a count to spent."""
    inner = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start
            spent[1] += 1

    setattr(owner, name, timed)
    return inner


def main() -> int:
    spec = parse_decompose(tower_document("chain150", 2, STEPS))
    keys_spent, check_spent, verify_spent = [0.0, 0], [0.0, 0], [0.0, 0]
    enumerate_keys = _timed(lift, "pic_level_generators", keys_spent)
    base_check = _timed(lift._Engine, "_spotcheck_base_relations", check_spent)
    verify = _timed(lift, "verify_lift", verify_spent)
    try:
        start = time.perf_counter()
        result = lift.decompose_as_roots(spec.stack, spec.options)
        total = time.perf_counter() - start
    finally:
        lift.pic_level_generators = enumerate_keys
        lift._Engine._spotcheck_base_relations = base_check
        lift.verify_lift = verify
    doc = emit_result(spec.name, result, spec.order)
    failed = [c["name"] for c in doc["verification"]["checks"] if not c["passed"]]
    print(f"total_s: {total:.3f}")
    print(f"pic_level_generators_s: {keys_spent[0]:.3f} ({keys_spent[1]} calls)")
    print(f"base_check_s: {check_spent[0]:.3f} ({check_spent[1]} calls)")
    print(f"verify_lift_s: {verify_spent[0]:.3f} ({verify_spent[1]} calls)")
    print("status:", "failed:" + ",".join(failed) if failed else "ok")
    print("sha256:", hashlib.sha256(result_json(doc).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
