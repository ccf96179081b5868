#!/usr/bin/env python3
"""Profile one warm pass of a benchmark workload's non-defect cases.

    python3 scripts/pass_profile.py --workload scrambled --seed 11 [--verify]

Generates the workload's cases with ``bench/workloads.py`` and solves every
case without a known defect once, untraced, so imports and lazy set-up are
done.  It then solves them again under ``cProfile``; with ``--verify`` each
lift document is also re-verified, through ``bench/run.py``'s ``reverify``,
inside the profiled pass.  It prints the 25 functions with the most self time,
the 25 ``coxlift`` functions with the most cumulative time (a cost spread
thinly over many callees shows only there), and the share of self time in
each ``coxlift`` module.  The bench files
are imported, not changed, and the checkout's own ``src`` is imported, so
the script measures the commit it sits in.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads  # noqa: E402

TOP = 25  # functions listed by self time, and by cumulative time


def _in_coxlift(path) -> bool:
    parts = Path(path).parts
    return len(parts) >= 2 and parts[-2] == "coxlift"


def one_pass(cx, cases, verify):
    for case in cases:
        doc = run.solve(cx, case)
        if verify and case["kind"] == "lift":
            run.reverify(cx, case, doc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--verify", action="store_true",
                    help="re-verify each lift document inside the profiled pass")
    args = ap.parse_args(argv)

    cx = run.import_coxlift()
    cases = [c for c in workloads.generate(args.workload, args.seed) if not c["defect"]]
    one_pass(cx, cases, args.verify)  # warm: imports, caches, lazy set-up
    profile = cProfile.Profile()
    profile.runcall(one_pass, cx, cases, args.verify)

    stats = pstats.Stats(profile)
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    print(f"{len(cases)} cases, {total:.3f} s self time under cProfile")
    print(f"{'self_s':>8} {'share':>6} {'calls':>9}  function")
    for (path, line, name), (_, calls, tt, _, _) in rows[:TOP]:
        print(f"{tt:8.3f} {tt / total:6.1%} {calls:9d}  {Path(path).name}:{line}({name})")

    cumulative = sorted(((key, v) for key, v in stats.stats.items() if _in_coxlift(key[0])),
                        key=lambda kv: kv[1][3], reverse=True)
    print("\ncumulative time, coxlift functions")
    print(f"{'cum_s':>8} {'share':>6} {'calls':>9}  function")
    for (path, line, name), (_, calls, _, ct, _) in cumulative[:TOP]:
        print(f"{ct:8.3f} {ct / total:6.1%} {calls:9d}  {Path(path).name}:{line}({name})")

    modules = defaultdict(float)
    for (path, _, _), (_, _, tt, _, _) in stats.stats.items():
        inside = _in_coxlift(path)
        modules[f"coxlift.{Path(path).stem}" if inside else "(outside coxlift)"] += tt
    print("\nself time per module")
    for name, tt in sorted(modules.items(), key=lambda kv: kv[1], reverse=True):
        print(f"{tt:8.3f} {tt / total:6.1%}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
