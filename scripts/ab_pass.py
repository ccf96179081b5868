#!/usr/bin/env python3
"""Alternating A/B timing of warm benchmark passes in two checkouts.

    python3 scripts/ab_pass.py PARENT_DIR CHANGE_DIR --workload deep \\
        [--seed 11] [--rounds 6] [--passes 3]

Each round starts one process per checkout, the parent first in even
rounds and the change first in odd ones.  A process imports that
checkout's ``src`` and ``bench`` (read-only, as ``scripts/pass_profile.py``
does), generates the workload's cases and keeps those without a known
defect.  After one untimed warm pass it runs ``--passes`` passes of
``bench/run.py``'s ``run_pass`` under the workload's case limit, and keeps
each pass's ``solve_s`` and ``verify_s``: the benchmark's own timing,
scaled by its speed probes.  The script prints, for both metrics, each
side's median pass time over all rounds, the change in %, how many rounds
each side's median won, and each side's count of rows that did not read
``ok`` (a timeout, an error or a failed check).  A round has no
``--seconds`` budget and no set-up repeats, so it takes a fraction of the
time of a ``scripts/bench_pairs.py`` pair and suits quick checks; claims
still come from ``bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

METRICS = ("solve_s", "verify_s")


def worker(checkout: Path, workload: str, seed: int, passes: int) -> dict:
    """Per-pass times in one process, importing the checkout's own code."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import run
    import workloads

    signal.signal(signal.SIGALRM, run._on_alarm)  # as run.main: a case limit raises
    cx = run.import_coxlift()
    cases = [c for c in workloads.generate(workload, seed) if not c["defect"]]
    limit = run.CASE_LIMIT_S[workload]
    run.run_pass(cx, cases, limit)  # warm: imports, caches, lazy set-up
    results = [run.run_pass(cx, cases, limit) for _ in range(passes)]
    out = {m: [r[m] for r in results] for m in METRICS}
    out["not_ok"] = sum(row["status"] != "ok" or row.get("reverify", "ok") != "ok"
                        for r in results for row in r["rows"])
    return out


def run_side(checkout: Path, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
           str(checkout), "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(args.passes)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.parent.resolve(), args.workload, args.seed, args.passes)))
        return 0
    if args.change is None:
        ap.error("CHANGE_DIR is required")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rounds = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rounds[side].append(run_side(sides[side], args))
        print(f"round {i + 1}/{args.rounds} done", file=sys.stderr)

    print(f"{args.workload}/{args.seed}: {args.rounds} rounds x {args.passes} passes")
    print(f"{'metric':<9} {'parent':>9} {'change':>9} {'delta':>8}  rounds won p/c")
    for m in METRICS:
        p = median(t for r in rounds["parent"] for t in r[m])
        c = median(t for r in rounds["change"] for t in r[m])
        per = [(median(a[m]), median(b[m])) for a, b in zip(rounds["parent"], rounds["change"])]
        won_p = sum(a < b for a, b in per)
        won_c = sum(b < a for a, b in per)
        delta = f"{(c - p) / p:+.1%}" if p else "n/a"
        print(f"{m:<9} {p:9.4f} {c:9.4f} {delta:>8}  {won_p:>4}/{won_c}")
    print("rows not ok: " + ", ".join(
        f"{side} {sum(r['not_ok'] for r in rounds[side])}" for side in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
