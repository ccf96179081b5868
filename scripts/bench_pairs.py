#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload wide \\
        --seed 11 --pairs 10 --seconds 25 --out BENCH_7.json

PARENT_DIR and CHANGE_DIR are checkouts of the two commits.  Each pair runs
the benchmark command of ``BENCHMARK.json`` (``--trace 0``) once in each
checkout; the first pair starts with the parent and later pairs alternate.
For every end-to-end metric of ``BENCHMARK.json`` the record gives each
side's runs, median and quartiles, how many pairs each side won (ties
count for neither), and whether the medians differ by more than the
parent's quartile spread; it also prints that summary, one row per metric.
The record also keeps each side's ``src_lines``, and
per run ``correct``, ``failed``, and from the context line the number of
timed ``passes`` and the unscaled ``raw_solve_s``: ``peak_rss_mb`` grows
with the number of passes, so a memory change reads against them.  The
record is stored under "<workload>/<seed>" in ``--out``; records already
in that file are kept.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run_once(checkout: Path, command, workload, seed, seconds) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    *_, context_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    context = json.loads(context_line)["context"]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "src_lines": context["src_lines"],
        "passes": context["passes"],
        "raw_solve_s": context["raw_solve_s"],
    }


def summarize(parent_runs, change_runs, end_to_end) -> dict:
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = -1 if spec["better"] == "lower" else 1
        p = [r["metrics"][name] for r in parent_runs]
        c = [r["metrics"][name] for r in change_runs]
        p_q1, _, p_q3 = quantiles(p, n=4, method="inclusive")
        c_q1, _, c_q3 = quantiles(c, n=4, method="inclusive")
        gain = sign * (median(c) - median(p))
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": {"runs": p, "median": median(p), "quartiles": [p_q1, p_q3]},
            "change": {"runs": c, "median": median(c), "quartiles": [c_q1, c_q3]},
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "parent_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "gain_beyond_parent_spread": gain > p_q3 - p_q1,
        }
    return metrics


def summary_rows(metrics) -> list:
    """One line per metric: both medians, the change in %, wins per side and
    whether the gap is past the parent's spread."""
    rows = [f"{'metric':<15} {'parent':>10} {'change':>10} {'delta':>8}  wins p/c  past spread"]
    for name, m in metrics.items():
        p, c = m["parent"]["median"], m["change"]["median"]
        delta = f"{(c - p) / p:+.1%}" if p else "n/a"
        rows.append(f"{name:<15} {p:10.4g} {c:10.4g} {delta:>8}  "
                    f"{m['parent_wins']:>4}/{m['change_wins']:<4} "
                    f"{'yes' if m['gain_beyond_parent_spread'] else 'no'}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], spec["command"], args.workload,
                                       args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "src_lines": {s: runs[s][0]["src_lines"] for s in sides},
        "correct": {s: [r["correct"] for r in runs[s]] for s in sides},
        "failed": {s: [r["failed"] for r in runs[s]] for s in sides},
        "passes": {s: [r["passes"] for r in runs[s]] for s in sides},
        "raw_solve_s": {s: [r["raw_solve_s"] for r in runs[s]] for s in sides},
        "metrics": summarize(runs["parent"], runs["change"], spec["end_to_end"]),
    }
    book = json.loads(args.out.read_text()) if args.out.exists() else {}
    book[f"{args.workload}/{args.seed}"] = record
    args.out.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}/{args.seed}, {args.pairs} pairs")
    print("\n".join(summary_rows(record["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
