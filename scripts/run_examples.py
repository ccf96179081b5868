#!/usr/bin/env python3
"""Run every bundled problem end to end and print the human-readable logs.

Usage: python scripts/run_examples.py [--json]
"""

import argparse
import sys
from pathlib import Path

from coxlift.cli import run_document
from coxlift.serialize import human_log, load_document, result_json

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", action="store_true", help="print JSON instead of human logs")
    args = ap.parse_args()
    failures = 0
    for path in sorted(PROBLEMS.glob("*.json")):
        print("=" * 72)
        print(path.name)
        print("=" * 72)
        try:
            doc = run_document(load_document(path))
            print(result_json(doc) if args.json else human_log(doc))
            if not doc["verification"]["passed"]:
                failures += 1
        except Exception as exc:  # keep going so every example reports
            print(f"FAILED: {type(exc).__name__}: {exc}")
            failures += 1
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
