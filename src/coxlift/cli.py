"""Batch command line front-end.

Commands: lift, verify, decompose, factor, snf.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 internal invariant violation.
stdout carries the human/JSON logs, stderr the diagnostics.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abgroup import FgAbelianGroup
from .errors import (
    CoxliftError,
    InputDataError,
    InternalInvariantError,
)
from .gring import DEFAULT_STEP_CAP
from .lift import (
    CoxLiftResult,
    LiftOptions,
    decompose_as_roots,
    run_cox_lift,
    verify_lift,
)
from .serialize import (
    RESULT_SCHEMA,
    emit_result,
    emit_verification,
    human_log,
    integer_rows,
    load_document,
    parse_decompose,
    parse_element,
    parse_problem,
    read_result,
    result_json,
)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="coxlift",
        description="Exact Cox-ring lifts, root towers and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON result to this path")
        p.add_argument(
            "--log",
            choices=["human", "json", "both"],
            default="both",
            help="what to print on stdout (default both)",
        )
        p.add_argument("--step-cap", type=int, default=None,
                       help=f"rewrite step cap (default {DEFAULT_STEP_CAP})")
        p.add_argument("--spotcheck-bound", type=int, default=None,
                       help="bound for the factorization spot check "
                            f"(default {LiftOptions().spotcheck_bound})")

    p = sub.add_parser("lift", help="compute the Cox lift of a problem file")
    p.add_argument("problem")
    common(p)

    p = sub.add_parser("verify", help="re-verify a result document against its problem")
    p.add_argument("problem")
    p.add_argument("result")
    common(p)

    p = sub.add_parser("decompose", help="present a stack as roots over its canonical stack")
    p.add_argument("problem")
    common(p)

    p = sub.add_parser("factor", help="h-factorize one element of the source ring")
    p.add_argument("problem")
    p.add_argument("--element", required=True, help="element JSON, e.g. '{\"terms\":[{\"m\":{\"t\":1}}]}'")

    p = sub.add_parser("snf", help="canonical form of an integer relation matrix")
    p.add_argument("--matrix", required=True, help="JSON rows, e.g. '[[2]]'")
    p.add_argument("--ambient-rank", type=int, default=None,
                   help="ambient rank when the matrix has no rows")
    return ap


def run_document(raw: dict) -> dict:
    """Parse a lift or decompose document, run it (with its built-in
    verification) and return the result document."""
    if "decompose" in raw:
        spec = parse_decompose(raw)
        result = decompose_as_roots(spec.stack, spec.options)
        return emit_result(spec.name, result, spec.order)
    spec = parse_problem(raw)
    result = run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)
    return emit_result(spec.name, result, spec.order, spec.assertions)


def _deliver(doc: dict, args, human: str) -> None:
    text = result_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.log in ("human", "both"):
        print(human)
    if args.log in ("json", "both"):
        print(text)


def _cmd_run(args) -> int:
    """The lift and decompose commands."""
    raw = load_document(args.problem, args.step_cap, args.spotcheck_bound)
    if ("decompose" in raw) != (args.command == "decompose"):
        raise InputDataError(f"{args.problem} is not a {args.command} document")
    doc = run_document(raw)
    _deliver(doc, args, human_log(doc))
    return 0 if doc["verification"]["passed"] else 1


def _cmd_verify(args) -> int:
    spec = parse_problem(load_document(args.problem, args.step_cap, args.spotcheck_bound))
    stack, images, group_map = read_result(spec, args.result)
    provided = CoxLiftResult(
        target=spec.target,
        base=spec.base,
        source_stack=spec.source_stack,
        stack=stack,
        images=images,
        group_map=group_map,
    )
    report = verify_lift(spec.target, spec.source_stack, spec.base, provided,
                         spotcheck_bound=spec.options.spotcheck_bound)
    out = {
        "schema": RESULT_SCHEMA,
        "problem": spec.name,
        "verification": emit_verification(report),
    }
    human = "\n".join(
        f"[{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in report.checks
    )
    _deliver(out, args, human)
    return 0 if report.passed else 1


def _cmd_factor(args) -> int:
    spec = parse_problem(load_document(args.problem))
    ring = spec.source_stack.cox_ring
    element = ring.normal_form(parse_element(json.loads(args.element), spec.order))
    fact = ring.h_factorize(element)
    print(result_json({
        "element": element.key(),
        "unit": fact.unit.as_string(),
        "factors": [[f.key(), e] for f, e in fact.factors],
    }))
    return 0


def _cmd_snf(args) -> int:
    rows = integer_rows(json.loads(args.matrix), "matrix")
    ncols = args.ambient_rank if not rows else len(rows[0])
    if ncols is None:
        raise InputDataError("empty matrix needs --ambient-rank")
    G = FgAbelianGroup(ncols, rows)
    print(G.describe())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "lift": _cmd_run,
        "verify": _cmd_verify,
        "decompose": _cmd_run,
        "factor": _cmd_factor,
        "snf": _cmd_snf,
    }
    try:
        return handlers[args.command](args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (CoxliftError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
