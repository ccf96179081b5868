#!/usr/bin/env python3
"""The coxlift benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload wide --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Set-up imports ``coxlift`` from ``src/``
and generates the workload's problems from the seed, 11 times, and
reports the median as ``setup_s``.  Then passes over the cases with no
known defect run for as long as another pass fits in ``--seconds``.  The
cases with a known defect run once after that, outside the timed metrics.  A pass solves every case (parse -> lift
or decompose -> built-in verification -> emit) under a per-case time
limit, and re-verifies every emitted lift document the way ``coxlift
verify`` does.  Every time is scaled to a nominal machine speed by a
reference task timed between the cases (speed.py).  Every case is checked
against its pinned digest and its family oracle.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics.  The line before it holds the run context and every
case's status.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Per-case time limits, far from every case's finishing time on the seed
# commit.  On deep, scrambled and decompose every case finishes within
# about 1 s, or runs for 10 s (decompose T4g6s#1) or more than 20 s.
# wide has no hanging case and its largest case takes about 2 s.
CASE_LIMIT_S = {"wide": 15.0, "deep": 3.0, "scrambled": 3.0, "decompose": 3.0}
SETUP_REPEATS = 11
# An untraced pass re-verifies each lift document until this long has gone
# and counts the median repeat, so a verification of a few milliseconds is
# more than one sample.  A traced pass verifies once, so its call counts
# repeat.
VERIFY_SAMPLE_S = 0.1
SUBMODULES = ("abgroup", "cyclo", "gring", "mdstack", "lift", "serialize")


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


@contextmanager
def time_limit(seconds):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Modules:
    """The imported ``coxlift`` submodules.  Functions are looked up on the
    module at call time, so the tracer's patches take effect."""

    def __init__(self):
        for name in SUBMODULES:
            setattr(self, name, sys.modules[f"coxlift.{name}"])


def import_coxlift():
    for name in [m for m in sys.modules if m == "coxlift" or m.startswith("coxlift.")]:
        del sys.modules[name]
    importlib.import_module("coxlift")
    for name in SUBMODULES:
        importlib.import_module(f"coxlift.{name}")
    return Modules()


def setup(workload, seed):
    """Import and generate SETUP_REPEATS times; returns (modules, cases,
    times at the nominal speed, digests).  Speed probes run between the
    repetitions, and the mean of them scales every repetition."""
    times, digests = [], []
    probes = [speed.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cx = import_coxlift()
        cases = workloads.generate(workload, seed)
        shas = [workloads.problem_digest(c["problem"]) for c in cases]
        times.append(time.perf_counter() - t0)
        digests.append(shas)
        probes.append(speed.probe())
    factor = speed.factor(probes)
    return cx, cases, [t * factor for t in times], digests


# ---------------------------------------------------------------------------
# one case


def solve(cx, case):
    """parse -> lift (or decompose) -> built-in verification -> emit."""
    if case["kind"] == "decompose":
        spec = cx.serialize.parse_decompose(case["problem"])
        result = cx.lift.decompose_as_roots(spec.stack, spec.options)
        return cx.serialize.emit_result(spec.name, result, spec.order)
    spec = cx.serialize.parse_problem(case["problem"])
    result = cx.lift.run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)
    return cx.serialize.emit_result(spec.name, result, spec.order, spec.assertions)


def reverify(cx, case, doc):
    """What ``coxlift verify`` does: parse, replay the tower, run the lift checks."""
    spec = cx.serialize.parse_problem(case["problem"])
    stack = cx.serialize.replay_result(spec, doc)
    ring = stack.cox_ring
    images = {
        name: ring.normal_form(cx.serialize.parse_element(el, spec.order))
        for name, el in doc["images"].items()
    }
    group_map = cx.abgroup.GroupHomomorphism(
        spec.target.cl, stack.pic, [stack.pic.element(c) for c in doc["group_map"]]
    )
    provided = cx.lift.CoxLiftResult(
        target=spec.target, base=spec.base, source_stack=spec.source_stack,
        stack=stack, images=images, group_map=group_map, table={}, steps=(),
        verification=cx.lift.VerificationReport(()),
    )
    report = cx.lift.verify_lift(spec.target, spec.source_stack, spec.base, provided,
                                 spotcheck_bound=spec.options.spotcheck_bound)
    return report.passed


def run_limited(fn, limit, tracer=None):
    """(status, value, seconds) of fn() under a time limit."""
    t0 = time.perf_counter()
    try:
        with time_limit(limit):
            value = fn()
        status = "ok"
    except CaseTimeout:
        value, status = None, "timeout"
    except Exception as exc:  # a crash in one case is data, not the end of the run
        traceback.print_exc(file=sys.stderr)
        value, status = None, f"error:{type(exc).__name__}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close_open(time.perf_counter())
    return status, value, elapsed


# ---------------------------------------------------------------------------
# passes


def run_pass(cx, cases, limit, tracer=None):
    """Solve every case, and re-verify each emitted lift document right
    after its case.  Interleaving spreads the verifications over the whole
    pass, so they meet the same changes in machine speed as the solves.
    ``verify_s`` sums each document's median verification time.

    A speed probe runs before the first case and after each one, and the
    pass's times are scaled to the nominal speed by the mean of its probes
    (see speed.py).  ``raw_solve_s`` is the unscaled wall time.
    """
    gc.collect()  # start each pass without the previous pass's garbage
    rows = []
    verify = []
    probes = [speed.probe()]
    for case in cases:
        status, doc, secs = run_limited(lambda: solve(cx, case), limit, tracer)
        if status == "ok" and not doc["verification"]["passed"]:
            failed = [c["name"] for c in doc["verification"]["checks"] if not c["passed"]]
            status = "failed:" + ",".join(failed)
        row = {"status": status, "doc": doc, "raw_seconds": secs}
        if doc is not None and case["kind"] == "lift":
            times = []
            while not times or (tracer is None and sum(times) < VERIFY_SAMPLE_S):
                status, passed, vsecs = run_limited(lambda: reverify(cx, case, doc), limit, tracer)
                times.append(vsecs)
                if status != "ok" or not passed:
                    break
            row["reverify"] = status if status != "ok" else ("ok" if passed else "failed")
            verify.append(median(times))
        probes.append(speed.probe())
        rows.append(row)
    factor = speed.factor(probes)
    for row in rows:
        row["seconds"] = row["raw_seconds"] * factor
    raw_solve_s = sum(r["raw_seconds"] for r in rows)
    return {"rows": rows, "solve_s": raw_solve_s * factor, "verify_s": sum(verify) * factor,
            "raw_solve_s": raw_solve_s,
            "slowest_case_s": max((r["seconds"] for r in rows), default=0.0)}


class Checker:
    """Applies the three correctness checks; remembers each case's first document."""

    def __init__(self, cx, cases, shas):
        self.cx = cx
        self.cases = cases
        self.shas = shas
        self.pins = oracle.load_pins()
        self.first = {}
        self.references = {}

    def _oracle(self, case, doc):
        info = case["oracle"]
        family = info["family"]
        if family == "A":
            return oracle.oracle_cyclic(doc, info)
        if family == "S":
            return oracle.oracle_mu_p(doc, info)
        if family == "scrambled":
            return oracle.oracle_scrambled(doc, self._reference(info))
        if family == "tower":
            return oracle.oracle_tower(doc, case["problem"], self.cx)
        return None

    def _reference(self, info):
        key = tuple(info["invariants"])
        if key not in self.references:
            ref = workloads.scrambled_problem("reference", key, len(key), 0, None)
            self.references[key] = solve(self.cx, {"kind": "lift", "problem": ref})
        return self.references[key]

    def check(self, i, row):
        """Final status of case i in one pass, after the correctness checks."""
        case, doc, status = self.cases[i], row["doc"], row["status"]
        reverify = row.get("reverify", "ok")
        if status == "ok" and reverify != "ok":
            return "failed:reverify" if reverify == "failed" else reverify
        if doc is None:
            return status
        digest = oracle.result_digest(doc)
        if i in self.first:
            return status if self.first[i] == digest else "failed:determinism"
        self.first[i] = digest
        if status != "ok":
            return status
        if oracle.check_digest(self.pins, self.shas[i], doc):
            return "failed:digest"
        reason = self._oracle(case, doc)
        if reason:
            print(f"oracle: {case['name']}: {reason}", file=sys.stderr)
            return "failed:oracle"
        return status


WRONG_ANSWER = ("failed:digest", "failed:oracle", "failed:reverify", "failed:determinism")


def summarize(runs):
    """(attempted, failed, correct) over every case run, given as (case, status).

    ``failed`` counts case runs that did not finish ok, except a known
    defect ending with its recorded status, which counts only against
    solved_frac.  ``correct`` is false when a result was wrong.
    """
    attempted = failed = 0
    correct = True
    for case, s in runs:
        attempted += 1
        expected = case["defect"] and case["defect"]["status"]
        if s not in ("ok", expected):
            failed += 1
        if s in WRONG_ANSWER:
            correct = False
    return attempted, failed, correct


# ---------------------------------------------------------------------------
# context


def src_lines():
    total = 0
    for path in sorted((SRC / "coxlift").glob("*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def commit():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coxlift" / "__init__.py").is_file():
        print(f"error: no coxlift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    cx, cases, setup_times, digests = setup(args.workload, args.seed)
    shas = digests[0]
    deterministic = all(d == shas for d in digests)
    checker = Checker(cx, cases, shas)
    limit = CASE_LIMIT_S[args.workload]
    known = [i for i, c in enumerate(cases) if c["defect"]]
    timed = [i for i, c in enumerate(cases) if not c["defect"]]
    timed_cases = [cases[i] for i in timed]

    known_cases = [cases[i] for i in known]

    start = time.perf_counter()
    untraced, traced, tracers, statuses = [], [], [], []
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        tracing = args.trace == 1 and len(traced) < len(untraced)
        if tracing:
            tracer = spans.Tracer()
            with spans.patched(tracer):
                result = run_pass(cx, timed_cases, limit, tracer)
            traced.append(result)
            tracers.append(tracer)
        else:
            result = run_pass(cx, timed_cases, limit)
            untraced.append(result)
        statuses.append([checker.check(i, row) for i, row in zip(timed, result["rows"])])
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        # stop before a pass that would end past --seconds
        if now - start + longest > args.seconds and (args.trace == 0 or traced):
            break
    # Peak memory of set-up and the timed passes.  A hanging case's memory
    # depends on how far it got before the limit, so it stays out.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Cases with a known defect run once, after --seconds, and stay out of
    # the timed metrics: a timeout would only measure the limit.  Their status counts in solved_frac
    # like any other case's, and a traced run adds their spans to every
    # traced pass, so the per-layer metrics show where they hang.
    known_tracer = spans.Tracer() if args.trace == 1 else None
    with spans.patched(known_tracer) if known_tracer else nullcontext():
        once = run_pass(cx, known_cases, limit, known_tracer)
    known_statuses = [checker.check(i, row) for i, row in zip(known, once["rows"])]

    runs = [(cases[i], s) for i, s in zip(known, known_statuses)]
    runs += [(case, s) for pass_statuses in statuses for case, s in zip(timed_cases, pass_statuses)]
    attempted, failed, correct = summarize(runs)
    correct = correct and deterministic
    solved = median([p.count("ok") for p in statuses]) + known_statuses.count("ok")

    rows = {}
    for i, s, row in zip(known, known_statuses, once["rows"]):
        rows[cases[i]["name"]] = {"status": s, "seconds": round(row["seconds"], 4)}
    for j, i in enumerate(timed):
        rows[cases[i]["name"]] = {
            "status": "|".join(sorted({p[j] for p in statuses})),
            "seconds": round(median([p["rows"][j]["seconds"] for p in untraced]), 4),
        }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced) + len(traced),
        "case_limit_s": limit,
        # unscaled wall time of a pass, for comparison with solve_s
        "raw_solve_s": median([p["raw_solve_s"] for p in untraced]),
        "src_lines": src_lines(),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cases": rows,
    }
    if args.trace == 0:
        metrics = {
            "solve_s": metric(median([p["solve_s"] for p in untraced]), "s"),
            "slowest_case_s": metric(median([p["slowest_case_s"] for p in untraced]), "s"),
            "verify_s": metric(median([p["verify_s"] for p in untraced]), "s"),
            "solved_frac": metric(solved / len(cases), "fraction"),
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracers, traced, untraced, timed_cases,
                                (known_tracer, known_cases, once))
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracers, traced, untraced, cases, known):
    """Per-layer metrics from the traced passes and their tracers.

    ``known`` is the tracer, cases and pass of the cases with a known
    defect, which ran once; their spans and documents count in every
    traced pass.
    """
    known_tracer, known_cases, once = known
    extra = known_tracer.layer_stats()
    stats = [t.layer_stats() for t in tracers]
    out = {}
    for name in spans.LAYERS:
        out[f"{name}.calls"] = metric(
            median([s[name][0] for s in stats]) + extra[name][0], "count")
        out[f"{name}.self_s"] = metric(
            median([s[name][1] for s in stats]) + extra[name][1], "s")
    everyone = tracers + [known_tracer]
    out["abgroup.snf.max_dim"] = metric(max(t.snf_max_dim for t in everyone), "count")
    out["abgroup.snf.max_digits"] = metric(max(t.snf_max_digits for t in everyone), "digits")
    steps = base_keys = generators = 0
    rows = zip(cases + known_cases, traced[0]["rows"] + once["rows"])
    for case, row in rows:
        doc = row["doc"]
        if doc is None:
            continue
        steps += len(doc["steps"])
        generators += len(doc["final_stack"]["generators"])
        if case["kind"] == "lift":
            base_keys += len(case["problem"]["base_morphism"]["images"])
    out["lift.steps.count"] = metric(steps, "count")
    out["lift.base_keys.count"] = metric(base_keys, "count")
    out["mdstack.generators.count"] = metric(generators, "count")
    out["trace.overhead_s"] = metric(
        median([p["solve_s"] for p in traced]) - median([p["solve_s"] for p in untraced]), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
