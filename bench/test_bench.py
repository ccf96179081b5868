"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import copy
import importlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cx():
    for name in run.SUBMODULES:
        importlib.import_module(f"coxlift.{name}")
    return run.Modules()


def _case(workload, name, seed=0):
    return next(c for c in workloads.generate(workload, seed) if c["name"] == name)


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    first = [workloads.problem_digest(c["problem"]) for c in workloads.generate(workload, 3)]
    again = [workloads.problem_digest(c["problem"]) for c in workloads.generate(workload, 3)]
    assert first == again
    names = [c["name"] for c in workloads.generate(workload, 3)]
    assert len(set(names)) == len(names)


def test_seed_changes_the_inputs():
    for workload in ("deep", "scrambled", "decompose"):
        a = {workloads.problem_digest(c["problem"]) for c in workloads.generate(workload, 0)}
        b = {workloads.problem_digest(c["problem"]) for c in workloads.generate(workload, 1)}
        assert a != b, workload


def test_generators_import_no_coxlift():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads\n"
        "for w in workloads.WORKLOADS: workloads.generate(w, 0)\n"
        "assert not [m for m in sys.modules if m.startswith('coxlift')]\n"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, timeout=60)


def test_pins_cover_every_case_of_the_pinned_seeds():
    """Generators still produce the documents the pins were taken from."""
    pins = oracle.load_pins()
    for workload in workloads.WORKLOADS:
        for seed in oracle.PINNED_SEEDS:
            for case in workloads.generate(workload, seed):
                if case["defect"] is None:
                    assert workloads.problem_digest(case["problem"]) in pins, (
                        workload, seed, case["name"])


def test_tower_documents_match_coxlift_root_constructions():
    from coxlift import (CycOrder, FgAbelianGroup, GradedRing, canonical_stack,
                         root_divisor, root_line_bundle)
    from coxlift.serialize import parse_decompose

    for ngens, nsteps, tower_seed in workloads.DECOMPOSE_TOWERS:
        steps = workloads.random_tower(random.Random(tower_seed), ngens, nsteps)
        steps = workloads.relabel(steps, list(reversed(range(ngens))))
        cl0 = FgAbelianGroup(0, [])
        ring = GradedRing([(f"x{i}", cl0.zero()) for i in range(ngens)], cl0,
                          CycOrder(workloads.DECOMPOSE_ORDER))
        native = canonical_stack(ring)
        for step in steps:
            if step[0] == "divisor":
                native = root_divisor(native, native.cox_ring.gen(step[1]), step[2], step[3])
            else:
                native = root_line_bundle(native, native.pic.element(step[1]), step[2])
        doc = workloads.tower_document("t", ngens, steps)
        parsed = parse_decompose(doc).stack
        assert parsed.pic == native.pic
        assert ([(n, d.canonical()) for n, d in parsed.cox_ring.generators]
                == [(n, d.canonical()) for n, d in native.cox_ring.generators])
        assert ([r.key() for r in parsed.cox_ring.rules]
                == [r.key() for r in native.cox_ring.rules])
        assert (sorted(parsed.cox_ring.declared_factorizations)
                == sorted(native.cox_ring.declared_factorizations))


def test_scrambled_presentation_is_isomorphic_to_the_diagonal_one():
    from coxlift import FgAbelianGroup

    for invariants, rank, ops in workloads.SCRAMBLED_SIZES:
        doc = workloads.scrambled_problem("s", invariants, rank, ops, random.Random(5))
        cl = doc["target"]["class_group"]
        G = FgAbelianGroup(cl["ambient_rank"], cl["relations"])
        assert G.canonical_form == (0, tuple(sorted(invariants)))


# ---------------------------------------------------------------------------
# correctness gate


def test_oracle_and_digest_reject_a_tampered_document(cx):
    case = _case("wide", "A3,4")
    doc = run.solve(cx, case)
    pins = oracle.load_pins()
    sha = workloads.problem_digest(case["problem"])
    assert oracle.check_digest(pins, sha, doc) is None
    assert oracle.oracle_cyclic(doc, case["oracle"]) is None

    wrong_pic = copy.deepcopy(doc)
    wrong_pic["final_stack"]["pic_canonical"]["invariants"] = [2]
    assert oracle.oracle_cyclic(wrong_pic, case["oracle"])
    assert oracle.check_digest(pins, sha, wrong_pic)

    special = case["oracle"]["special"]
    other = next(n for n in doc["images"] if n != special)
    swapped = copy.deepcopy(doc)
    swapped["images"][other], swapped["images"][special] = (
        doc["images"][special], doc["images"][other])
    assert oracle.oracle_cyclic(swapped, case["oracle"])

    # a stats block is not part of the pinned document
    with_stats = dict(doc, stats={"wall_s": 1.0})
    assert oracle.check_digest(pins, sha, with_stats) is None


def test_tower_oracle_rejects_a_changed_degree(cx):
    case = next(c for c in workloads.decompose(0) if c["name"] == "T2g3s#0")
    doc = run.solve(cx, case)
    assert oracle.oracle_tower(doc, case["problem"], cx) is None
    tampered = copy.deepcopy(doc)
    gens = tampered["final_stack"]["generators"]
    gens[-1]["degree"] = [0] * len(gens[-1]["degree"])
    assert oracle.oracle_tower(tampered, case["problem"], cx)


def test_checker_flags_a_wrong_document(cx):
    cases = [_case("deep", "S5")]
    checker = run.Checker(cx, cases, [workloads.problem_digest(cases[0]["problem"])])
    doc = run.solve(cx, cases[0])
    doc["images"]["x"], doc["images"]["y"] = doc["images"]["y"], doc["images"]["x"]
    assert checker.check(0, {"status": "ok", "doc": doc}) == "failed:digest"


def test_summary_counts_known_defects_only_against_solved_frac():
    ok, known = {"defect": None}, {"defect": {"status": "timeout", "why": "known"}}
    runs = [(ok, "ok"), (known, "timeout"), (ok, "error:ValueError")]
    assert run.summarize(runs) == (3, 1, True)
    # a known defect that ends another way than recorded is a failed run
    assert run.summarize([(known, "error:ValueError")])[1] == 1
    assert run.summarize([(ok, "failed:oracle")])[2] is False


def test_speed_reference_is_fixed_work_and_scales_to_the_nominal_speed():
    assert speed.reference_work() == speed.reference_work()
    assert speed.probe() > 0
    assert speed.factor([speed.REFERENCE_S] * 3) == 1.0
    # a machine at half speed doubles both the probes and the case time
    assert speed.factor([2 * speed.REFERENCE_S, 1.5 * speed.REFERENCE_S,
                         2.5 * speed.REFERENCE_S]) == 0.5
    code = "import sys; sys.path.insert(0, sys.argv[1]); import speed; speed.probe()\n" \
           "assert not [m for m in sys.modules if m.startswith('coxlift')]"
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, timeout=60)


def test_decimal_digits_past_the_str_limit():
    for x in (0, 9, 10, -999, 10 ** 100):
        assert spans.decimal_digits(x) == len(str(abs(x)))
    assert spans.decimal_digits(10 ** 5000 - 1) == 5000
    assert spans.decimal_digits(10 ** 5000) == 5001


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_direct_children():
    # a [0, 10] contains b [1, 4] and c [5, 9]; b contains a second a [2, 3]
    names = ["a", "b", "c"]
    records = [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [0, 1, 2.0, 3.0], [2, 0, 5.0, 9.0]]
    stats = spans.self_times(names, records)
    assert stats == {"a": (2, 3.0 + 1.0), "b": (1, 2.0), "c": (1, 4.0)}


class _Interrupting(list):
    """A list whose k-th append raises the case timeout right after appending."""

    def __init__(self, k):
        super().__init__()
        self.k = k

    def append(self, item):
        super().append(item)
        self.k -= 1
        if self.k == 0:
            raise run.CaseTimeout()


@pytest.mark.parametrize("target", ["records", "open"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_timeout_inside_a_wrapper_leaves_later_spans_intact(target, k):
    """The k-th append to the span records or to the open-span stack is
    interrupted by a timeout; the next call's spans must still be right."""
    tracer = spans.Tracer()
    setattr(tracer, target, _Interrupting(k))
    outer_id = tracer.name_ids["gring.elem_mul"]
    leaf_id = tracer.name_ids["gring.mono_mul"]
    leaf = tracer.wrap("gring.mono_mul", lambda: 1)
    outer = tracer.wrap("gring.elem_mul", lambda: leaf() + leaf())
    with pytest.raises(run.CaseTimeout):
        outer()
    tracer.close_open(time.perf_counter())
    assert outer() == 2
    first = len(tracer.records) - 3
    assert [r[:2] for r in tracer.records[first:]] == [
        [outer_id, -1], [leaf_id, first], [leaf_id, first]]
    assert all(end >= start > 0 for _, _, start, end in tracer.records)
    assert all(s >= -1e-9 for _, s in tracer.layer_stats().values())


def test_patching_wraps_every_binding_and_restores_it(cx):
    from coxlift import abgroup, mdstack

    orig = abgroup.pushout_root
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert mdstack.pushout_root is abgroup.pushout_root is not orig
        run.solve(cx, _case("deep", "S3"))
    assert mdstack.pushout_root is orig and abgroup.pushout_root is orig
    stats = tracer.layer_stats()
    assert stats["serialize.parse"][0] == 1
    assert stats["lift.divisor_step"][0] >= 1
    assert stats["abgroup.snf"][0] > 0 and tracer.snf_max_dim > 0
    assert all(s >= 0 for _, s in stats.values())


# ---------------------------------------------------------------------------
# smoke


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(cx, workload):
    """A pass over the first two cases of each workload that have no known defect."""
    cases = [c for c in workloads.generate(workload, 0) if c["defect"] is None][:2]
    checker = run.Checker(cx, cases, [workloads.problem_digest(c["problem"]) for c in cases])
    result = run.run_pass(cx, cases, run.CASE_LIMIT_S[workload])
    statuses = [checker.check(i, row) for i, row in enumerate(result["rows"])]
    assert statuses == ["ok", "ok"]
    assert result["solve_s"] > 0
    assert (result["verify_s"] > 0) == any(c["kind"] == "lift" for c in cases)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_result_line(trace, kind):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == {
        (m["name"], m["unit"]) for m in bench[kind]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
