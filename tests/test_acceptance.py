"""Acceptance suite: one test per criterion, exact expectations, a printed
PASS line each (visible with pytest -s or in the captured log)."""

import math
import random
from itertools import product

import pytest
from helpers import elements, load_raw, load_spec, lift_of

from coxlift.abgroup import FgAbelianGroup, GroupHomomorphism, element_order, pushout_root
from coxlift.cyclo import CycOrder
from coxlift.errors import InputDataError, LiftInconsistencyError
from coxlift.gring import GradedRing, HomogeneousElement, Monomial
from coxlift.lift import (
    CoxLiftResult,
    NoFactor,
    Theta,
    check_factors_through,
    decompose_as_roots,
    run_cox_lift,
    verify_lift,
)
from coxlift.mdstack import (
    DivisorRootInfo,
    RootStep,
    canonical_stack,
    effective_generators,
    extend,
    graded_factorial_spotcheck,
    root_divisor,
    root_line_bundle,
)
from coxlift.serialize import parse_problem


def _announce(n, label):
    print(f"ACCEPTANCE {n} [{label}]: PASS")


def test_criterion_1_half11_golden():
    res = lift_of("a1_into_half11")
    assert len(res.stack.tower) == 1
    step = res.stack.tower[0]
    assert step.kind == "divisor"
    (info,) = step.roots
    assert info.order == 2
    assert info.section.key() == "1*t"
    ring = res.stack.cox_ring
    assert effective_generators(ring) == ["z1"]
    assert [r.key() for r in ring.rules] == ["z1^2 -> 1*t"]
    assert res.stack.pic.canonical_form == (0, (2,))
    assert res.images["x"] == ring.gen("z1")
    assert res.images["y"].is_zero()
    assert res.verification.passed
    _announce(1, "half(1,1) golden lift")


def test_criterion_2_origin_golden_and_minimality():
    spec = load_spec("origin_into_half11")
    res = lift_of("origin_into_half11")
    assert len(res.stack.tower) == 1
    step = res.stack.tower[0]
    assert step.kind == "line_bundle" and step.order == 2
    assert res.stack.cox_ring.generators == ()  # ring is still just k
    assert res.stack.pic.canonical_form == (0, (2,))
    assert res.images["x"].is_zero() and res.images["y"].is_zero()
    assert res.verification.passed

    # the un-rooted point carries valid lift data but is not minimal:
    # the computed lift does not factor through it
    clx = spec.source_stack.coarse.group
    zero_hom = GroupHomomorphism(spec.target.cl, clx, [clx.zero()])
    zero = HomogeneousElement.zero()
    point = CoxLiftResult(
        target=spec.target, base=spec.base, source_stack=spec.source_stack,
        stack=spec.source_stack, images={"x": zero, "y": zero},
        group_map=zero_hom, table=dict(spec.base.images),
    )
    assert verify_lift(spec.target, spec.source_stack, spec.base, point).passed
    out = check_factors_through(point, res)
    assert isinstance(out, NoFactor)
    assert isinstance(check_factors_through(res, point), Theta)
    _announce(2, "origin lift is a line-bundle root; point is not minimal")


def test_criterion_3_mu3_golden_both_cases():
    res = lift_of("mu3")
    roots = [info for step in res.stack.tower for info in step.roots]
    assert [(i.section.key(), i.order) for i in roots] == [("1*u", 3), ("1*w", 3)]
    step = res.steps[0]
    assert step.constraint_strings() == ("i+j ≡ 0 (mod 3)",)
    assert step.solution_count == 3
    assert step.alpha == (0, 0)
    assert res.verification.passed

    zero_res = lift_of("mu3_zero")
    assert len(zero_res.stack.tower) == 1
    zstep = zero_res.stack.tower[0]
    assert zstep.kind == "line_bundle" and zstep.order == 3
    # Pic = (Cl(X) + Z)/(L, -3) with Cl(X) = 0 and L = 0
    clx = zero_res.source_stack.coarse.group
    L = clx.zero()
    expected, _, _ = pushout_root(clx, L, 3)
    assert zero_res.stack.pic.canonical_form == expected.canonical_form == (0, (3,))
    assert zero_res.verification.passed
    _announce(3, "mu3 golden: double divisor root and line-bundle case")


def test_criterion_4_mu4_two_prime_steps():
    res = lift_of("mu4")
    assert len(res.steps) == 2
    assert [s.p for s in res.steps] == [2, 2]
    step1, step2 = res.steps
    assert sorted(m.key() for m in step1.gens) == ["x^2", "y"]
    assert step1.constraint_strings() == ("i+j ≡ 0 (mod 2)",)  # k pinned to 0
    assert step2.constraint_rows == ()  # the step-2 exponent is free
    assert step2.solution_count == 2
    report = res.verification
    four = {c.name: c.passed for c in report.checks}
    for name in ("homogeneity", "relation-preservation", "restriction", "group-map"):
        assert four[name], name
    _announce(4, "mu4 lift: two prime steps, all four checks pass")


def test_criterion_5_unique_factorization_property_suite():
    rng = random.Random(20260809)
    group_shapes = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
    order = CycOrder(6)
    passes = 0
    for trial in range(22):
        invs = rng.choice(group_shapes)
        rels = [
            [invs[i] if i == j else 0 for j in range(len(invs))]
            for i in range(len(invs))
        ]
        G = FgAbelianGroup(len(invs), rels)
        ngens = rng.randint(1, 3)
        names = ["a", "b", "c"][:ngens]
        gens = [
            (n, G.element([rng.randrange(6) for _ in range(len(invs))]))
            for n in names
        ]
        ring = GradedRing(gens, G, order)
        stack = canonical_stack(ring)
        victim = rng.choice(names)
        n = rng.choice([2, 3])
        section = ring.gen(victim)
        assert [e for _f, e in ring.h_factorize(section).factors] == [1]
        rooted = root_divisor(stack, section, n)
        ok, ce = graded_factorial_spotcheck(rooted, 4)
        assert ok, f"trial {trial}: unexpected clash {ce}"
        passes += 1
    assert passes >= 20

    # forcing a root along a reducible section produces the concrete clash
    cl0 = FgAbelianGroup(0, [])
    ring = GradedRing([("x", cl0.zero()), ("y", cl0.zero())], cl0, order)
    stack = canonical_stack(ring)
    xy = ring.mono({"x": 1, "y": 1})
    with pytest.raises(InputDataError):
        root_divisor(stack, xy, 2)
    forced = extend(stack, RootStep(kind="divisor", roots=(DivisorRootInfo(xy, 2, "z"),)))
    ok, ce = graded_factorial_spotcheck(forced, 4)
    assert not ok
    key, first, second = ce
    assert {first, second} == {("x", "y"), ("z", "z")}
    _announce(5, "rooted prime sections stay factorial; reducible roots clash")


def _chains(limit):
    """All invariant factor chains d1 | d2 | ... with product <= limit."""
    out = []

    def rec(prefix, prod_):
        if prefix:
            out.append(tuple(prefix))
        base = prefix[-1] if prefix else 1
        k = 2 if not prefix else 1
        d = base * k if prefix else 2
        while prod_ * d <= limit:
            rec(prefix + [d], prod_ * d)
            k += 1
            d = base * k if prefix else d + 1

    rec([], 1)
    return sorted(set(out))


def _oracle_pushout_invariants(invs, a_canon, n):
    """Invariant factors of (A + Z)/<(a, -n)> by annihilator counting.

    Elements are the unique representatives (x, r) with 0 <= r < n; the
    count of d-torsion has a closed form per cyclic factor, and the
    p-power counts pin down the invariant factors.
    """
    order = math.prod(invs) * n

    def count_killed(d):
        total = 0
        g = math.gcd(d, n)
        for t in range(g):
            r = (n // g) * t
            carry = d * r // n
            cnt = 1
            ok = True
            for ai, m in zip(a_canon, invs):
                gg = math.gcd(d, m)
                if (-carry * ai) % gg:
                    ok = False
                    break
                cnt *= gg
            if ok:
                total += cnt
        return total

    primes = set()
    x = order
    f = 2
    while f * f <= x:
        while x % f == 0:
            primes.add(f)
            x //= f
        f += 1
    if x > 1:
        primes.add(x)

    per_prime = {}
    for p in sorted(primes):
        counts_ge = []
        prev = 1
        k = 1
        while True:
            c = count_killed(p ** k)
            ratio = c // prev
            n_ge = 0
            while ratio > 1:
                ratio //= p
                n_ge += 1
            if n_ge == 0:
                break
            counts_ge.append(n_ge)
            prev = c
            k += 1
        comps = []
        for i in range(len(counts_ge)):
            here = counts_ge[i] - (counts_ge[i + 1] if i + 1 < len(counts_ge) else 0)
            comps.extend([p ** (i + 1)] * here)
        per_prime[p] = sorted(comps, reverse=True)

    height = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for i in range(height):
        d = 1
        for lst in per_prime.values():
            if i < len(lst):
                d *= lst[i]
        chain.append(d)
    return (0, tuple(sorted(d for d in chain if d > 1)))


def test_criterion_6_pushout_oracle_suite():
    checked = 0
    for invs in _chains(64):
        rels = [
            [invs[i] if i == j else 0 for j in range(len(invs))]
            for i in range(len(invs))
        ]
        A = FgAbelianGroup(len(invs), rels)
        for a_canon in product(*[range(m) for m in invs]):
            a = A.from_canonical(a_canon)
            canon = a.canonical()
            for n in range(1, 7):
                A2, incl, delta = pushout_root(A, a, n)
                expected = _oracle_pushout_invariants(invs, canon, n)
                assert A2.canonical_form == expected, (invs, a_canon, n)
                assert math.prod(A2.invariants or (1,)) == math.prod(invs) * n
                assert n * delta == incl(a)
                checked += 1
    assert checked > 1000
    _announce(6, f"pushout matches the brute-force oracle on {checked} cases")


def test_criterion_7_trivial_lift_suite():
    spec = load_spec("identity_half11")
    res = lift_of("identity_half11")
    assert res.stack.tower == () and res.steps == ()
    for mono, img in spec.base.images.items():
        (name, e) = mono.pairs[0]
        assert res.images[name] == img
    assert res.group_map.images[0] == spec.source_stack.pic.element([1])

    # a second input with Pic = Cl, nontrivial group map
    raw = load_raw("identity_half11")
    raw["base_morphism"]["images"][0]["image"] = {
        "terms": [{"c": "1", "m": {"t": 1}}]
    }
    raw["base_morphism"]["images"][1]["image"] = {
        "terms": [{"c": "1", "m": {"s": 1}}]
    }
    spec2 = parse_problem(raw)
    res2 = run_cox_lift(spec2.target, spec2.source_stack, spec2.base, spec2.options)
    assert res2.stack.tower == ()
    assert res2.images["x"] == spec2.source_stack.cox_ring.gen("t")
    assert res2.verification.passed
    _announce(7, "Pic(Y) = Cl(Y) inputs lift verbatim with empty towers")


def _random_tower_stack(rng):
    order = CycOrder(6)
    cl0 = FgAbelianGroup(0, [])
    ring = GradedRing([("x", cl0.zero()), ("y", cl0.zero())], cl0, order)
    stack = canonical_stack(ring)
    rootable = ["x", "y"]
    counter = 1
    steps = rng.randint(1, 3)
    for _ in range(steps):
        n = rng.choice([2, 3])
        if rng.random() < 0.3:
            members = elements(stack.pic)
            stack = root_line_bundle(stack, rng.choice(members), n)
        else:
            victim = rng.choice(rootable)
            name = f"r{counter}"
            counter += 1
            stack = root_divisor(stack, stack.cox_ring.gen(victim), n, name)
            rootable.remove(victim)
            rootable.append(name)
    return stack


def test_criterion_8_decomposition_suite():
    rng = random.Random(48_2026)
    for trial in range(10):
        stack = _random_tower_stack(rng)
        result = decompose_as_roots(stack)
        assert result.verification.passed, (
            trial,
            [c for c in result.verification.checks if not c.passed],
        )
        assert result.stack.pic == stack.pic  # equal canonical forms
        orig = sorted(
            element_order(stack.pic, d) or 0
            for _n, d in stack.cox_ring.generators
        )
        new = sorted(
            element_order(result.stack.pic, d) or 0
            for _n, d in result.stack.cox_ring.generators
        )
        assert orig == new
        assert len(stack.cox_ring.generators) == len(result.stack.cox_ring.generators)
    _announce(8, "random towers decompose back to matching stacks")


def test_criterion_9_unit_checks_abort_rather_than_lie():
    # all golden runs complete: every kernel monomial passed the exact
    # exponent-divisibility and unit checks en route
    for name in ("a1_into_half11", "mu3", "mu4"):
        res = lift_of(name)
        assert res.verification.passed
        for step in res.steps:
            for row, rhs in zip(step.constraint_rows, step.constraint_rhs):
                acc = sum(r * a for r, a in zip(row, step.alpha)) % step.p
                assert acc == rhs % step.p

    # mutating the declared unit to a non-unit scalar aborts at load
    raw = load_raw("mu3")
    raw["source"]["declared_factorizations"][0]["unit"] = "2"
    with pytest.raises(InputDataError):
        parse_problem(raw)

    # mutating a base image unit aborts during the run with a diagnostic
    raw2 = load_raw("a1_into_half11")
    raw2["base_morphism"]["images"][0]["image"]["terms"][0]["c"] = "2"
    spec2 = parse_problem(raw2)
    with pytest.raises(LiftInconsistencyError):
        run_cox_lift(spec2.target, spec2.source_stack, spec2.base, spec2.options)

    # a declared unit that is a different root of unity is consistent data:
    # the run must succeed and report the shifted constraint, never silently
    # produce the unshifted lift
    raw3 = load_raw("mu3")
    raw3["source"]["declared_factorizations"][0]["unit"] = {"zeta": 2}
    spec3 = parse_problem(raw3)
    res3 = run_cox_lift(spec3.target, spec3.source_stack, spec3.base, spec3.options)
    assert res3.steps[0].constraint_strings() == ("i+j ≡ 2 (mod 3)",)
    assert res3.verification.passed
    _announce(9, "unit and exponent checks hold; mutations abort loudly")
