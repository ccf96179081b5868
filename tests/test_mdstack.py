from dataclasses import replace

import pytest

from coxlift.abgroup import FgAbelianGroup
from coxlift.cyclo import CycOrder, CycScalar
from coxlift.errors import InputDataError
from coxlift.gring import Factorization, GradedRing, HomogeneousElement, Monomial, RewriteRule
from coxlift.mdstack import (
    DivisorRootInfo,
    RootStep,
    canonical_stack,
    effective_generators,
    extend,
    graded_factorial_spotcheck,
    replay_tower,
    root_divisor,
    root_line_bundle,
)

N2 = CycOrder(2)
N3 = CycOrder(3)
N6 = CycOrder(6)


def a1_stack(order=N2):
    clx = FgAbelianGroup(0, [])
    ring = GradedRing([("t", clx.zero())], clx, order, irreducibles=["t"])
    return canonical_stack(ring)


def half11_stack():
    cl = FgAbelianGroup(1, [[2]])
    ring = GradedRing([("x", cl.element([1])), ("y", cl.element([1]))], cl, N2)
    return canonical_stack(ring)


def point_stack():
    clx = FgAbelianGroup(0, [])
    return canonical_stack(GradedRing([], clx, N2))


def test_canonical_stack_examples():
    S = a1_stack()
    assert S.pic.canonical_form == (0, ())
    assert S.tower == ()
    assert half11_stack().pic.describe() == "Z/2"
    assert point_stack().cox_ring.generators == ()


def test_canonical_stack_rejects_inhomogeneous_irrelevant():
    cl = FgAbelianGroup(1, [[2]])
    ring = GradedRing([("x", cl.element([1])), ("y", cl.element([1]))], cl, N2)
    bad = ring.gen("x") + ring.mono({"x": 2})
    with pytest.raises(InputDataError):
        canonical_stack(ring, [bad])


def test_root_divisor_square_root_of_t():
    S = a1_stack()
    S2 = root_divisor(S, S.cox_ring.gen("t"), 2, "z")
    assert S2.pic.describe() == "Z/2"
    assert [r.key() for r in S2.cox_ring.rules] == ["z^2 -> 1*t"]
    # n * deg(z) = deg(s) under the inclusion, exactly
    degz = S2.cox_ring.gen_degrees["z"]
    assert 2 * degz == S2.pic.zero()
    assert effective_generators(S2.cox_ring) == ["z"]


def test_root_divisor_order_one_is_an_alias():
    S = a1_stack()
    S2 = root_divisor(S, S.cox_ring.gen("t"), 1, "z")
    assert S2.pic.canonical_form == S.pic.canonical_form
    assert [r.key() for r in S2.cox_ring.rules] == ["z -> 1*t"]
    assert len(S2.tower) == 1


def test_root_divisor_rejects_reducible_sections():
    S = half11_stack()
    xy = S.cox_ring.mono({"x": 1, "y": 1})
    with pytest.raises(InputDataError, match="non-prime divisor"):
        root_divisor(S, xy, 2, "z")


def test_root_divisor_mu3_double_root():
    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in ("u", "v", "w")]
    tmp = GradedRing(gens, cl, N3)
    ring = GradedRing(
        gens, cl, N3,
        rules=[RewriteRule(Monomial.gen("v", 3), tmp.mono({"u": 1, "w": 1}))],
        irreducibles=["u", "w"],
    )
    S = canonical_stack(ring)
    S = root_divisor(S, S.cox_ring.gen("u"), 3, "z1")
    S = root_divisor(S, S.cox_ring.gen("w"), 3, "z2")
    assert [r.key() for r in S.cox_ring.rules] == [
        "v^3 -> 1*u*w", "z1^3 -> 1*u", "z2^3 -> 1*w",
    ]
    assert S.pic.canonical_form == (0, (3, 3))


def test_root_line_bundle_examples():
    P = point_stack()
    B = root_line_bundle(P, P.pic.zero(), 2)
    assert B.pic.describe() == "Z/2"
    assert B.cox_ring.generators == ()

    S = a1_stack(N3)
    S3 = root_line_bundle(S, S.pic.zero(), 3)
    assert S3.pic.describe() == "Z/3"
    assert [n for n, _ in S3.cox_ring.generators] == ["t"]

    S1 = root_line_bundle(S, S.pic.zero(), 1)
    assert S1.pic.canonical_form == S.pic.canonical_form


def test_root_line_bundle_keeps_term_data_bit_identical():
    S = half11_stack()
    e = S.cox_ring.mono({"x": 2, "y": 1}, CycScalar.from_rational(N2, 7))
    S2 = root_line_bundle(S, S.pic.element([1]), 2)
    e2 = S2.cox_ring.mono({"x": 2, "y": 1}, CycScalar.from_rational(N2, 7))
    assert e.terms == e2.terms  # only degrees are reinterpreted


def test_spotcheck_passes_on_free_ring_and_prime_roots():
    ok, ce = graded_factorial_spotcheck(half11_stack(), 4)
    assert ok, ce
    S = root_divisor(a1_stack(), a1_stack().cox_ring.gen("t"), 2, "z")
    ok, ce = graded_factorial_spotcheck(S, 4)
    assert ok, ce


def test_spotcheck_fails_after_forced_reducible_root():
    S = half11_stack()
    xy = S.cox_ring.mono({"x": 1, "y": 1})
    forced = extend(S, RootStep(kind="divisor", roots=(DivisorRootInfo(xy, 2, "z"),)))
    ok, ce = graded_factorial_spotcheck(forced, 4)
    assert not ok
    key, first, second = ce
    assert {first, second} == {("x", "y"), ("z", "z")}


def test_batch_relations_must_not_collapse_existing_degrees():
    # on Pic Z/2 = <e1>, the row (1, 0, 0) kills the class of x
    S = half11_stack()
    x = S.cox_ring.gen("x")
    step = RootStep(kind="divisor_batch", roots=(DivisorRootInfo(x, 2, "z"),),
                    group_relations=((-1, 2, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(InputDataError, match="collapse"):
        replay_tower(S, (step,))
    kept = replay_tower(S, (replace(step, group_relations=step.group_relations[:2]),))
    assert not kept.cox_ring.gen_degrees["x"].is_zero()


def test_tower_replay_reproduces_stack():
    S0 = a1_stack(N6)
    S = root_divisor(S0, S0.cox_ring.gen("t"), 2, "z1")
    S = root_divisor(S, S.cox_ring.gen("z1"), 3, "z2")
    S = root_line_bundle(S, S.pic.element([0, 1]), 2)
    R = replay_tower(S0, S.tower)
    assert R.pic.relations == S.pic.relations
    assert ([(n, d.coords) for n, d in R.cox_ring.generators]
            == [(n, d.coords) for n, d in S.cox_ring.generators])
    assert [r.key() for r in R.cox_ring.rules] == [r.key() for r in S.cox_ring.rules]
    assert R.tower == S.tower


def test_chained_roots_give_z6():
    S0 = a1_stack(N6)
    S = root_divisor(S0, S0.cox_ring.gen("t"), 2, "z1")
    S = root_divisor(S, S.cox_ring.gen("z1"), 3, "z2")
    assert S.pic.describe() == "Z/6"
    assert effective_generators(S.cox_ring) == ["z2"]


def test_maturing_guards_the_names_of_each_rule_it_adds():
    # a = h matures to a -> h, which shows h as a generator, so h = x stays
    # a declaration and h is not eliminated as well
    cl = FgAbelianGroup(0, [])
    tmp = GradedRing([(n, cl.zero()) for n in "ahx"], cl, N2)
    one = CycScalar.one(N2)
    declared = {"1*a": Factorization(one, ((tmp.gen("h"), 1),)),
                "1*h": Factorization(one, ((tmp.gen("x"), 1),))}
    S = canonical_stack(tmp.with_data(declared_factorizations=declared))
    assert [r.key() for r in S.cox_ring.rules] == ["a -> 1*h"]
