from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

import pytest
from helpers import PROBLEMS, lift_of
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlift import abgroup
from coxlift.abgroup import FgAbelianGroup
from coxlift.cyclo import CycOrder, CycScalar
from coxlift.errors import InputDataError, InternalInvariantError
from coxlift.gring import Factorization, GradedRing, HomogeneousElement, Monomial, RewriteRule
from coxlift.lift import decompose_as_roots
from coxlift.mdstack import (
    DivisorRootInfo,
    MdStackData,
    RootStep,
    canonical_stack,
    effective_generators,
    extend,
    graded_factorial_spotcheck,
    replay_tower,
    root_divisor,
    root_line_bundle,
)
from coxlift.serialize import parse_decompose

N2 = CycOrder(2)
N3 = CycOrder(3)
N6 = CycOrder(6)


def a1_stack(order=N2):
    clx = FgAbelianGroup(0, [])
    ring = GradedRing([("t", clx.zero())], clx, order)
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
    assert (ok, ce) == _spotcheck_from_scratch(forced.cox_ring, 4)


@pytest.mark.parametrize("section, n, root, clash", [
    ({"w": 1, "x": 1, "y": 1}, 3, "a", ("1*w*x*y", ("w", "x", "y"), ("a", "a", "a"))),
    ({"x": 2, "y": 1}, 3, "b", ("1*x^2*y", ("x", "x", "y"), ("b", "b", "b"))),
])
def test_spotcheck_names_a_planted_clash_in_name_order(section, n, root, clash):
    """Generators y, w, x in that order, and a forced root of a reducible
    section: the report names each multiset by sorted generator names, not
    by generator order, and the new root sorts first by name."""
    cl0 = FgAbelianGroup(0, [])
    ring = GradedRing([(name, cl0.zero()) for name in ("y", "w", "x")], cl0, N3)
    sec = ring.mono(section, CycScalar.from_rational(N3, 2))
    forced = extend(canonical_stack(ring),
                    RootStep(kind="divisor", roots=(DivisorRootInfo(sec, n, root),)))
    assert graded_factorial_spotcheck(forced, 4) == (False, clash)
    assert _spotcheck_from_scratch(forced.cox_ring, 4) == (False, clash)


def _spotcheck_from_scratch(ring, degree_bound):
    """Oracle: the spot-check with every multiset multiplied out from 1 and
    normalized as a whole."""
    candidates = [(n, ring.gen(n)) for n, _ in ring.generators
                  if ring.gen(n).key() not in ring.declared_factorizations
                  and ring.normal_form(ring.gen(n)) == ring.gen(n)]
    seen = {}
    for size in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(candidates, size):
            prod = ring.one()
            for _, el in combo:
                prod = prod * el
            nf = ring.normal_form(prod)
            if nf.is_zero():
                continue
            lead_c, _ = nf.leading()
            key = nf.scale(lead_c.inverse()).key()
            names = tuple(sorted(n for n, _ in combo))
            if key in seen and seen[key] != names:
                return False, (key, seen[key], names)
            seen.setdefault(key, names)
    return True, None


@st.composite
def confluent_rings(draw):
    """Rules g^n -> rhs with distinct heads g, each rhs over the generators
    before its head (as ``test_gring.root_tower_cases`` draws them), so the
    left sides are coprime and the ring is confluent.  A right side may be
    zero, which makes products vanish."""
    names = ["a", "b", "c", "d", "e"][: draw(st.integers(2, 5))]
    scalars = st.sampled_from([CycScalar.from_rational(N3, q) for q in (1, -1, 2, Fraction(1, 2))]
                              + [CycScalar.zeta(N3)])
    rules = []
    for i, head in enumerate(names[1:], 1):
        if not draw(st.booleans()):
            continue
        rhs = [(draw(scalars), Monomial(dict(zip(names[:i], v))))
               for v in draw(st.lists(st.lists(st.integers(0, 1), min_size=i, max_size=i),
                                      max_size=2))]
        rules.append(RewriteRule(Monomial.gen(head, draw(st.integers(1, 3))),
                                 HomogeneousElement(rhs)))
    cl = FgAbelianGroup(0, [])
    return GradedRing([(n, cl.zero()) for n in names], cl, N3, rules=rules, step_cap=10**6)


@given(confluent_rings(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_spotcheck_matches_products_from_scratch(ring, degree_bound):
    """Normal forms built from the previous size's give the same verdict,
    clash and order as multiplying every multiset out from scratch."""
    assert ring.nonjoinable_pair() is None
    S = MdStackData(ring, (), ())
    expected = _spotcheck_from_scratch(ring, degree_bound)
    assert graded_factorial_spotcheck(S, degree_bound) == expected


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


def test_a_matured_rule_that_breaks_confluence_is_an_internal_error():
    # c = z1 + z2 is false where c^2 = ab, z1^2 = a, z2^2 = b: the pair
    # c^2 -> ab, c -> z1 + z2 leaves ab - (z1 + z2)^2
    cl = FgAbelianGroup(0, [])
    tmp = GradedRing([(n, cl.zero()) for n in ("a", "b", "c", "z1", "z2")], cl, N2)
    ring = tmp.with_data(rules=[
        RewriteRule(Monomial.gen("z1", 2), tmp.gen("a")),
        RewriteRule(Monomial.gen("z2", 2), tmp.gen("b")),
        RewriteRule(Monomial.gen("c", 2), tmp.mono({"a": 1, "b": 1})),
    ], declared_factorizations={
        "1*c": Factorization(CycScalar.one(N2), ((tmp.gen("z1") + tmp.gen("z2"), 1),))})
    assert ring.nonjoinable_pair() is None
    with pytest.raises(InternalInvariantError, match="breaks confluence"):
        canonical_stack(ring)


# ---------------------------------------------------------------------------
# one-shot replay against the step-at-a-time fold


def fold_replay(base, tower):
    """The stepwise oracle: one one-step replay per tower entry."""
    return reduce(lambda S, step: replay_tower(S, (step,)), tower, base)


def stack_view(S):
    return (
        S.pic.ambient_rank,
        S.pic.relations.entries,
        [(n, d.coords) for n, d in S.cox_ring.generators],
        [r.key() for r in S.cox_ring.rules],
        S.cox_ring.declared_factorizations,
        S.tower,
        S.coarse and [g.coords for g in S.coarse.inclusion.images],
    )


def matured_mid_tower():
    """a rooted by 2 as z1 matures g = z1^2 into g -> a; after a line bundle
    root, rooting g by 3 needs that rule, so its section is recorded as a."""
    cl = FgAbelianGroup(0, [])
    tmp = GradedRing([(n, cl.zero()) for n in "agt"], cl, N2)
    z1 = HomogeneousElement.monomial(N2, Monomial.gen("z1"))
    declared = {"1*g": Factorization(CycScalar.one(N2), ((z1, 2),))}
    base = canonical_stack(tmp.with_data(declared_factorizations=declared))
    return base, (
        RootStep(kind="divisor", roots=(DivisorRootInfo(tmp.gen("a"), 2, "z1"),)),
        RootStep(kind="line_bundle", bundle_class=(1,), order=2),
        RootStep(kind="divisor", roots=(DivisorRootInfo(tmp.gen("g"), 3, "z2"),)),
    )


def chain_t_z1_line():
    S0 = a1_stack(N6)
    S = root_divisor(S0, S0.cox_ring.gen("t"), 2, "z1")
    S = root_divisor(S, S.cox_ring.gen("z1"), 3, "z2")
    return S0, root_line_bundle(S, S.pic.element([0, 1]), 2).tower


def chain_mu3_double_root():
    cl = FgAbelianGroup(0, [])
    tmp = GradedRing([(n, cl.zero()) for n in ("u", "v", "w")], cl, N3)
    S0 = canonical_stack(
        tmp.with_data(rules=[RewriteRule(Monomial.gen("v", 3), tmp.mono({"u": 1, "w": 1}))]))
    S = root_divisor(S0, S0.cox_ring.gen("u"), 3, "z1")
    return S0, root_divisor(S, S.cox_ring.gen("w"), 3, "z2").tower


def chain_batch_then_divisor():
    S0 = half11_stack()
    batch = RootStep(kind="divisor_batch", roots=(DivisorRootInfo(S0.cox_ring.gen("x"), 2, "z1"),),
                     group_relations=((-1, 2, 0), (0, 0, 1)))
    S = replay_tower(S0, (batch,))
    return S0, root_divisor(S, S.cox_ring.gen("y"), 2, "z2").tower


CHAINED = {"t_z1_line": chain_t_z1_line, "mu3_double_root": chain_mu3_double_root,
           "batch_then_divisor": chain_batch_then_divisor, "maturing_mid_tower": matured_mid_tower}
ENGINE_LIFTS = ("a1_into_half11", "identity_half11", "mu3", "mu3_zero", "mu4",
                "origin_into_half11", "cyclic12")


def built_stack(name):
    """(base, stack) of the engine's result on a bundled or generated
    problem, or of a bundled decomposition."""
    if name in ENGINE_LIFTS:
        res = lift_of(name)
    else:
        spec = parse_decompose(str(PROBLEMS / f"{name}.json"))
        res = decompose_as_roots(spec.stack, spec.options)
    return res.source_stack, res.stack


@pytest.mark.parametrize("name", [*CHAINED, *ENGINE_LIFTS, "decompose_half11_root"])
def test_one_shot_replay_equals_the_stepwise_fold(name):
    """One-shot replay, the stepwise fold and, for a built stack, the stack
    that the engine grew step by step agree."""
    if name in CHAINED:
        base, tower = CHAINED[name]()
        built = ()
    else:
        base, S = built_stack(name)
        tower, built = S.tower, (S,)
    views = [stack_view(T) for T in (replay_tower(base, tower), fold_replay(base, tower), *built)]
    assert views[1:] == views[:-1]


def test_a_section_is_normalized_by_the_rule_that_matured_before_it():
    base, tower = matured_mid_tower()
    S = replay_tower(base, tower)
    assert [r.key() for r in S.cox_ring.rules] == ["z1^2 -> 1*a", "g -> 1*a", "z2^3 -> 1*a"]
    assert S.tower[2].roots[0].section.key() == "1*a"


def test_a_section_is_normalized_at_its_stage():
    S0 = a1_stack(N6)
    z1sq = HomogeneousElement.monomial(N6, Monomial.gen("z1", 2))
    tower = (RootStep(kind="divisor", roots=(DivisorRootInfo(S0.cox_ring.gen("t"), 2, "z1"),)),
             RootStep(kind="divisor", roots=(DivisorRootInfo(z1sq, 3, "z2"),)))
    for replay in (replay_tower, fold_replay):
        S = replay(S0, tower)
        assert S.tower[1].roots[0].section.key() == "1*t"
        assert [r.key() for r in S.cox_ring.rules] == ["z1^2 -> 1*t", "z2^3 -> 1*t"]


def _bad_towers():
    t = a1_stack(N6).cox_ring.gen("t")
    z1 = HomogeneousElement.monomial(N6, Monomial.gen("z1"))

    def div(section, n, name):
        return RootStep(kind="divisor", roots=(DivisorRootInfo(section, n, name),))

    yield "unknown generator 'z1'", (div(z1, 2, "z2"), div(t, 2, "z1"))
    yield "already in use", (div(t, 2, "z1"), div(z1, 3, "z1"))
    yield "root order must be positive", (div(t, 2, "z1"), div(z1, 0, "z2"))
    yield "root order must be positive", (div(t, 2, "z1"),
                                          RootStep(kind="line_bundle", bundle_class=(0,), order=0))
    yield "zero section", (div(t, 2, "z1"), div(HomogeneousElement.zero(), 2, "z2"))
    yield "wrong length", (div(t, 2, "z1"),
                           RootStep(kind="divisor_batch", roots=(DivisorRootInfo(z1, 2, "z2"),),
                                    group_relations=((0, 2),)))


@pytest.mark.parametrize("message,tower", list(_bad_towers()), ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("replay", [replay_tower, fold_replay], ids=["one_shot", "fold"])
def test_replay_rejects_what_the_stepwise_fold_rejects(replay, message, tower):
    with pytest.raises(InputDataError, match=message):
        replay(a1_stack(N6), tower)


@pytest.mark.parametrize("replay", [replay_tower, fold_replay], ids=["one_shot", "fold"])
def test_a_batch_mid_tower_is_checked_against_its_own_stage_group(replay):
    # after y is rooted by 2, the row (1, 0, 0, 0) kills the class of x
    S = half11_stack()
    x, y = S.cox_ring.gen("x"), S.cox_ring.gen("y")
    first = RootStep(kind="divisor", roots=(DivisorRootInfo(y, 2, "z1"),))
    batch = RootStep(kind="divisor_batch", roots=(DivisorRootInfo(x, 2, "z2"),),
                     group_relations=((-1, 0, 2, 0), (0, 0, 0, 1), (1, 0, 0, 0)))
    with pytest.raises(InputDataError, match="collapse"):
        replay(S, (first, batch))
    kept = replay(S, (first, replace(batch, group_relations=batch.group_relations[:2])))
    assert not kept.cox_ring.gen_degrees["x"].is_zero()


def _snf_calls(monkeypatch, fn):
    calls = []
    real = abgroup.smith_normal_form_full

    def counting(M, *args, **kwargs):
        calls.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(abgroup, "smith_normal_form_full", counting)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return len(calls)


def test_replay_takes_one_smith_form_however_long_the_tower(monkeypatch):
    S0 = half11_stack()
    S, counts = S0, []
    for k in range(1, 7):
        if k % 3:
            S = root_divisor(S, S.cox_ring.gen(S.cox_ring.generators[-1][0]), 2, f"z{k}")
        else:
            S = root_line_bundle(S, S.pic.basis_element(S.pic.ambient_rank - 1), 2)
        counts.append(_snf_calls(monkeypatch, lambda: replay_tower(S0, S.tower)))
    assert counts == [1] * 6


def test_one_root_takes_one_smith_form(monkeypatch):
    S = half11_stack()
    assert _snf_calls(monkeypatch, lambda: root_divisor(S, S.cox_ring.gen("x"), 2, "z")) == 1
    assert _snf_calls(monkeypatch, lambda: root_line_bundle(S, S.pic.element([1]), 2)) == 1
