import hashlib
import math
from dataclasses import replace
from functools import lru_cache
from itertools import combinations_with_replacement
from itertools import product as iproduct
from operator import add, le, sub

import pytest
from helpers import (GENERATED, PROBLEMS, assert_factors_settle, cyclic_problem, lift_of,
                     load_raw, load_spec, p1_into_p112_problem, stack_as_lift, tower_over)
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlift.abgroup import (
    FgAbelianGroup,
    GroupHomomorphism,
    Subgroup,
    _solve_mod,
    element_order,
    quotient_group,
)
from coxlift import abgroup, lift, mdstack
from coxlift.cli import run_document
from coxlift.cyclo import CycOrder, CycScalar
from coxlift.errors import InputDataError, LiftInconsistencyError
from coxlift.gring import Factorization, GradedRing, HomogeneousElement, Monomial, RewriteRule
from coxlift.lift import (
    BaseMorphism,
    CoxLiftResult,
    NoFactor,
    TargetData,
    Theta,
    check_factors_through,
    choose_extension_class,
    coset_generators,
    decompose_as_roots,
    pic_level_generators,
    run_cox_lift,
    verify_lift,
)
from coxlift.lift import _coset_kernel_rows, _Engine, LiftOptions
from coxlift.mdstack import (DivisorRootInfo, RootStep, canonical_stack, extend, root_divisor,
                             root_line_bundle)
from coxlift.serialize import parse_decompose, parse_problem, result_json


def target_of(name):
    return load_spec(name).target


def test_pic_level_generators_examples():
    t = target_of("a1_into_half11")
    assert [m.key() for m in pic_level_generators(t, t.pic)] == ["x*y", "x^2", "y^2"]

    t3 = target_of("mu3")
    assert [m.key() for m in pic_level_generators(t3, t3.pic)] == ["x*y", "x^3", "y^3"]

    full = [t.cl.element([1])]
    assert [m.key() for m in pic_level_generators(t, Subgroup(t.cl, full))] == ["x", "y"]


def test_pic_level_generators_mu4():
    t = target_of("mu4")
    assert [m.key() for m in pic_level_generators(t, t.pic)] == ["y^2", "x^2*y", "x^4"]
    K1 = [t.cl.element([2])]
    assert [m.key() for m in pic_level_generators(t, Subgroup(t.cl, K1))] == ["y", "x^2"]


def _pic_level_generators_oracle(T, K_gens):
    """Brute force: the full exponent box, `is_zero`, and the pair test."""
    Q, proj = quotient_group(T.cl, list(K_gens))
    names = [n for n, _ in T.ring.generators]
    classes = [proj(d) for _, d in T.ring.generators]
    bounds = [element_order(Q, c) for c in classes]
    candidates = []
    for exps in iproduct(*[range(b + 1) for b in bounds]):
        acc = Q.zero()
        for e, c in zip(exps, classes):
            acc = acc + e * c
        if any(exps) and acc.is_zero():
            candidates.append(Monomial(zip(names, exps)))
    candidates.sort(key=lambda m: m.sort_key())
    kept = []
    for m in candidates:
        if not any((a * b).divides(m) for a, b in combinations_with_replacement(kept, 2)):
            kept.append(m)
    return kept


MAX_BOX, MAX_KEYS = 3000, 12
DIAGS = {rank: [d for d in iproduct(range(1, 7), repeat=rank) if 1 < math.prod(d) <= 40]
         for rank in (1, 2, 3)}
VECTORS = {rank: list(iproduct(range(-6, 7), repeat=rank)) for rank in (1, 2, 3)}


def _scan(drawn, candidates, ok):
    """The first candidate from ``drawn`` on, cyclically, that passes ``ok``.

    A drawn candidate that passes is kept as it is, so a strategy drawing
    through the scan reaches every passing candidate and rejects nothing."""
    i = candidates.index(drawn)
    return next(c for c in candidates[i:] + candidates[:i] if ok(c))


def _diagonal_target(moduli, gens):
    """A target with Cl = sum Z/d over ``moduli`` and generators (name, coords)."""
    rank = len(moduli)
    G = FgAbelianGroup(rank, [[d * (i == j) for j in range(rank)] for i, d in enumerate(moduli)])
    ring = GradedRing([(n, G.element(c)) for n, c in gens], G, CycOrder(1))
    return TargetData(cl=G, pic_gens=(), ring=ring)


class _Finite:
    """A finite group G, as canonical coordinates modulo its moduli, with the
    classes in G of integer vectors through the images of the unit vectors."""

    def __init__(self, G, images):
        self.moduli = G.moduli
        self.images = [e.canonical() for e in images]
        self.zero = tuple(0 for _ in self.moduli)
        self.nonzero = sorted(self.span(self.images) - {self.zero})
        self.keys = {}

    def cls(self, v):
        return tuple(sum(x * b[j] for x, b in zip(v, self.images)) % d
                     for j, d in enumerate(self.moduli))

    def order(self, c):
        return math.lcm(*(d // math.gcd(d, x) for d, x in zip(self.moduli, c)))

    def span(self, cs):
        out = {self.zero}
        for c in cs:
            out = {tuple((a + k * b) % d for a, b, d in zip(s, c, self.moduli))
                   for s in out for k in range(self.order(c))}
        return out

    def box(self, cs):
        return math.prod(self.order(c) + 1 for c in cs)

    def key_count(self, cs):
        """The number of Picard-level keys of generators of classes cs: the
        minimal class-zero monomials, which depend on the classes only."""
        cs = tuple(sorted(cs))
        if cs not in self.keys:
            T = _diagonal_target(self.moduli, [(f"g{i}", c) for i, c in enumerate(cs)])
            self.keys[cs] = len(pic_level_generators(T, T.pic))
        return self.keys[cs]

    def related(self, cs, more, lo=0):
        """Whether ``more`` further classes can give generators whose keys
        number at most MAX_KEYS and include a mixed one, in a box of at most
        MAX_BOX.  A mixed key exists exactly when the classes' orders multiply
        to more than the size of their span.  A class-zero generator adds one
        key and a factor 2 to the box, the least any class adds, so only
        nonzero classes (ascending from ``lo``) are tried before the rest is
        filled with zeros."""
        box = self.box(cs)
        if math.prod(self.order(c) for c in cs) > len(self.span(cs)):
            return box << more <= MAX_BOX and self.key_count(cs) + more <= MAX_KEYS
        least = min(map(self.order, self.nonzero), default=MAX_BOX)
        if not more or (box * (least + 1)) << (more - 1) > MAX_BOX:
            return False
        if self.key_count(cs) + more > MAX_KEYS:
            return False
        return any(self.related(cs + (c,), more - 1, i)
                   for i, c in enumerate(self.nonzero) if i >= lo)


@st.composite
def finite_gradings(draw, related=False):
    """Cl of rank <= 3 and order <= 40, up to 4 generators, 0-2 K generators,
    and at most MAX_BOX exponent vectors in the oracle's box.  With
    ``related``, 2-4 generators whose Picard-level keys number at most
    MAX_KEYS and outnumber the generators they use.  Each choice is drawn
    through _scan among those that can still be completed, so nothing is
    rejected."""
    rank = draw(st.integers(1, 3))
    diag = draw(st.sampled_from(DIAGS[rank]))
    rel = [[diag[i] if i == j else (draw(st.integers(-4, 4)) if j > i else 0)
            for j in range(rank)] for i in range(rank)]
    cl = FgAbelianGroup(rank, rel)
    units = [cl.basis_element(i) for i in range(rank)]
    vec = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank).map(tuple)
    C, K = _Finite(cl, units), []
    for _ in range(draw(st.integers(0, 2))):
        # a related grading needs a nontrivial Cl/K
        K.append(_scan(draw(vec), VECTORS[rank], lambda v: not related
                       or len(C.span([C.cls(k) for k in [*K, v]])) < cl.order()))
    K = [cl.element(v) for v in K]
    Q, proj = quotient_group(cl, K)
    F = _Finite(Q, [proj(e) for e in units])
    classes = []

    def completable(c, more):
        cs = (*classes, c)
        if related:
            return F.related(cs, more)
        return F.box(cs) << more <= MAX_BOX

    counts = [2, 3, 4] if related else [1, 2, 3, 4]
    count = _scan(draw(st.sampled_from(counts)), counts,
                  lambda n: not related or F.related((), n))
    names = draw(st.permutations(["y", "x", "w", "z"]))[:count]
    gens = []
    for i, n in enumerate(names):
        ok = lru_cache(maxsize=None)(lambda c: completable(c, count - i - 1))
        v = _scan(draw(vec), VECTORS[rank], lambda v: ok(F.cls(v)))
        classes.append(F.cls(v))
        gens.append((n, cl.element(v)))
    assert math.prod(element_order(Q, proj(d)) + 1 for _, d in gens) <= MAX_BOX
    return TargetData(cl=cl, pic_gens=(), ring=GradedRing(gens, cl, CycOrder(2))), K


@settings(max_examples=60, deadline=None)
@given(finite_gradings())
def test_pic_level_generators_matches_box_oracle(data):
    T, K = data
    assert pic_level_generators(T, Subgroup(T.cl, K)) == _pic_level_generators_oracle(T, K)


@pytest.mark.parametrize("moduli, gens, K, keys", [
    # class-zero generators u, v between generators of nonzero class
    ((2,), [("x", (1,)), ("u", (0,)), ("y", (1,)), ("v", (0,))], [],
     ["u", "v", "x*y", "x^2", "y^2"]),
    # names listed out of alphabetical order
    ((4,), [("z", (1,)), ("y", (2,)), ("x", (3,))], [],
     ["x*z", "y^2", "x^2*y", "y*z^2", "x^4", "z^4"]),
    # the generator of largest order (y, order 6) is not the last
    ((6,), [("x", (3,)), ("y", (1,)), ("z", (2,))], [],
     ["x^2", "x*y*z", "z^3", "x*y^3", "y^2*z^2", "y^4*z", "y^6"]),
    # all three at once, with w of class zero only modulo K
    ((2, 4), [("w", (0, 2)), ("b", (1, 1)), ("a", (0, 0)), ("c", (1, 3))], [(0, 2)],
     ["a", "w", "b*c", "b^2", "c^2"]),
])
def test_pic_level_generators_examples_match_oracle(moduli, gens, K, keys):
    T = _diagonal_target(moduli, gens)
    K = [T.cl.element(k) for k in K]
    got = pic_level_generators(T, Subgroup(T.cl, K))
    assert got == _pic_level_generators_oracle(T, K)
    assert [m.key() for m in got] == keys


def _coset_generators_oracle(T, K_gens, D, p):
    """Brute force: the box oracle's keys for K + <D>, each classified by
    membership queries, skipping F in K and taking the least c in 1..p-1
    with F - c*D in K."""
    K = Subgroup(T.cl, K_gens)
    out = []
    for mono in _pic_level_generators_oracle(T, [*K_gens, D]):
        F = T.ring.monomial_degree(mono)
        if K.express(F) is not None:
            continue
        c = next(c for c in range(1, p) if K.express(F - c * D) is not None)
        out.append((mono, F, c, F - c * D))
    return out


@settings(max_examples=60, deadline=None)
@given(finite_gradings(related=True))
def test_coset_generators_matches_membership_oracle(data):
    T, K = data
    D, p = choose_extension_class(T, Subgroup(T.cl, K))
    _, out = coset_generators(T, Subgroup(T.cl, K), D, p)
    assert out == _coset_generators_oracle(T, K, D, p)


def test_choose_extension_class_examples():
    t = target_of("a1_into_half11")
    D, p = choose_extension_class(t, t.pic)
    assert p == 2 and D == t.cl.element([1])

    t4 = target_of("mu4")
    D, p = choose_extension_class(t4, t4.pic)
    assert p == 2 and D == t4.cl.element([2])  # the order-2 element first

    cl6 = FgAbelianGroup(1, [[6]])
    ring6 = GradedRing([("x", cl6.element([1]))], cl6, CycOrder(6))
    t6 = TargetData(cl=cl6, pic_gens=(), ring=ring6)
    D, p = choose_extension_class(t6, t6.pic)
    assert p == 2  # smallest prime first
    from coxlift.abgroup import element_order

    assert element_order(cl6, D) == 2


def test_choose_extension_class_complete_errors():
    t = target_of("a1_into_half11")
    with pytest.raises(InputDataError, match="already complete"):
        choose_extension_class(t, Subgroup(t.cl, [t.cl.element([1])]))


def test_coset_generators_examples():
    t = target_of("a1_into_half11")
    D, p = choose_extension_class(t, t.pic)
    _, out = coset_generators(t, t.pic, D, p)
    assert [(m.key(), mj) for m, _, mj, _ in out] == [("x", 1), ("y", 1)]

    t3 = target_of("mu3")
    D3, p3 = choose_extension_class(t3, t3.pic)
    _, out3 = coset_generators(t3, t3.pic, D3, p3)
    assert [m.key() for m, _, _, _ in out3] == ["x", "y"]
    # the classes land in distinct cosets of K1/K0
    assert sorted(mj for _, _, mj, _ in out3) == [1, 2]


def test_evaluate_checks_alternative_decompositions():
    spec = load_spec("mu3")
    engine = _Engine(spec.target, spec.source_stack, spec.base, spec.options)
    val = engine.evaluate(Monomial({"x": 3, "y": 3}))
    ring = spec.source_stack.cox_ring
    # (x^3)(y^3) and (xy)^3 must agree modulo the relation v^3 -> uw
    assert ring.elements_equal(val, ring.mono({"u": 1, "w": 1}))


def test_evaluate_table_incomplete():
    spec = load_spec("a1_into_half11")
    engine = _Engine(spec.target, spec.source_stack, spec.base, spec.options)
    with pytest.raises(LiftInconsistencyError, match="table"):
        engine.evaluate(Monomial({"x": 3}))  # odd degree: not in the subring


def _tampered_mu3_engine(c=2):
    """The engine of mu3 once its inputs are validated, with the image of
    the key x*y scaled by c: v -> 2v is off by a scalar that is not a root
    of unity, v -> 0 is zero (the base check would reject both up front)."""
    spec = load_spec("mu3")
    engine = _Engine(spec.target, spec.source_stack, spec.base, spec.options)
    xy = Monomial({"x": 1, "y": 1})
    engine.table[xy] = engine.table[xy].scale(CycScalar.from_rational(engine.order, c))
    return engine


def test_evaluate_rejects_two_decompositions_that_disagree():
    # (x^3)(y^3) -> uw against (x*y)^3 -> 8v^3 = 8uw
    engine = _tampered_mu3_engine()
    with pytest.raises(LiftInconsistencyError,
                       match=r"two decompositions of x\^3\*y\^3 disagree"):
        engine.evaluate(Monomial({"x": 3, "y": 3}))


@pytest.mark.parametrize("c", [2, 0])
def test_divisor_step_rejects_a_kernel_image_off_by_a_scalar(c):
    """The step roots u and w by z1, z2 and fixes x*y's image as a cube
    root of unity times z1*z2; neither 2v = 2*z1*z2 nor 0 is one."""
    with pytest.raises(LiftInconsistencyError,
                       match=r"^kernel monomial x\*y does not map to a 3-th root of unity "):
        _tampered_mu3_engine(c).run()
    spec = load_spec("mu3")
    _Engine(spec.target, spec.source_stack, spec.base, spec.options).run()


def _cyclic_quotient_problem(k, n, j):
    """A^1 -> C^k / mu_n with x_j^n -> t and every other degree-n key -> 0,
    the bench's wide family."""
    cl = FgAbelianGroup(1, [[n]])
    names = [f"x{i}" for i in range(k)]
    ring = GradedRing([(name, cl.element([1])) for name in names], cl, CycOrder(n))
    trivial = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("t", trivial.element(()))], trivial, CycOrder(n)))
    t, zero = source.cox_ring.gen("t"), HomogeneousElement.zero()
    images = {Monomial({name: combo.count(name) for name in names}):
              t if combo == (names[j],) * n else zero
              for combo in combinations_with_replacement(names, n)}
    return (TargetData(cl=cl, pic_gens=(), ring=ring), source,
            BaseMorphism(images=images, group_images=()))


def _divides_calls(call):
    """The number of ``Monomial.divides`` calls that call() makes."""
    calls = [0]
    divides = Monomial.divides

    def counted(self, other):
        calls[0] += 1
        return divides(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Monomial, "divides", counted)
        call()
    return calls[0]


def test_decompositions_make_linearly_many_divisibility_tests():
    """Two greedy scans of at most |keys| + 2*deg tests each, as
    ``_Engine.evaluate`` states."""
    target, source, base = _cyclic_quotient_problem(4, 5, 1)
    engine = _Engine(target, source, base, LiftOptions())
    engine.run()  # the keys are now the 56 degree-5 monomials and x0..x3
    keys = len(engine.table)
    assert keys == 60
    mono = Monomial({"x0": 17, "x1": 9, "x2": 23, "x3": 11})
    calls = _divides_calls(lambda: engine.evaluate(mono))
    assert calls <= 2 * (keys + 2 * mono.total_degree()) < mono.total_degree() * keys
    # two class-zero generators: a search that backtracks over the orders
    # of the keys would try quadratically many partial products here
    cl = FgAbelianGroup(1, [[2]])
    ring = GradedRing([("x", cl.element([0])), ("y", cl.element([0])),
                       ("w", cl.element([1]))], cl, CycOrder(2))
    trivial = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("t", trivial.element(()))], trivial, CycOrder(2)))
    target = TargetData(cl=cl, pic_gens=(), ring=ring)
    t = source.cox_ring.gen("t")
    images = {m: t for m in pic_level_generators(target, target.pic)}
    engine = _Engine(target, source, BaseMorphism(images=images, group_images=()),
                     LiftOptions())
    assert sorted(m.key() for m in engine.table) == ["w^2", "x", "y"]
    mono = Monomial({"x": 20, "y": 20})
    calls = _divides_calls(lambda: engine.evaluate(mono))
    assert calls <= 2 * (3 + 2 * 40)


@pytest.mark.parametrize("n,N,missed", [(3, 1, True), (6, 2, True), (12, 3, True),
                                         (8, 2, False), (12, 6, False)])
def test_step_prime_outside_the_cyclotomic_order_is_rejected_before_any_step(n, N, missed):
    """C / mu_n over A^1 with x^n -> t: the steps root by the primes of n,
    and N must contain each of them.  Documents never miss one, because
    the reader takes N as the lcm with the exponent of Cl/Pic."""
    cl = FgAbelianGroup(1, [[n]])
    target = TargetData(cl=cl, pic_gens=(), ring=GradedRing([("x", cl.element([1]))], cl,
                                                                CycOrder(N)))
    trivial = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("t", trivial.element(()))], trivial, CycOrder(N)))
    base = BaseMorphism(images={Monomial({"x": n}): source.cox_ring.gen("t")},
                        group_images=())
    if not missed:
        assert _Engine(target, source, base, LiftOptions()).steps == []
        return
    with pytest.raises(InputDataError,
                       match=f"cyclotomic order {N} misses a step prime: every prime "
                             rf"factor of \|Cl/Pic\| = {n} must divide it"):
        _Engine(target, source, base, LiftOptions())


def test_trivial_lift_is_verbatim():
    spec = load_spec("identity_half11")
    res = lift_of("identity_half11")
    assert res.stack.tower == ()
    assert res.steps == ()
    for mono, img in spec.base.images.items():
        (name, e) = mono.pairs[0]
        assert e == 1
        assert res.images[name] == img
    assert res.verification.passed


def test_golden_half11():
    res = lift_of("a1_into_half11")
    assert len(res.stack.tower) == 1
    step = res.stack.tower[0]
    assert step.kind == "divisor"
    info = step.roots[0]
    assert info.order == 2 and info.section.key() == "1*t"
    assert res.stack.pic.canonical_form == (0, (2,))
    assert res.images["x"].key() == "1*z1"
    assert res.images["y"].is_zero()
    assert res.verification.passed


def test_golden_mu3_constraints():
    res = lift_of("mu3")
    step = res.steps[0]
    assert step.constraint_strings() == ("i+j ≡ 0 (mod 3)",)
    assert step.solution_count == 3
    assert step.alpha == (0, 0)
    assert step.kernel_monomials == ("x*y",)


def test_verify_lift_flags_tampered_degree():
    spec = load_spec("a1_into_half11")
    res = lift_of("a1_into_half11")
    ring = res.stack.cox_ring
    tampered = dict(res.images)
    tampered["x"] = ring.mono({"z1": 2})  # wrong degree
    fake = CoxLiftResult(
        target=res.target, base=res.base, source_stack=res.source_stack,
        stack=res.stack, images=tampered, group_map=res.group_map,
        table=res.table, steps=res.steps,
    )
    report = verify_lift(spec.target, spec.source_stack, spec.base, fake)
    failures = [c for c in report.checks if not c.passed]
    assert "homogeneity" in [c.name for c in failures]
    assert "x" in [c for c in failures if c.name == "homogeneity"][0].detail


def test_verify_lift_flags_wrong_unit_choice():
    """Images x -> zeta*z1, y -> zeta*z2 violate i+j = 0: the product no
    longer restricts to the base image of x*y."""
    spec = load_spec("mu3")
    res = lift_of("mu3")
    ring = res.stack.cox_ring
    N = ring.scalar_order
    zeta = CycScalar.zeta(N)
    tampered = dict(res.images)
    tampered["x"] = res.images["x"].scale(zeta)
    tampered["y"] = res.images["y"].scale(zeta)
    fake = CoxLiftResult(
        target=res.target, base=res.base, source_stack=res.source_stack,
        stack=res.stack, images=tampered, group_map=res.group_map,
        table=res.table, steps=res.steps,
    )
    report = verify_lift(spec.target, spec.source_stack, spec.base, fake)
    assert not report.passed
    assert "restriction" in [c.name for c in report.checks if not c.passed]


def test_verify_lift_flags_a_group_map_into_another_group():
    """The group-map check rebuilds the map from the target's class group
    into the result's Pic.  A result document cannot fail it: reading one
    builds that same map, and rejects it first.  A result assembled from
    parts can: here Z/3 is presented as Z/(3) instead of the Pic's Z/(-3).
    The images are 0, so no other check reads the group map's images."""
    spec = load_spec("mu3_zero")
    res = lift_of("mu3_zero")
    assert res.stack.pic.relations.entries == ((-3,),)
    other = FgAbelianGroup(1, [[3]])
    fake = replace(res, group_map=GroupHomomorphism(spec.target.cl, other,
                                                    [other.element([1])]))
    report = verify_lift(spec.target, spec.source_stack, spec.base, fake)
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("group-map", "homomorphism image lies in the wrong group")]


def test_verify_lift_rejects_a_generator_without_an_image():
    spec = load_spec("a1_into_half11")
    res = lift_of("a1_into_half11")
    fake = replace(res, images={"x": res.images["x"]})
    with pytest.raises(InputDataError, match="generator y has no image"):
        verify_lift(spec.target, spec.source_stack, spec.base, fake)


def test_verify_lift_rejects_a_base_key_outside_the_target_ring():
    """Parsing rejects such a key, so only a library call reaches this."""
    spec = load_spec("a1_into_half11")
    res = lift_of("a1_into_half11")
    img = next(iter(spec.base.images.values()))
    base = replace(spec.base, images={**spec.base.images, Monomial({"w": 2}): img})
    with pytest.raises(InputDataError, match="no image recorded for generator w"):
        verify_lift(spec.target, spec.source_stack, base, res)


def test_engine_rejects_rings_over_different_cyclotomic_orders():
    """Documents give both rings one order, so only a library call reaches this."""
    spec = load_spec("a1_into_half11")
    T = spec.target
    ring = GradedRing(T.ring.generators, T.ring.grading_group, CycOrder(4))
    with pytest.raises(InputDataError, match="target and source rings use different"):
        run_cox_lift(replace(T, ring=ring), spec.source_stack, spec.base, spec.options)


def test_engine_rejects_a_group_image_count_off_the_picard_generators():
    """Parsing checks the count against pic_subgroup first, so only a library
    call reaches this."""
    spec = load_spec("identity_half11")
    for images in ((), spec.base.group_images * 2):
        with pytest.raises(InputDataError, match="one group image per Picard generator"):
            run_cox_lift(spec.target, spec.source_stack,
                         replace(spec.base, group_images=images), spec.options)


def test_mutated_base_unit_aborts_with_diagnostic():
    # a consistent-looking scaling still has no square root of unity
    raw = load_raw("a1_into_half11")
    raw["base_morphism"]["images"][0]["image"]["terms"][0]["c"] = "2"  # x^2 -> 2t
    spec = parse_problem(raw)
    with pytest.raises(LiftInconsistencyError, match="root of unity"):
        run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)


def test_mutated_base_image_caught_by_relation_spotcheck():
    raw = load_raw("mu3")
    raw["base_morphism"]["images"][0]["image"]["terms"][0]["c"] = "2"  # x^3 -> 2u
    spec = parse_problem(raw)
    with pytest.raises((InputDataError, LiftInconsistencyError)):
        run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)


def test_base_check_rejects_mixed_pair_and_triple_fibre():
    raw = load_raw("mu3")
    raw["base_morphism"]["images"][0]["image"]["terms"][0]["c"] = "2"  # x^3 -> 2u
    spec = parse_problem(raw)
    # x^3 * y^3 (a pair) and (x*y)^3 (a triple) give 2uw against uw
    with pytest.raises(InputDataError, match=r"inconsistent on the monomial x\^3\*y\^3$"):
        run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)


def _z3_squared_problem(xyz_coeff):
    """C^3 / (Z/3)^2 with degrees (1,0), (0,1), (2,2): keys x*y*z, x^3, y^3
    and z^3, whose pairwise products are all distinct; only the triples
    (x*y*z)^3 = x^3*y^3*z^3 relate them."""
    cl = FgAbelianGroup(2, [[3, 0], [0, 3]])
    ring = GradedRing([("x", cl.element([1, 0])), ("y", cl.element([0, 1])),
                       ("z", cl.element([2, 2]))], cl, CycOrder(3))
    target = TargetData(cl=cl, pic_gens=(), ring=ring)
    trivial = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("t", trivial.element(()))], trivial, CycOrder(3)))
    t = source.cox_ring.gen("t")
    images = {Monomial({n: 3}): t for n in "xyz"}
    coeff = CycScalar.from_rational(CycOrder(3), xyz_coeff)
    images[Monomial({"x": 1, "y": 1, "z": 1})] = t.scale(coeff)
    return target, source, BaseMorphism(images=images, group_images=())


def test_base_check_rejects_triple_only_inconsistency():
    target, source, base = _z3_squared_problem(2)  # (2t)^3 = 8t^3 against t^3
    assert sorted(m.key() for m in pic_level_generators(target, target.pic)) == [
        "x*y*z", "x^3", "y^3", "z^3"]
    with pytest.raises(InputDataError, match=r"inconsistent on the monomial x\^3\*y\^3\*z\^3$"):
        run_cox_lift(target, source, base)
    target, source, base = _z3_squared_problem(1)
    assert run_cox_lift(target, source, base).verification.passed


def _z4_squared_problem(images):
    """C^3 / (Z/4)^2 with degrees (1,0), (0,1), (3,3): keys x*y*z, x^4, y^4
    and z^4, whose only relation (x*y*z)^4 = x^4*y^4*z^4 needs four keys
    on one side, so no product of at most three keys relates them."""
    order = CycOrder(4)
    cl = FgAbelianGroup(2, [[4, 0], [0, 4]])
    ring = GradedRing([("x", cl.element([1, 0])), ("y", cl.element([0, 1])),
                       ("z", cl.element([3, 3]))], cl, order)
    target = TargetData(cl=cl, pic_gens=(), ring=ring)
    trivial = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("t", trivial.element(()))], trivial, order))
    keys = ["x*y*z", "x^4", "y^4", "z^4"]
    assert [m.key() for m in pic_level_generators(target, target.pic)] == keys
    table = {}
    for key, (coeff, exp) in zip(keys, images):
        mono = Monomial({n: 1 for n in "xyz"} if key == "x*y*z" else {key[0]: 4})
        table[mono] = (HomogeneousElement.zero() if coeff == 0 else
                       source.cox_ring.mono({"t": exp}, CycScalar.from_rational(order, coeff)))
    return target, source, BaseMorphism(images=table, group_images=())


def test_base_check_rejects_four_key_inconsistency():
    # (2t^3)^4 = 16 t^12 against (t^4)^3: only the scalars disagree
    target, source, base = _z4_squared_problem([(2, 3), (1, 4), (1, 4), (1, 4)])
    with pytest.raises(InputDataError, match=r"inconsistent on the monomial x\^4\*y\^4\*z\^4$"):
        run_cox_lift(target, source, base)
    # x, y, z -> t, -t, t induces it with (-1)^4 = 1
    target, source, base = _z4_squared_problem([(-1, 3), (1, 4), (1, 4), (1, 4)])
    assert run_cox_lift(target, source, base).verification.passed


def test_base_check_rejects_zero_key_inside_the_nonzero_support():
    # x*y*z -> 0 while x^4, y^4, z^4 -> t^4: (x*y*z)^4 maps to 0 and
    # x^4*y^4*z^4 to t^12, and no product of at most three keys shows it
    target, source, base = _z4_squared_problem([(0, 0), (1, 4), (1, 4), (1, 4)])
    with pytest.raises(InputDataError, match=r"inconsistent on the monomial x\^4\*y\^4\*z\^4$"):
        run_cox_lift(target, source, base)


def test_base_check_rejects_four_key_inconsistency_of_multi_term_images():
    # x^4, y^4, z^4 -> (t+1)^4 and x*y*z -> 2(t+1)^3: (x*y*z)^4 gives
    # 16(t+1)^12 against (t+1)^12, and no product of at most three keys shows it
    target, source, base = _z4_squared_problem([(1, 4)] * 4)
    ring = source.cox_ring
    s = ring.gen("t") + ring.one()
    xyz = Monomial({n: 1 for n in "xyz"})
    for coeff, consistent in ((2, False), (-1, True)):
        images = {k: s ** 4 for k in base.images}
        images[xyz] = (s ** 3).scale(CycScalar.from_rational(ring.scalar_order, coeff))
        multi = replace(base, images=images)
        if consistent:  # x, y, z -> t+1, -(t+1), t+1 induces it
            assert run_cox_lift(target, source, multi).verification.passed
            continue
        with pytest.raises(InputDataError, match=r"inconsistent on the monomial x\^4\*y\^4\*z\^4$"):
            run_cox_lift(target, source, multi)


def _pair_triple_scan(ring, table):
    """A bounded check, as an oracle for the verdict: products of two keys,
    then of three, each compared with the first product of its monomial.
    The message naming the first clash, or None."""
    keys = sorted(table, key=lambda m: m.sort_key())
    seen = {}
    for size in (2, 3):
        for combo in combinations_with_replacement(keys, size):
            mono, img = Monomial.one(), ring.one()
            for k in combo:
                mono, img = mono * k, img * table[k]
            img = ring.normal_form(img)
            ref = seen.setdefault(mono, img)
            if not ring.elements_equal(ref, img):
                return f"base images are inconsistent on the monomial {mono.key()}"
    return None


def _key_products(keys, table, mono, start=0):
    """The images of every product of keys (from ``start`` on) equal to ``mono``."""
    if mono.is_one():
        yield None
        return
    for i in range(start, len(keys)):
        if keys[i].divides(mono):
            for rest in _key_products(keys, table, mono.div(keys[i]), i):
                yield table[keys[i]] if rest is None else table[keys[i]] * rest


@st.composite
def monomial_base_maps(draw):
    """Monomial images of at most 12 Picard-level keys with relations among
    them, in a rule-free source with 1-3 generators over Q(zeta_N): a
    monomial map on the target generators (zero images, rational scalars
    and roots of unity included) pushed to the keys, then 0-2 key images
    replaced, rescaled or multiplied by a source generator."""
    T, K = draw(finite_gradings(related=True))
    keys = pic_level_generators(T, Subgroup(T.cl, K))
    # more keys than the generators they use, so the keys have relations
    assert len({n for k in keys for n in k.names()}) < len(keys) <= MAX_KEYS
    order = CycOrder(draw(st.sampled_from([1, 3, 4, 6])))
    trivial = FgAbelianGroup(0, [])
    names = ["s", "t", "u"][:draw(st.integers(1, 3))]
    ring = GradedRing([(n, trivial.element(())) for n in names], trivial, order)

    def scalar():
        q = CycScalar.from_rational(order, draw(st.sampled_from([1, 1, -1, 2, -3, "1/2"])))
        return q * CycScalar.zeta(order, draw(st.integers(0, order.N - 1)))

    def image():
        if draw(st.integers(0, 4)) == 0:
            return HomogeneousElement.zero()
        return ring.mono({n: draw(st.integers(0, 2)) for n in names}, scalar())

    on_gens = {n: image() for n, _ in T.ring.generators}
    table = {}
    for k in keys:
        img = ring.one()
        for n, e in k.pairs:
            img = img * on_gens[n] ** e
        table[k] = img
    changed = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    for k in changed:
        how = draw(st.sampled_from(["replace", "rescale", "shift"]))
        if how == "replace":
            table[k] = image()
        elif how == "rescale":
            table[k] = table[k].scale(scalar())
        else:
            table[k] = table[k] * ring.gen(draw(st.sampled_from(names)))
    return ring, keys, table, bool(changed)


@settings(max_examples=100, deadline=None)
@given(monomial_base_maps())
def test_exact_base_check_matches_pair_triple_scan(data):
    ring, keys, table, changed = data
    engine = object.__new__(_Engine)
    engine.stack, engine.table = canonical_stack(ring), table
    want = _pair_triple_scan(ring, table)
    try:
        engine._spotcheck_base_relations()
        got = None
    except InputDataError as exc:
        got = str(exc)
    if not changed:
        assert want is None and got is None
    if want is not None:
        assert got is not None
    if got is not None:
        # the named monomial is a product of keys in two ways with
        # different images, whether the scan sees a clash or not
        mono = Monomial(dict(p.split("^") if "^" in p else (p, 1)
                             for p in got.rsplit(" ", 1)[1].split("*")))
        images = {img.terms for img in _key_products(keys, table, mono)}
        assert len(images) > 1


# A point of Spec C[t, u, v, w]/(v^3 - u*w) over F_Q, for the prime Q = 1
# mod 12, with zeta_N sent to a primitive N-th root of unity mod Q.
# Evaluation there is a ring map, so products whose values differ have
# different images; distinct images share a value with chance about deg/Q.
_Q = 1_000_000_009
_ZETA12 = next(z for z in (pow(r, (_Q - 1) // 12, _Q) for r in range(2, 99))
               if pow(z, 4, _Q) != 1 and pow(z, 6, _Q) != 1)
_POINT = {"t": 271828183, "u": 314159265, "v": 141421356}
_POINT["w"] = _POINT["v"] ** 3 * pow(_POINT["u"], -1, _Q) % _Q


def _value(img, N):
    """The value of img at _POINT, in F_Q."""
    zeta = pow(_ZETA12, 12 // N, _Q)
    return sum(sum(a * pow(zeta, i, _Q) for i, a in enumerate(c.num)) * pow(c.den, -1, _Q)
               * math.prod(pow(_POINT[n], e, _Q) for n, e in m.pairs)
               for c, m in img.terms) % _Q


@st.composite
def product_base_maps(draw):
    """Images that are products of linear forms t - r, of the keys of a
    related grading as in ``monomial_base_maps``, over a domain source:
    C[t], or C[t, u, v, w]/(v^3 - u*w) with its one confluent rule, over
    Q(zeta_N).  Each target generator goes to 0 or to c*(t - r)^e (times v
    in the ring with the rule), pushed to the keys; then 0-2 key images are
    replaced, rescaled, multiplied by a linear form, or set to v^3 - u*w,
    which is zero in normal form."""
    T, K = draw(finite_gradings(related=True))
    keys = pic_level_generators(T, Subgroup(T.cl, K))
    order = CycOrder(draw(st.sampled_from([1, 3, 4])))
    trivial = FgAbelianGroup(0, [])
    with_rule = draw(st.booleans())
    names = ["t", "u", "v", "w"] if with_rule else ["t"]
    rules = [RewriteRule(Monomial({"v": 3}), HomogeneousElement.monomial(
        order, Monomial({"u": 1, "w": 1})))] if with_rule else []
    ring = GradedRing([(n, trivial.element(())) for n in names], trivial, order, rules)
    assert ring.nonjoinable_pair() is None
    t = ring.gen("t")

    def scalar():
        q = CycScalar.from_rational(order, draw(st.sampled_from([1, 1, -1, 2, "1/2"])))
        return q * CycScalar.zeta(order, draw(st.integers(0, order.N - 1)))

    def linear():
        return t - ring.const(CycScalar.from_rational(order, draw(st.sampled_from([0, 1, -1, 2]))))

    def image():
        if draw(st.integers(0, 4)) == 0:
            return HomogeneousElement.zero()
        img = ring.const(scalar())
        if draw(st.booleans()):
            img = img * linear()
        if with_rule and draw(st.booleans()):
            img = img * ring.gen("v")
        return img

    on_gens = {n: image() for n, _ in T.ring.generators}
    table = {}
    for k in keys:
        img = ring.one()
        for n, e in k.pairs:
            img = img * on_gens[n] ** e
        table[k] = img
    changed = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    for k in changed:
        how = draw(st.sampled_from(["replace", "rescale", "shift", "zero"]))
        if how == "replace":
            table[k] = image()
        elif how == "rescale":
            table[k] = table[k].scale(scalar())
        elif how == "shift":
            table[k] = table[k] * linear()
        else:
            table[k] = ring.gen("v") ** 3 - ring.mono({"u": 1, "w": 1}) if with_rule else image()
    return ring, keys, table, bool(changed)


@settings(max_examples=100, deadline=None)
@given(product_base_maps())
def test_exact_base_check_matches_key_products_on_multi_term_images(data):
    """The verdict against the brute-force oracle, with values at _POINT
    standing in for the images of key products: an accepted map has one
    value on every product of at most four keys, and a rejected one has two
    on the named monomial."""
    ring, keys, table, changed = data
    engine = object.__new__(_Engine)
    engine.stack, engine.table = canonical_stack(ring), table
    try:
        engine._spotcheck_base_relations()
        got = None
    except InputDataError as exc:
        got = str(exc)
    names = sorted({n for k in keys for n in k.names()})
    values = {tuple(k.exp(n) for n in names): _value(table[k], ring.scalar_order.N)
              for k in keys}

    @lru_cache(maxsize=None)
    def products(vec):
        """The values of _key_products on the monomial with exponents vec,
        mod Q and memoized on what is left to factor."""
        if not any(vec):
            return {1}
        return {v * rest % _Q for k, v in values.items() if all(map(le, k, vec))
                for rest in products(tuple(map(sub, vec, k)))}

    if not changed:
        assert got is None
    if got is None:
        level = set(values)
        for _ in range(3):  # products of two, three and four keys
            level = {tuple(map(add, v, k)) for v in level for k in values}
            assert all(len(products(v)) == 1 for v in level)
    else:
        named = dict(p.split("^") if "^" in p else (p, 1)
                     for p in got.rsplit(" ", 1)[1].split("*"))
        assert len(products(tuple(int(named.get(n, 0)) for n in names))) > 1


@pytest.mark.parametrize("name", ["cyclic12", "mu3", "mu4", "a1_into_half11"])
def test_divisor_steps_take_the_lex_min_root_of_unity_choice(name):
    """Each divisor step's rows are the kernel rows of its nonzero pullbacks'
    coset classes, and its closed-form alpha and count are _solve_mod's."""
    steps = [s for s in lift_of(name).steps if s.kind == "divisor"]
    assert steps
    for step in steps:
        classes = [c for g, c in zip(step.gens, step.cosets) if g.key() not in step.zero_pullbacks]
        assert step.constraint_rows == tuple(_coset_kernel_rows(classes, step.p))
        assert _solve_mod(step.constraint_rows, step.constraint_rhs, len(classes), step.p) == (
            step.alpha, step.solution_count)


def test_free_class_group_lifts_in_one_divisor_step():
    """P^1 -> P(1,1,2): Cl/Pic = Z/2, and the one divisor step at p = 2
    roots no factor (the pullbacks s^2 and t^2 are squares), so the lift is
    the map itself and Pic stays Z."""
    res = lift_of("p1_into_p112")
    assert {n: img.key() for n, img in res.images.items()} == {
        "x0": "1*s", "x1": "1*t", "y": "1*s^2 + 1*t^2"}
    assert [(s.kind, s.p, s.roots) for s in res.steps] == [("divisor", 2, ())]
    assert res.stack.pic.canonical_form == (1, ())
    assert res.verification.passed
    assert_factors_through_itself_as_identity(res)


def test_free_class_group_rejects_an_inconsistent_base_image():
    # (x0*x1)^2 = x0^2*x1^2 gives (3st)^2 = 9 s^2 t^2 against s^2 * t^2
    spec = parse_problem(p1_into_p112_problem(xy_coeff=3))
    with pytest.raises(InputDataError, match=r"inconsistent on the monomial x0\^2\*x1\^2$"):
        run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)


def test_cyclic_quotient_lift_a34():
    """A^1 -> C^3 / mu_4 with x1^4 -> t and every other degree-4 key -> 0:
    Pic = Z/4, x1 maps to a unit times one root w with w^4 = t, and x0, x2
    map to 0."""
    cl = FgAbelianGroup(1, [[4]])
    names = ["x0", "x1", "x2"]
    ring = GradedRing([(n, cl.element([1])) for n in names], cl, CycOrder(4))
    target = TargetData(cl=cl, pic_gens=(), ring=ring)
    trivial = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("t", trivial.element(()))], trivial, CycOrder(4)))
    t, zero = source.cox_ring.gen("t"), HomogeneousElement.zero()
    images = {}
    for combo in combinations_with_replacement(names, 4):
        mono = Monomial({n: combo.count(n) for n in names})
        images[mono] = t if combo == ("x1",) * 4 else zero
    assert sorted(images, key=lambda m: m.sort_key()) == pic_level_generators(target, target.pic)
    res = run_cox_lift(target, source, BaseMorphism(images=images, group_images=()))
    assert res.verification.passed
    assert res.stack.pic.canonical_form == (0, (4,))
    assert res.images["x0"].is_zero() and res.images["x2"].is_zero()
    ((unit, w),) = res.images["x1"].terms
    assert not unit.is_zero() and len(w.pairs) == 1 and w.pairs[0][1] == 1
    out = res.stack.cox_ring
    assert out.elements_equal(out.gen(w.names()[0]) ** 4, out.gen("t"))


def test_a_multi_root_pushout_step_keeps_its_result_document():
    """x^12 -> (t - 1)(t + 2)(t - 3): each of the steps p = 2, 2, 3 roots
    three factors by iterated pushouts."""
    res = lift_of("cyclic12")
    assert res.verification.passed
    assert [(s.p, s.group_mode, len(s.roots)) for s in res.steps] == [
        (2, "pushout", 3), (2, "pushout", 3), (3, "pushout", 3)]
    text = result_json(run_document(cyclic_problem(12, (1, -2, 3))))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "de74b200c803997432dbecf64d23f586ae95cd67a69723d92e501c95fead6df5")


@pytest.mark.parametrize("name", ["cyclic12", "mu3", "mu4", "a1_into_half11", "mu3_zero"])
def test_each_lift_step_grows_the_stack_in_one_construction(monkeypatch, name):
    """One ``extend`` per lift step, however many roots it takes, and one
    more for the discarded pushout attempt of a universal step; the engine
    does not go through ``root_divisor``."""
    spec = load_spec(name)
    engine = _Engine(spec.target, spec.source_stack, spec.base, spec.options)
    at_step = []
    real_extend = mdstack.extend

    def counting_extend(S, *steps):
        at_step.append(len(engine.steps))
        return real_extend(S, *steps)

    def no_root_divisor(*args):
        raise AssertionError("root_divisor called")

    monkeypatch.setattr(mdstack, "extend", counting_extend)
    monkeypatch.setattr(lift, "extend", counting_extend)
    monkeypatch.setattr(mdstack, "root_divisor", no_root_divisor)
    engine.run()
    assert engine.steps
    assert at_step == [i for i, s in enumerate(engine.steps)
                       for _ in range(2 if s.group_mode == "universal" else 1)]


def _pinned_after_a_fresh_factor_problem():
    """Source a, b, c with c^2 -> ab, declared c = z1*z2 over z1^2 = a and
    z2^2 = b, and abc + ab = a*b*(c + 1); target C/mu_2 with x^2 -> abc + ab.
    The factor c + 1, unpinned, comes first in factor order."""
    def el(*terms):
        return {"terms": [{"c": "1", "m": m} for m in terms]}

    return {
        "schema": "coxlift/1",
        "name": "pinned_after_fresh",
        "cyclotomic_order": 2,
        "target": {
            "class_group": {"ambient_rank": 1, "relations": [[2]]},
            "pic_subgroup": [],
            "generators": [{"name": "x", "degree": [1]}],
            "relations": [],
            "irrelevant": [],
        },
        "source": {
            "class_group": {"ambient_rank": 0, "relations": []},
            "generators": [{"name": n, "degree": []} for n in "abc"],
            "relations": [{"lhs": {"c": 2}, "rhs": el({"a": 1, "b": 1})}],
            "irreducibles": ["a", "b"],
            "declared_factorizations": [
                {"element": el({"c": 1}), "unit": {"zeta": 0},
                 "factors": [["z1", 1], ["z2", 1]],
                 "roots": [{"name": "z1", "section": el({"a": 1}), "order": 2},
                           {"name": "z2", "section": el({"b": 1}), "order": 2}]},
                {"element": el({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1}), "unit": {"zeta": 0},
                 "factors": [[el({"a": 1}), 1], [el({"b": 1}), 1], [el({"c": 1}, {}), 1]],
                 "roots": []},
            ],
            "irrelevant": [],
            "assertions": {"units_of_complement_trivial": True,
                           "pic_of_complement_trivial": True},
        },
        "base_morphism": {
            "group_map": [],
            "images": [{"monomial": {"x": 2},
                        "image": el({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1})}],
        },
        "options": {"step_cap": 10000, "spotcheck_bound": 4},
    }


def test_pinned_root_names_are_given_before_fresh_ones():
    """a and b are pinned to z1 and z2 by the declaration's roots context;
    c + 1 comes first but must not take z1."""
    spec = parse_problem(_pinned_after_a_fresh_factor_problem())
    res = run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)
    assert res.verification.passed
    (step,) = res.steps
    assert step.roots == (("1*1 + 1*c", 2, "z3"), ("1*a", 2, "z1"), ("1*b", 2, "z2"))
    ring = res.stack.cox_ring
    assert ring.elements_equal(ring.gen("z1") ** 2, ring.gen("a"))
    assert ring.elements_equal(ring.gen("z2") ** 2, ring.gen("b"))


def test_mutated_declared_unit_rejected_at_load():
    raw = load_raw("mu3")
    raw["source"]["declared_factorizations"][0]["unit"] = "2"
    with pytest.raises(InputDataError, match="fails verification"):
        parse_problem(raw)


def test_mutated_declared_factors_rejected_at_load():
    raw = load_raw("mu3")
    raw["source"]["declared_factorizations"][0]["factors"] = [["z1", 2], ["z2", 1]]
    with pytest.raises(InputDataError, match="fails verification"):
        parse_problem(raw)


def test_alternative_declared_unit_changes_alpha():
    raw = load_raw("mu3")
    raw["source"]["declared_factorizations"][0]["unit"] = {"zeta": 1}
    spec = parse_problem(raw)
    res = run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)
    step = res.steps[0]
    assert step.constraint_strings() == ("i+j ≡ 1 (mod 3)",)
    assert step.alpha == (0, 1)
    assert step.solution_count == 3
    assert res.verification.passed


def point_lift_for(spec):
    """The un-rooted point as a would-be lift with all images zero."""
    clx = spec.source_stack.coarse.group
    zero_hom = GroupHomomorphism(
        spec.target.cl, clx, [clx.zero()] * spec.target.cl.ambient_rank
    )
    zero = HomogeneousElement.zero()
    return CoxLiftResult(
        target=spec.target, base=spec.base, source_stack=spec.source_stack,
        stack=spec.source_stack,
        images={n: zero for n, _ in spec.target.ring.generators},
        group_map=zero_hom, table=dict(spec.base.images),
    )


def test_factors_through_identity_and_point():
    spec = load_spec("origin_into_half11")
    res = lift_of("origin_into_half11")
    assert isinstance(check_factors_through(res, res), Theta)
    pt = point_lift_for(spec)
    assert verify_lift(spec.target, spec.source_stack, spec.base, pt).passed
    # the point is not minimal: the computed lift does not factor through it
    out = check_factors_through(pt, res)
    assert isinstance(out, NoFactor)
    # while the point itself does factor through the computed lift
    assert isinstance(check_factors_through(res, pt), Theta)


def test_factors_through_deeper_root():
    """A 4th root of t hosts the computed square-root lift: z1 -> w^2."""
    spec = load_spec("a1_into_half11")
    res = lift_of("a1_into_half11")
    N = spec.order
    source = spec.source_stack
    cand_stack = root_divisor(source, source.cox_ring.gen("t"), 4, "w")
    w2 = cand_stack.cox_ring.mono({"w": 2})
    psi = GroupHomomorphism(
        spec.target.cl, cand_stack.pic, [cand_stack.pic.element([2])]
    )
    cand = CoxLiftResult(
        target=spec.target, base=spec.base, source_stack=source, stack=cand_stack,
        images={"x": w2, "y": HomogeneousElement.zero()},
        group_map=psi,
    )
    assert verify_lift(spec.target, source, spec.base, cand).passed
    out = check_factors_through(res, cand)
    assert isinstance(out, Theta)
    assert out.ring_images["z1"].key() == "1*w^2"
    # and the flip fails: the deeper root does not factor through the lift
    back = check_factors_through(cand, res)
    assert isinstance(back, NoFactor)


def test_factors_through_extra_root_candidate():
    """Adding one extra root on top of the computed result still factors."""
    res = lift_of("mu3")
    spec = load_spec("mu3")
    extra_stack = root_divisor(res.stack, res.stack.cox_ring.gen("z1"), 2, "extra")
    incl = GroupHomomorphism(
        res.stack.pic,
        extra_stack.pic,
        [extra_stack.pic.element(tuple(r) + (0,))
         for r in [tuple(int(i == j) for j in range(res.stack.pic.ambient_rank))
                   for i in range(res.stack.pic.ambient_rank)]],
    )
    cand = CoxLiftResult(
        target=res.target, base=res.base, source_stack=res.source_stack,
        stack=extra_stack,
        images=res.images,
        group_map=GroupHomomorphism(res.group_map.domain, extra_stack.pic,
                                    [incl(img) for img in res.group_map.images]),
        table=res.table,
    )
    assert verify_lift(spec.target, spec.source_stack, spec.base, cand).passed
    assert isinstance(check_factors_through(res, cand), Theta)


def test_termination_bound_is_respected():
    res = lift_of("mu4")
    assert len(res.steps) == 2
    for s in res.steps:
        assert s.p == 2


def _line_bundle_over_roots_stack():
    """x rooted by 2 and then by 3, plus a line-bundle root: its
    decomposition roots a line bundle and then two divisors."""
    order = CycOrder(6)
    # a nonzero Picard subgroup: with none, [K; relations] would be the
    # quotient's own matrix [relations; K]
    cl0 = FgAbelianGroup(1, [[2]])
    gen = cl0.element([1])
    stack = canonical_stack(GradedRing([("x", gen), ("y", gen)], cl0, order))
    stack = root_divisor(stack, stack.cox_ring.gen("x"), 2, "r1")
    stack = root_divisor(stack, stack.cox_ring.gen("r1"), 3, "r2")
    return root_line_bundle(stack, stack.pic.element([1, 0, 0]), 2)


def assert_factors_through_itself_as_identity(res):
    """Theta(res, res) of the result without its step records, as
    ``coxlift verify`` rebuilds one: the identity on Pic and on every
    generator of the lifted ring."""
    bare = replace(res, steps=())
    theta = check_factors_through(bare, bare)
    assert isinstance(theta, Theta), theta
    pic = res.stack.pic
    assert [g == pic.basis_element(i) for i, g in enumerate(theta.group_map.images)] \
        == [True] * pic.ambient_rank
    ring = res.stack.cox_ring
    for name, _deg in ring.generators:
        assert ring.elements_equal(theta.ring_images[name], ring.gen(name)), name


@pytest.mark.parametrize("name", [
    p.stem for p in sorted(PROBLEMS.glob("*.json")) if "decompose" not in load_raw(p.stem)
])
def test_lift_factors_through_itself_without_step_records(name):
    assert_factors_through_itself_as_identity(lift_of(name))


def test_decomposition_factors_through_itself_without_step_records():
    res = decompose_as_roots(_line_bundle_over_roots_stack())
    assert [s.kind for s in res.stack.tower] == ["line_bundle", "divisor", "divisor"]
    assert_factors_through_itself_as_identity(res)


def _tower_over_affine_space(ngens, steps):
    """A^ngens rooted step by step, as ``tower_over`` reads the steps."""
    cl0 = FgAbelianGroup(0, [])
    names = [f"x{i}" for i in range(ngens)]
    return tower_over(GradedRing([(n, cl0.zero()) for n in names], cl0, CycOrder(30)), steps)


def test_decomposition_factors_through_its_input_read_without_a_tower():
    """The bench's T2g3s#5: x0 = r2^5 = r3^15.  The engine roots x0 by 3 and
    then by 5, so its roots are read off the input's declared
    factorizations, not off its tower."""
    stack = _tower_over_affine_space(2, [
        ("divisor", "x1", 5, "r1"), ("divisor", "x0", 5, "r2"), ("divisor", "r2", 3, "r3"),
    ])
    res = decompose_as_roots(stack)
    theta = check_factors_through(res, stack_as_lift(res, replace(stack, tower=())))
    assert isinstance(theta, Theta), theta
    # both ways against the stack with its tower: the two stacks are
    # isomorphic, whatever the reconstruction check says of them
    assert isinstance(check_factors_through(res, stack_as_lift(res, stack)), Theta)
    assert isinstance(check_factors_through(stack_as_lift(res, stack), res), Theta)


def test_decomposition_factors_through_its_input_built_by_hand():
    """T2g3s#5 again, its final ring rebuilt with GradedRing alone: the
    rules z^n -> s factor the sections without any declaration."""
    stack = _tower_over_affine_space(2, [
        ("divisor", "x1", 5, "r1"), ("divisor", "x0", 5, "r2"), ("divisor", "r2", 3, "r3"),
    ])
    ring = stack.cox_ring
    hand = GradedRing(ring.generators, ring.grading_group, ring.scalar_order, ring.rules)
    res = decompose_as_roots(stack)
    theta = check_factors_through(res, stack_as_lift(res, replace(stack, cox_ring=hand, tower=())))
    assert isinstance(theta, Theta), theta


def test_bundled_decomposition_factors_through_its_parsed_input():
    """decompose_half11_root declares no factorization: its rule z^2 -> t
    alone says that t = z^2 has a square root."""
    spec = parse_decompose(str(PROBLEMS / "decompose_half11_root.json"))
    res = decompose_as_roots(spec.stack, spec.options)
    theta = check_factors_through(res, stack_as_lift(res, spec.stack))
    assert isinstance(theta, Theta), theta


def test_section_whose_factorization_loops_gives_no_factor():
    stack = _tower_over_affine_space(2, [("divisor", "x0", 2, "r1")])
    res = decompose_as_roots(stack)
    ring = stack.cox_ring
    one = CycScalar.one(ring.scalar_order)
    looping = {"1*x0": Factorization(one, ((ring.gen("x1"), 1),)),
               "1*x1": Factorization(one, ((ring.gen("x0"), 1),))}
    cand = replace(stack, cox_ring=ring.with_data(declared_factorizations=looping))
    out = check_factors_through(res, stack_as_lift(res, cand))
    assert isinstance(out, NoFactor)
    assert "cannot factor section 1*x0" in out.reason


def test_non_factoring_tower_gives_no_factor():
    """The decomposition's first root, a cube root of x0, does not exist in
    the candidate ring, where x0 = r5^8."""
    res = decompose_as_roots(_tower_over_affine_space(3, [
        ("divisor", "x1", 3, "r1"), ("line_bundle", [3], 2), ("divisor", "r1", 3, "r2"),
        ("divisor", "x0", 3, "r3"), ("line_bundle", [1, 0, 2, 1], 5),
    ]))
    cand = _tower_over_affine_space(3, [
        ("divisor", "x0", 2, "r1"), ("divisor", "r1", 2, "r2"), ("divisor", "x1", 5, "r3"),
        ("divisor", "x2", 3, "r4"), ("divisor", "r2", 2, "r5"),
    ])
    zero = GroupHomomorphism(res.target.cl, cand.pic,
                             [cand.pic.zero()] * res.target.cl.ambient_rank)
    out = check_factors_through(res, stack_as_lift(res, cand, zero))
    assert isinstance(out, NoFactor)
    assert "3-th root of 1*x0" in out.reason


def _with_ring(res, ring):
    return replace(res, stack=replace(res.stack, cox_ring=ring))


def _with_images(res, **images):
    return replace(res, images={**res.images, **images})


def _rooted(res, stack, section, n, name):
    """res over stack grown by an unchecked n-th root of section, its group
    map read in the new Pic by coordinates."""
    stack = extend(stack, RootStep(kind="divisor", roots=(DivisorRootInfo(section, n, name),)))
    pic = stack.pic
    return replace(res, stack=stack, group_map=GroupHomomorphism(res.target.cl, pic, [
        pic.element(g.coords + (0,) * (pic.ambient_rank - len(g.coords)))
        for g in res.group_map.images]))


def _obstructions():
    """(result, candidate) pairs, each hand-built so that factoring stops at
    one obstruction; a1 is a1_into_half11's lift (x -> z1 with z1^2 = t over
    Q(zeta_2)), mu3 is mu3's (x -> z1, y -> z2 with v = z1*z2)."""
    a1, mu3, mu3_zero = lift_of("a1_into_half11"), lift_of("mu3"), lift_of("mu3_zero")
    ring, ring3 = a1.stack.cox_ring, mu3.stack.cox_ring
    zero, one = HomogeneousElement.zero(), CycScalar.one(ring.scalar_order)
    two = CycScalar.from_rational(ring.scalar_order, 2)
    t, z1, tz1 = ring.gen("t"), ring.gen("z1"), ring.mono({"t": 1, "z1": 1})
    mixed = ring3.gen("z2") + ring3.gen("z1") ** 2  # one degree, two root vectors
    source = a1.source_stack
    w4 = root_divisor(source, source.cox_ring.gen("t"), 4, "w")
    w4 = replace(w4, cox_ring=w4.cox_ring.with_data(declared_factorizations={
        "1*t": Factorization(one, ((w4.cox_ring.gen("w"), 2),))}))  # t = w^2, a false claim
    pic0 = mu3_zero.stack.pic
    return {
        "base stack": (a1, replace(a1, stack=replace(a1.stack, coarse=mu3.stack.coarse))),
        "base generator": (a1, _with_ring(a1, GradedRing(
            [("z1", ring.gen_degrees["z1"])], ring.grading_group, ring.scalar_order))),
        "section shape": (_rooted(mu3, mu3.stack, mixed, 3, "q"),) * 2,
        "section vanishes": (a1, _with_ring(a1, ring.with_data(
            rules=ring.rules + (RewriteRule(Monomial.gen("t"), zero),)))),
        "section unit": (a1, _with_ring(a1, ring.with_data(declared_factorizations={
            "1*t": Factorization(two, ((z1, 2),))}))),
        "section scalar": (_rooted(a1, source, t.scale(two), 2, "z1"), a1),
        "class slot": (replace(mu3_zero, group_map=GroupHomomorphism(
            mu3_zero.target.cl, pic0, [pic0.zero()])), mu3_zero),
        "image vanishing": (a1, _with_images(a1, x=zero)),
        "image shape": (_with_images(mu3, y=mixed), mu3),
        "image generator": (_with_images(a1, x=HomogeneousElement.monomial(
            ring.scalar_order, Monomial.gen("q"))), a1),
        "image vanishes": (_with_images(a1, x=tz1), _with_ring(a1, ring.with_data(
            rules=ring.rules + (RewriteRule(Monomial({"t": 1, "z1": 1}), zero),)))),
        "image monomial": (a1, _with_images(a1, x=tz1)),
        "image terms": (_with_images(a1, x=z1 + tz1), _with_images(a1, x=z1 + tz1.scale(two))),
        "image scalar": (a1, _with_images(a1, x=z1.scale(two))),
        "unit equations": (mu3, _with_ring(mu3, ring3.with_data(declared_factorizations={
            "1*u": Factorization(CycScalar.zeta(ring3.scalar_order), ((ring3.gen("z1"), 3),))}))),
        "grading map": (a1, replace(a1, stack=w4, images=dict(x=w4.cox_ring.gen("w"), y=zero),
                                    group_map=GroupHomomorphism(a1.target.cl, w4.pic,
                                                                [w4.pic.element([2])]))),
        "ring relation": (mu3, _with_ring(mu3, ring3.with_data(
            rules=[r for r in ring3.rules if r.key() != "v -> 1*z1*z2"]))),
    }


@pytest.mark.parametrize("case,reason", [
    ("base stack", "the two lifts do not share a base stack"),
    ("base generator", "candidate ring lacks base generator t"),
    ("section shape", "cannot transport section 1*z2 + 1*z1^2 (unsupported shape)"),
    ("section vanishes", "section 1*t vanishes in the candidate ring"),
    ("section unit", "root of 1*t differs by a non-root-of-unity scalar"),
    ("section scalar", "root of 2*t differs by a non-root-of-unity scalar"),
    ("class slot", "class slot 0 is not in the image of the lift's group map"),
    ("image vanishing", "images of x disagree about vanishing"),
    ("image shape", "cannot transport the image of y"),
    ("image generator", "cannot transport the image of x"),
    ("image vanishes", "transported image of x vanishes unexpectedly"),
    ("image monomial", "images of x differ beyond a scalar unit"),
    ("image terms", "images of x differ beyond a scalar unit"),
    ("image scalar", "images of x differ by a non-root-of-unity scalar"),
    ("unit equations", "unit constraints for the factoring map are unsolvable"),
    ("grading map", "grading map is ill defined: relation"),
    ("ring relation", "result ring relation v -> 1*z1*z2 breaks in the candidate"),
])
def test_factoring_names_each_obstruction(case, reason):
    """Every NoFactor of check_factors_through, and both None returns of
    _unit_ratio that it can reach ("image monomial": leading monomials
    differ; "image terms": same leading term, other terms not in ratio).
    "ring images are incompatible" is left out: once the unit equations
    hold, the transported images equal the candidate's on every confluent
    candidate ring."""
    out = check_factors_through(*_obstructions()[case])
    assert isinstance(out, NoFactor) and out.reason.startswith(reason), out


def test_a_tower_section_with_a_coefficient_factors_through_itself():
    """The section's coefficient is folded in before factoring: a1's source
    rooted by z1^2 -> 2t factors through itself, its unit 1/2 cancelling."""
    a1 = lift_of("a1_into_half11")
    source = a1.source_stack
    two = CycScalar.from_rational(source.cox_ring.scalar_order, 2)
    res = _rooted(a1, source, source.cox_ring.gen("t").scale(two), 2, "z1")
    theta = check_factors_through(res, res)
    assert isinstance(theta, Theta), theta


def test_factoring_needs_coarse_data_on_both_stacks():
    a1 = lift_of("a1_into_half11")
    with pytest.raises(InputDataError, match="both stacks need coarse base data"):
        check_factors_through(a1, replace(a1, stack=replace(a1.stack, coarse=None)))


@pytest.mark.parametrize("roots", [(0, -1, -1), (0, 1, 1, 2, 2)])
def test_lift_with_an_unrooted_factor_factors_through_itself(roots):
    """x^2 -> t(t+1)^2 lifts to x -> z1*(t+1), two terms sharing the root z1,
    so its transport multiplies one root of unity into a sum."""
    spec = parse_problem(cyclic_problem(2, roots))
    res = run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)
    assert len(res.images["x"].terms) == len(roots) // 2 + 1
    assert_factors_through_itself_as_identity(res)


@pytest.mark.parametrize("name", ["a1_into_half11", "identity_half11", "mu3", "mu3_zero",
                                  "mu4", "origin_into_half11"])
def test_factoring_reads_the_result_tower_without_rebuilding_it(monkeypatch, name):
    """Theta walks the result's own tower: at most one Smith form, the one
    expressing rooted classes through the lift's group map."""
    res = lift_of(name)
    factored = []
    real_snf = abgroup.smith_normal_form_full

    def recording_snf(M, *args, **kwargs):
        factored.append(M.entries)
        return real_snf(M, *args, **kwargs)

    monkeypatch.setattr(abgroup, "smith_normal_form_full", recording_snf)
    assert isinstance(check_factors_through(res, res), Theta)
    assert len(factored) <= 1


def test_decompose_factors_each_subgroup_matrix_once(monkeypatch):
    """Every subgroup K the lift visits answers all its queries from one
    Smith form of [K generators; class group relations]."""
    stack = _line_bundle_over_roots_stack()
    factored = []
    real_snf = abgroup.smith_normal_form_full

    def recording_snf(M, *args, **kwargs):
        factored.append(M.entries)
        return real_snf(M, *args, **kwargs)

    monkeypatch.setattr(abgroup, "smith_normal_form_full", recording_snf)
    result = decompose_as_roots(stack)
    assert result.verification.passed
    assert len(result.steps) >= 3
    cl = stack.pic
    gens = list(stack.coarse.inclusion.images)
    matrices = []
    for step in (None,) + result.steps:
        if step is not None:
            gens.append(cl.element(step.cls_coords))
        matrices.append(tuple(g.coords for g in gens) + cl.relations.entries)
    assert [factored.count(m) for m in matrices] == [1] * len(matrices)


def _free_class_group_target():
    """Cl = Z, generated by x, over the trivial Picard subgroup: Cl/Pic is
    infinite, so the data is not Q-factorial."""
    cl = FgAbelianGroup(1, [])
    ring = GradedRing([("x", cl.element([1]))], cl, CycOrder(2))
    return TargetData(cl=cl, pic_gens=(), ring=ring)


def test_run_cox_lift_rejects_a_target_that_fails_validate():
    """Documents never reach these checks: ``serialize`` grades the ring by
    Cl and rejects an infinite Cl/Pic first."""
    c0 = FgAbelianGroup(0, [])
    source = canonical_stack(GradedRing([("s", c0.zero())], c0, CycOrder(2)))
    base = BaseMorphism({}, ())
    free = _free_class_group_target()
    with pytest.raises(InputDataError, match="the class group is not torsion over the Picard"):
        run_cox_lift(free, source, base)
    z2 = FgAbelianGroup(1, [[2]])
    regraded = replace(free, ring=GradedRing([("x", z2.element([1]))], z2, CycOrder(2)))
    with pytest.raises(InputDataError, match="ring must be graded by the target class group"):
        run_cox_lift(regraded, source, base)


def test_pic_level_generators_and_decompose_reject_an_infinite_quotient():
    free = _free_class_group_target()
    with pytest.raises(InputDataError, match="Cl/K is infinite"):
        pic_level_generators(free, free.pic)
    # the same stack over a coarse space with a trivial class group, and
    # with no coarse data at all
    stack = canonical_stack(free.ring)
    c0 = FgAbelianGroup(0, [])
    coarse = mdstack.CoarseData(GradedRing([], c0, CycOrder(2)), (),
                                GroupHomomorphism(c0, free.cl, []))
    with pytest.raises(InputDataError, match="Cl/K is infinite"):
        decompose_as_roots(replace(stack, coarse=coarse))
    with pytest.raises(InputDataError, match="decomposition needs coarse base data"):
        decompose_as_roots(replace(stack, coarse=None))


@pytest.mark.parametrize("name", [p.stem for p in sorted(PROBLEMS.glob("*.json"))]
                         + sorted(GENERATED))
def test_every_factor_of_a_run_settles_again(monkeypatch, name):
    """Each factor ``h_factorize`` returns while a bundled or generated
    problem is read and run, its pullbacks' among them, is monic, its own
    normal form and re-factors as 1 * f^1, and the divisor steps root
    these factors as they stand."""
    seen = []
    real = GradedRing.h_factorize

    def recording(ring, e):
        fact = real(ring, e)
        seen.append((ring, fact))
        return fact

    monkeypatch.setattr(GradedRing, "h_factorize", recording)
    if name not in GENERATED and "decompose" in load_raw(name):
        spec = parse_decompose(str(PROBLEMS / f"{name}.json"))
        res = decompose_as_roots(spec.stack, spec.options)
    else:
        spec = parse_problem(GENERATED[name]() if name in GENERATED
                             else str(PROBLEMS / f"{name}.json"))
        res = run_cox_lift(spec.target, spec.source_stack, spec.base, spec.options)
    monkeypatch.undo()
    for ring, fact in seen:
        assert_factors_settle(ring, fact)
    factors = {f for _ring, fact in seen for f, _e in fact.factors}
    for step in res.stack.tower[len(res.source_stack.tower):]:
        assert {info.section for info in step.roots} <= factors


def test_bundled_decomposition_factors_through_itself_as_identity():
    spec = parse_decompose(str(PROBLEMS / "decompose_half11_root.json"))
    assert_factors_through_itself_as_identity(decompose_as_roots(spec.stack, spec.options))


def test_factoring_solves_unit_variables_that_are_not_zero():
    """mu3's lift (x -> z1, y -> z2) against itself twisted by
    x -> zeta*z1, y -> zeta^2*z2, still a lift as x^3, x*y and y^3 keep
    their images.  Theta must send z1 to zeta*z1 and z2 to zeta^2*z2, fix
    u, v = z1*z2 and w, and carry each image of the lift to the
    candidate's; the other way round it untwists."""
    res = lift_of("mu3")
    ring = res.stack.cox_ring
    zeta = CycScalar.zeta(ring.scalar_order)
    z1, z2 = ring.gen("z1"), ring.gen("z2")
    cand = _with_images(res, x=z1.scale(zeta), y=z2.scale(zeta ** 2))
    assert verify_lift(res.target, res.source_stack, res.base, cand).passed
    for a, b, twist in ((res, cand, 1), (cand, res, 2)):
        theta = check_factors_through(a, b)
        assert isinstance(theta, Theta), theta
        assert theta.ring_images == {"u": ring.gen("u"), "v": z1 * z2, "w": ring.gen("w"),
                                     "z1": z1.scale(zeta ** twist),
                                     "z2": z2.scale(zeta ** (2 * twist))}
        pic = ring.grading_group
        assert list(theta.group_map.images) == [pic.basis_element(i)
                                                for i in range(pic.ambient_rank)]
        for name, img in a.images.items():
            moved = lift.map_element(theta.ring_images, ring, img, {})
            assert ring.elements_equal(moved, b.images[name]), name
