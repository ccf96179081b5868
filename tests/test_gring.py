import time
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from unittest.mock import patch

import pytest
import sympy
from helpers import assert_factors_settle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxlift.abgroup import FgAbelianGroup
from coxlift.cyclo import CycOrder, CycScalar
from coxlift.errors import (
    FactorizationOracleRequired,
    InputDataError,
    NotHomogeneousError,
    RewriteDivergedError,
)
from coxlift.gring import (
    Factorization,
    GradedRing,
    HomogeneousElement,
    Monomial,
    RewriteRule,
)

N2 = CycOrder(2)
N3 = CycOrder(3)


def ring_kxy_z2():
    cl = FgAbelianGroup(1, [[2]])
    return GradedRing(
        [("x", cl.element([1])), ("y", cl.element([1]))], cl, N2
    )


def ring_kt_with_root():
    """k[t, z] with z^2 -> t (t marked as z^2 by declared data)."""
    cl = FgAbelianGroup(1, [[2]])
    gens = [("t", cl.element([0])), ("z", cl.element([1]))]
    z = HomogeneousElement.monomial(N2, Monomial.gen("z"))
    t = HomogeneousElement.monomial(N2, Monomial.gen("t"))
    return GradedRing(
        gens,
        cl,
        N2,
        rules=[RewriteRule(Monomial.gen("z", 2), t)],
        declared_factorizations={t.key(): Factorization(CycScalar.one(N2), ((z, 2),))},
    )


def ring_mu3_rooted(k: int = 0):
    """k[u,v,w,z1,z2] with v^3 -> uw, z1^3 -> u, z2^3 -> w; no elimination rule."""
    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in ("u", "v", "w", "z1", "z2")]
    tmp = GradedRing(gens, cl, N3)
    rules = [
        RewriteRule(Monomial.gen("v", 3), tmp.mono({"u": 1, "w": 1})),
        RewriteRule(Monomial.gen("z1", 3), tmp.gen("u")),
        RewriteRule(Monomial.gen("z2", 3), tmp.gen("w")),
    ]
    return GradedRing(gens, cl, N3, rules=rules)


def test_degree_of_examples():
    R = ring_kxy_z2()
    e = R.mono({"x": 2, "y": 1})
    assert R.degree_of(e) == R.grading_group.element([1])
    assert R.degree_of(R.one()) == R.grading_group.zero()

    cl3 = FgAbelianGroup(1, [[3]])
    R3 = GradedRing([("x", cl3.element([1])), ("y", cl3.element([2]))], cl3, N3)
    assert R3.degree_of(R3.mono({"x": 1, "y": 2})) == cl3.element([2])
    # coordinates 4 and 1 differ, and name one class
    assert R3.degree_of(R3.mono({"y": 2}) + R3.gen("x")) == cl3.element([1])


def test_degree_of_rejects_mixed_terms():
    R = ring_kxy_z2()
    mixed = R.gen("x") + R.mono({"x": 2})
    with pytest.raises(NotHomogeneousError):
        R.degree_of(mixed)
    cl3 = FgAbelianGroup(1, [[3]])
    R3 = GradedRing([("x", cl3.element([1])), ("y", cl3.element([2]))], cl3, N3)
    with pytest.raises(NotHomogeneousError):
        R3.degree_of(R3.mono({"y": 2}) + R3.gen("x") + R3.gen("y"))


def test_normal_form_examples():
    R = ring_kt_with_root()
    z3 = R.mono({"z": 3})
    assert R.normal_form(z3) == R.mono({"t": 1, "z": 1})
    untouched = R.mono({"t": 2})
    assert R.normal_form(untouched) == untouched

    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in ("u", "v", "w")]
    tmp = GradedRing(gens, cl, N3)
    R2 = GradedRing(
        gens, cl, N3,
        rules=[RewriteRule(Monomial.gen("v", 3), tmp.mono({"u": 1, "w": 1}))],
    )
    diff = R2.mono({"v": 3}) - R2.mono({"u": 1, "w": 1})
    assert R2.normal_form(diff).is_zero()


def test_normal_form_idempotent_on_samples():
    R = ring_kt_with_root()
    for exps in [{"z": 5}, {"t": 1, "z": 4}, {"t": 2}, {"z": 1}]:
        e = R.mono(exps) + R.mono({"t": 1}).scale(CycScalar.from_rational(N2, 2))
        once = R.normal_form(e)
        assert R.normal_form(once) == once


def test_normal_form_skips_a_queued_term_that_a_rewrite_cancels():
    """In x^2 - y^3 with x^2 -> y^3 -> w^3, rewriting x^2 first cancels
    -y^3, which was queued for the rule y^3 -> w^3."""
    cl = FgAbelianGroup(0, [])
    tmp = GradedRing([(n, cl.zero()) for n in "wxy"], cl, N2)
    R = tmp.with_data(rules=[RewriteRule(Monomial.gen("x", 2), tmp.mono({"y": 3})),
                             RewriteRule(Monomial.gen("y", 3), tmp.mono({"w": 3}))])
    assert R.normal_form(R.mono({"x": 2}) - R.mono({"y": 3})).is_zero()
    assert R.normal_form(R.mono({"x": 2}) + R.mono({"y": 3})) == R.mono({"w": 3}).scale(
        CycScalar.from_rational(N2, 2))


def test_rewrite_rule_must_be_degree_preserving():
    cl = FgAbelianGroup(1, [[2]])
    gens = [("x", cl.element([1])), ("y", cl.element([0]))]
    tmp = GradedRing(gens, cl, N2)
    with pytest.raises(InputDataError):
        GradedRing(gens, cl, N2, rules=[RewriteRule(Monomial.gen("x", 1), tmp.gen("y"))])


@pytest.mark.parametrize("name", ["a*b", "a^2", "1", "", "x y", "z-1"])
def test_generator_names_must_be_identifiers(name):
    """A key joins names with "*" and "^", so a generator named a*b would
    have the key of the monomial a*b."""
    cl = FgAbelianGroup(0, [])
    gens = [("a", cl.zero()), ("b", cl.zero())]
    with pytest.raises(InputDataError, match="generator name"):
        GradedRing(gens + [(name, cl.zero())], cl, N2)
    with pytest.raises(InputDataError, match="generator name"):
        GradedRing(gens, cl, N2).with_data(generators=gens + [(name, cl.zero())])


def _x2_to_y(cl, x, y):
    """The ring with x, y of the given degrees in cl and the rule x^2 -> y."""
    gens = [("x", cl.element(x)), ("y", cl.element(y))]
    return GradedRing(gens, cl, N2, rules=[
        RewriteRule(Monomial.gen("x", 2), HomogeneousElement.monomial(N2, Monomial.gen("y")))])


def test_with_data_checks_carried_rules_when_the_relations_change():
    """x^2 -> y holds in Z/2 with deg x = 1, deg y = 0, not in Z/4: a new
    group whose rows do not begin with the old rows carries no rule."""
    R = _x2_to_y(FgAbelianGroup(1, [[2]]), [1], [0])
    cl4 = FgAbelianGroup(1, [[4]])
    with pytest.raises(InputDataError, match="not degree-preserving"):
        R.with_data(generators=[("x", cl4.element([1])), ("y", cl4.element([0]))],
                    grading_group=cl4)
    # rows that begin with the old rows, zero-padded, carry it
    cl2 = FgAbelianGroup(2, [[2, 0], [1, -3]])
    grown = R.with_data(generators=[("x", cl2.element([1, 0])), ("y", cl2.element([0, 0])),
                                    ("z", cl2.element([0, 1]))], grading_group=cl2)
    assert grown.rules == R.rules


def test_with_data_checks_carried_rules_when_a_degree_changes():
    cl = FgAbelianGroup(1, [[2]])
    R = _x2_to_y(cl, [1], [0])
    with pytest.raises(InputDataError, match="not degree-preserving"):
        R.with_data(generators=[("x", cl.element([1])), ("y", cl.element([1]))])
    # other coordinates of the same class: the rule is checked and holds
    assert R.with_data(generators=[("x", cl.element([1])), ("y", cl.element([2]))]).rules == R.rules


@st.composite
def grown_rings(draw):
    """A base ring over Z^r / (rows) with generators u (degree 0), x0, x1,
    and up to three roots z_i^n -> c*m + c'*m*u^k, each section over the
    generators before it; every stage appends the row (deg m, -n) and a
    slot for z_i.  Returns the stages' (generators' coords, rows, rules)
    and elements to normalize."""
    rank = draw(st.integers(1, 2))
    coords = st.lists(st.integers(-2, 3), min_size=rank, max_size=rank)
    rows = draw(st.lists(coords, max_size=2))
    gens = {"u": [0] * rank, "x0": draw(coords), "x1": draw(coords)}
    stages, rules = [(dict(gens), list(rows), [])], []
    scalars = st.sampled_from([CycScalar.one(N2), CycScalar.from_rational(N2, 2),
                               CycScalar.from_rational(N2, -1)])
    for i in range(1, draw(st.integers(1, 3)) + 1):
        names = sorted(gens)
        m = Monomial(dict(zip(names, draw(st.lists(st.integers(0, 2), min_size=len(names),
                                                     max_size=len(names))))))
        if m.is_one():
            m = Monomial.gen("x0")
        terms = [(draw(scalars), m)]
        if draw(st.booleans()):
            terms.append((draw(scalars), m * Monomial.gen("u", draw(st.integers(1, 2)))))
        n = draw(st.integers(2, 3))
        width = len(gens["u"])
        deg = [sum(e * gens[g][j] for g, e in m.pairs) for j in range(width)]
        rows = [r + [0] for r in rows] + [deg + [-n]]
        gens = {g: c + [0] for g, c in gens.items()}
        gens[f"z{i}"] = [0] * width + [1]
        rules = rules + [RewriteRule(Monomial.gen(f"z{i}", n), HomogeneousElement(terms))]
        stages.append((dict(gens), list(rows), list(rules)))
    names = sorted(gens)
    exps = st.lists(st.integers(0, 4), min_size=len(names), max_size=len(names))
    elements = [HomogeneousElement([(CycScalar.one(N2), Monomial(dict(zip(names, v))))])
                for v in draw(st.lists(exps, min_size=1, max_size=4))]
    return stages, elements


def _stage_ring(gens, rows, rules, grow=None):
    cl = FgAbelianGroup(len(gens["u"]), rows)
    gens = [(g, cl.element(c)) for g, c in gens.items()]
    if grow is None:
        return GradedRing(gens, cl, N2, rules=rules)
    return grow.with_data(generators=gens, grading_group=cl, rules=grow.rules + tuple(
        rules[len(grow.rules):]))


@given(grown_rings())
@settings(max_examples=80, deadline=None)
def test_a_ring_grown_through_with_data_equals_one_built_from_scratch(case):
    """Each stage grows from the last through ``with_data``, carrying the
    checked rules and checking only the new one; the final ring has the
    rules, weights, declared factorizations and normal forms of the ring
    built at once."""
    stages, elements = case
    ring = _stage_ring(*stages[0])
    for gens, rows, rules in stages[1:]:
        checked = []
        with patch.object(GradedRing, "_check_rule", lambda self, r: checked.append(r)):
            ring = _stage_ring(gens, rows, rules, grow=ring)
        assert checked == rules[-1:]
    scratch = _stage_ring(*stages[-1])
    assert ring.rules == scratch.rules
    assert ring.weights == scratch.weights
    assert ring.declared_factorizations == scratch.declared_factorizations
    assert [(g, d.coords) for g, d in ring.generators] == [
        (g, d.coords) for g, d in scratch.generators]
    for e in elements:
        assert ring.normal_form(e) == scratch.normal_form(e)


def test_rule_orientation_failure_is_reported():
    cl = FgAbelianGroup(0, [])
    gens = [("a", cl.zero()), ("b", cl.zero())]
    tmp = GradedRing(gens, cl, N2)
    # a -> b and b -> a cannot both decrease
    with pytest.raises(InputDataError):
        GradedRing(
            gens, cl, N2,
            rules=[
                RewriteRule(Monomial.gen("a"), tmp.gen("b")),
                RewriteRule(Monomial.gen("b"), tmp.gen("a")),
            ],
        )


def test_h_factorize_examples():
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    fact = R.h_factorize(R.gen("t"))
    assert fact.unit == CycScalar.one(N2)
    assert [(f.key(), e) for f, e in fact.factors] == [("1*t", 1)]

    R3 = ring_mu3_rooted()
    fu = R3.h_factorize(R3.gen("u"))
    assert [(f.key(), e) for f, e in fu.factors] == [("1*z1", 3)]

    Rxy = ring_kxy_z2()
    f = Rxy.h_factorize(Rxy.mono({"x": 2, "y": 1}, CycScalar.from_rational(N2, 3)))
    assert f.unit == CycScalar.from_rational(N2, 3)
    assert [(g.key(), e) for g, e in f.factors] == [("1*x", 2), ("1*y", 1)]


def test_h_factorize_through_declared_root_data():
    R = ring_kt_with_root()
    fact = R.h_factorize(R.gen("t"))
    assert [(f.key(), e) for f, e in fact.factors] == [("1*z", 2)]


def test_root_rules_factor_their_sections_unless_declared_otherwise():
    # z^2 -> 3*t gives t = 1/3 * z^2; a declaration of t takes precedence
    cl0 = FgAbelianGroup(0, [])
    gens = [(n, cl0.zero()) for n in ("t", "y", "z")]
    tmp = GradedRing(gens, cl0, N2)
    rules = [RewriteRule(Monomial.gen("z", 2), tmp.gen("t").scale(CycScalar.from_rational(N2, 3)))]
    R = GradedRing(gens, cl0, N2, rules=rules)
    fact = R.h_factorize(R.gen("t"))
    assert fact.unit == CycScalar.from_rational(N2, Fraction(1, 3))
    assert [(f.key(), e) for f, e in fact.factors] == [("1*z", 2)]

    minus_y2 = Factorization(CycScalar.from_rational(N2, -1), ((tmp.gen("y"), 2),))
    R = GradedRing(gens, cl0, N2, rules=rules, declared_factorizations={"1*t": minus_y2})
    fact = R.h_factorize(R.gen("t"))
    assert fact.unit == CycScalar.from_rational(N2, -1)
    assert [(f.key(), e) for f, e in fact.factors] == [("1*y", 2)]
    # a ring built from it keeps the declaration and re-reads the rules
    assert R.with_data(rules=()).declared_factorizations == {"1*t": minus_y2}


def test_h_factorize_univariate_rational_roots():
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    e = R.mono({"t": 2}) - R.one()  # t^2 - 1
    fact = R.h_factorize(e)
    assert len(fact.factors) == 2
    ok, p, _ = R.verify_factorization(e, fact)
    assert ok and p == 1


def test_h_factorize_oracle_required():
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("a", cl0.zero()), ("b", cl0.zero())], cl0, N2)
    e = R.mono({"a": 1}) + R.mono({"b": 1})
    with pytest.raises(FactorizationOracleRequired):
        R.h_factorize(e)


def test_verify_factorization_examples():
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    t = R.gen("t")
    ok, p, _ = R.verify_factorization(t, Factorization(CycScalar.one(N2), ((t, 1),)))
    assert ok and p == 1

    R3 = ring_mu3_rooted()
    v = R3.gen("v")
    z1z2 = Factorization(
        CycScalar.one(N3), ((R3.gen("z1"), 1), (R3.gen("z2"), 1))
    )
    ok, p, _ = R3.verify_factorization(v, z1z2)
    assert ok and p == 3  # only the cubes agree

    # any third root of unity passes the cube comparison: the exponent is data
    for k in range(3):
        fact = Factorization(CycScalar.zeta(N3, k), ((R3.gen("z1"), 1), (R3.gen("z2"), 1)))
        ok, p, _ = R3.verify_factorization(v, fact)
        assert ok

    Rt = ring_kt_with_root()
    bad = Factorization(CycScalar.one(N2), ((Rt.gen("z"), 1),))
    ok, _, diag = Rt.verify_factorization(Rt.gen("t"), bad)
    assert not ok and "does not reproduce" in diag


def test_verify_factorization_rejects_wrong_relation():
    # declared v = z1*z2 against v^3 -> u*w^2 fails the cube comparison
    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in ("u", "v", "w", "z1", "z2")]
    tmp = GradedRing(gens, cl, N3)
    rules = [
        RewriteRule(Monomial.gen("v", 3), tmp.mono({"u": 1, "w": 2})),
        RewriteRule(Monomial.gen("z1", 3), tmp.gen("u")),
        RewriteRule(Monomial.gen("z2", 3), tmp.gen("w")),
    ]
    R = GradedRing(gens, cl, N3, rules=rules)
    fact = Factorization(CycScalar.one(N3), ((R.gen("z1"), 1), (R.gen("z2"), 1)))
    ok, _, _ = R.verify_factorization(R.gen("v"), fact)
    assert not ok


def test_monomial_factorizations_are_exact():
    R = ring_kxy_z2()
    for exps in [{"x": 1}, {"x": 3, "y": 2}, {"y": 4}]:
        fact = R.h_factorize(R.mono(exps))
        got = {}
        for f, e in fact.factors:
            (name, ex) = f.terms[0][1].pairs[0]
            got[name] = got.get(name, 0) + e * ex
        assert got == exps


def test_h_factorize_roundtrip_property():
    R = ring_kt_with_root()
    samples = [
        R.mono({"z": 3}),
        R.mono({"t": 2, "z": 1}, CycScalar.from_rational(N2, Fraction(-5, 3))),
        R.mono({"t": 1}),
    ]
    for e in samples:
        fact = R.h_factorize(e)
        ok, _, diag = R.verify_factorization(e, fact)
        assert ok, diag


def test_degree_additivity_on_products():
    R = ring_kxy_z2()
    a = R.mono({"x": 1})
    b = R.mono({"x": 1, "y": 2})
    assert R.degree_of(a * b) == R.degree_of(a) + R.degree_of(b)


def test_step_cap_divergence_reported():
    # x -> x*y is degree-compatible with deg y = 0 and never terminates;
    # the weight check rejects it at construction time
    cl = FgAbelianGroup(1, [[2]])
    gens = [("x", cl.element([1])), ("y", cl.element([0]))]
    tmp = GradedRing(gens, cl, N2)
    with pytest.raises(InputDataError):
        GradedRing(
            gens, cl, N2,
            rules=[RewriteRule(Monomial.gen("x"), tmp.mono({"x": 1, "y": 1}))],
        )


def test_fresh_root_uniqueness_spotcheck():
    """In k[x,y][z]/(z^2 - x) every bounded product of irreducibles has a
    single factorization class."""
    from itertools import combinations_with_replacement

    cl = FgAbelianGroup(0, [])
    gens = [("x", cl.zero()), ("y", cl.zero())]
    base = GradedRing(gens, cl, N2)
    x = base.gen("x")
    z = HomogeneousElement.monomial(N2, Monomial.gen("z"))
    R = GradedRing(
        gens + [("z", cl.zero())],
        cl,
        N2,
        rules=[RewriteRule(Monomial.gen("z", 2), x)],
        declared_factorizations={x.key(): Factorization(CycScalar.one(N2), ((z, 2),))},
    )
    irreducible = [R.gen("y"), R.gen("z")]
    seen = {}
    for size in range(1, 4):
        for combo in combinations_with_replacement(range(2), size):
            prod = R.one()
            for i in combo:
                prod = prod * irreducible[i]
            key = R.normal_form(prod).key()
            assert seen.setdefault(key, combo) == combo


@pytest.mark.parametrize("mult", [2, 3])
def test_h_factorize_square_free_split_over_q_zeta3(mult):
    # (t - zeta)^mult has no rational root, so only the square-free
    # split (gcd with the derivative) can factor it
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N3)
    lin = R.gen("t") - R.const(CycScalar.zeta(N3))
    fact = R.h_factorize(lin ** mult)
    assert fact.unit == CycScalar.one(N3)
    assert [(f.key(), e) for f, e in fact.factors] == [(lin.key(), mult)]


def test_step_cap_reached_at_run_time_reports_last_steps():
    # x^7 needs 11 steps under these rules; y*z leaves the term dict and
    # comes back, so a monomial is rewritten more than once
    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in "xyz"]
    tmp = GradedRing(gens, cl, N2)
    rules = [
        RewriteRule(Monomial.gen("x", 2), tmp.gen("y") + tmp.gen("z")),
        RewriteRule(Monomial({"y": 1, "z": 1}), tmp.gen("x")),
        RewriteRule(Monomial.gen("y", 2), tmp.gen("z")),
    ]
    x7 = tmp.mono({"x": 7})
    assert GradedRing(gens, cl, N2, rules=rules, step_cap=11).normal_form(x7) == (
        tmp.gen("x").scale(CycScalar.from_rational(N2, 6))
        + tmp.gen("y")
        + tmp.gen("z").scale(CycScalar.from_rational(N2, 4))
        + tmp.mono({"z": 2}, CycScalar.from_rational(N2, 3))
        + tmp.mono({"x": 1, "z": 3})
    )
    R = GradedRing(gens, cl, N2, rules=rules, step_cap=10)
    with pytest.raises(RewriteDivergedError) as info:
        R.normal_form(x7)
    assert info.value.trace == (
        "x^7 by x^2 -> 1*y + 1*z",
        "x*y*z^2 by y*z -> 1*x",
        "x^2*z by x^2 -> 1*y + 1*z",
        "y*z by y*z -> 1*x",
        "x*y^2*z by y*z -> 1*x",
        "x^2*y by x^2 -> 1*y + 1*z",
        "y*z by y*z -> 1*x",
        "y^2 by y^2 -> 1*z",
        "x*y^3 by y^2 -> 1*z",
        "x*y*z by y*z -> 1*x",
    )


def rescanning_normal_form(R, e, whole_powers=True):
    """Oracle: rescan every term against every rule and rebuild the element
    after each step; the first reducible term in sort order is rewritten by
    the first rule that divides it, a whole power of its lhs at once (one
    lhs at a time when ``whole_powers`` is false)."""
    steps = 0
    trace = []
    cur = e
    while True:
        hit = None
        for c, m in cur.terms:
            for r in R.rules:
                if r.lhs.divides(m):
                    hit = (c, m, r)
                    break
            if hit:
                break
        if hit is None:
            return cur
        c, m, r = hit
        steps += 1
        if steps > R.step_cap:
            raise RewriteDivergedError(
                f"rewriting diverged after {R.step_cap} steps", trace[-10:]
            )
        trace.append(f"{m.key()} by {r.key()}")
        k = 1
        while whole_powers and r.lhs.pairs and (r.lhs ** (k + 1)).divides(m):
            k += 1
        cof = m.div(r.lhs ** k)
        replacement = (r.rhs ** k).scale(c) * HomogeneousElement.monomial(R.scalar_order, cof)
        cur = HomogeneousElement(
            tuple(t for t in cur.terms if t != (c, m)) + replacement.terms
        )


def _scalars(order):
    return st.sampled_from(
        [CycScalar.from_rational(order, q) for q in (1, -1, 2, -2, Fraction(1, 2))]
        + [CycScalar.zeta(order), -CycScalar.zeta(order)]
    )


@st.composite
def rewriting_cases(draw):
    """A ring with 2-4 generators, random rules and an element to reduce.

    Every rhs term has lower total degree than its lhs, so the rules are
    accepted (all weights stay 1) and terminate; lhs may overlap (x*y and
    x^2), and the small coefficient set makes replacements cancel terms.
    """
    names = ["x", "y", "z", "w"][: draw(st.integers(2, 4))]

    def exps(top):
        return st.lists(st.integers(0, top), min_size=len(names), max_size=len(names))

    rules = []
    for lhs in draw(st.lists(exps(2), min_size=1, max_size=4)):
        deg = sum(lhs)
        rhs = []
        if deg:
            for v in draw(st.lists(exps(2), max_size=3)):
                while sum(v) >= deg:
                    v = [max(0, a - 1) for a in v]
                rhs.append((draw(_scalars(N3)), Monomial(dict(zip(names, v)))))
        rules.append(RewriteRule(Monomial(dict(zip(names, lhs))), HomogeneousElement(rhs)))
    terms = [
        (draw(_scalars(N3)), Monomial(dict(zip(names, v))))
        for v in draw(st.lists(exps(3), min_size=1, max_size=4))
    ]
    return names, rules, HomogeneousElement(terms), draw(st.integers(0, 8))


@st.composite
def one_term_chain_cases(draw):
    """A chain of root rules b^n -> c*m, ..., e^n -> c*m, each m a monomial
    over the generators before its head, in a random rule order; one rule,
    or none, has a right side of 0, 2 or 3 terms instead, so a rewrite of a
    one-term element meets it after some one-term steps.  The element is
    one term with a high power of at least one head; the step cap is 0-8."""
    names = ["a", "b", "c", "d", "e"]
    wide = draw(st.sampled_from([None, 1, 2, 3, 4]))
    rules = []
    for i, head in enumerate(names[1:], 1):
        width = draw(st.sampled_from([0, 2, 3])) if i == wide else 1
        rhs = [(draw(_scalars(N3)), Monomial(dict(zip(names[:i], v))))
               for v in draw(st.lists(st.lists(st.integers(0, 2), min_size=i, max_size=i),
                                      min_size=width, max_size=width))]
        rules.append(RewriteRule(Monomial.gen(head, draw(st.integers(1, 3))),
                                 HomogeneousElement(rhs)))
    exps = draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    exps[draw(st.integers(1, 4))] += draw(st.integers(3, 9))
    e = HomogeneousElement([(draw(_scalars(N3)), Monomial(dict(zip(names, exps))))])
    return names, draw(st.permutations(rules)), e, draw(st.integers(0, 8))


def _outcome(normal_form, e):
    try:
        return normal_form(e).terms
    except RewriteDivergedError as err:
        return ("diverged", str(err), tuple(err.trace))


@given(st.one_of(rewriting_cases(), one_term_chain_cases()))
@example((["w", "x"], [RewriteRule(Monomial.gen("w"), HomogeneousElement(
    [(CycScalar.one(N3), Monomial.one())]))], HomogeneousElement.monomial(
        N3, Monomial.gen("w", 2)), 1))
@settings(max_examples=400, deadline=None)
def test_normal_form_matches_rescanning_oracle(case):
    """The same steps, trace and step-cap outcome as the oracle, which
    rewrites a whole power of a left side in one step too (w -> 1 takes w^2
    to 1 in one step).  Half the cases rewrite one term through one-term
    right sides, and some meet a wider one after the first steps."""
    names, rules, e, cap = case
    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in names]
    for step_cap in (10000, cap):
        R = GradedRing(gens, cl, N3, rules=rules, step_cap=step_cap)
        assert _outcome(R.normal_form, e) == _outcome(lambda el: rescanning_normal_form(R, el), e)


_NAMES = st.sampled_from(["a", "b", "x", "y", "z1", "z2"])
_monomials = st.dictionaries(_NAMES, st.integers(0, 4), max_size=4).map(Monomial)


def _nonzero_scalars(order):
    """Roots of unity times rationals, and scalars with two nonzero
    coordinates, which no root of unity times a rational is in Q(zeta_3)."""
    q = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    return st.one_of(
        st.builds(lambda k, r: CycScalar.zeta(order, k) * CycScalar.from_rational(order, r),
                  st.integers(0, order.N - 1), q),
        st.builds(lambda r, s: CycScalar(order, [r, s]), q, q))


def _same_monomial(got, exps):
    want = Monomial(exps)
    assert got == want and got.pairs == want.pairs
    assert hash(got) == hash(want) and got.sort_key() == want.sort_key()


@given(_monomials, _monomials, st.integers(0, 4), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_monomial_products_powers_and_quotients_match_the_validating_constructor(
        a, b, k, warm_a, warm_b):
    """``Monomial.one()``, and products, powers and exact quotients of
    monomials whose degree is already known or not yet, and of their
    products again, equal what ``Monomial(exps)`` builds; an inexact
    quotient still raises."""
    for m, warm in ((a, warm_a), (b, warm_b)):
        if warm:
            m.total_degree()
    A, B = dict(a.pairs), dict(b.pairs)
    AB = {n: A.get(n, 0) + B.get(n, 0) for n in {*A, *B}}
    _same_monomial(Monomial.one(), {})
    _same_monomial(a * b, AB)
    _same_monomial(a ** k, {n: e * k for n, e in A.items()})
    _same_monomial((a * b).div(b), A)
    _same_monomial((a * b * a).div(a * b), A)
    _same_monomial((a ** k * b).div(a ** k), B)
    if b.divides(a):
        _same_monomial(a.div(b), {n: e - B.get(n, 0) for n, e in A.items()})
    else:
        with pytest.raises(InputDataError):
            a.div(b)


_elements = st.lists(st.tuples(_nonzero_scalars(N3), _monomials), max_size=4).map(
    HomogeneousElement)


def _same_element(got, terms):
    want = HomogeneousElement(terms)
    assert got == want and got.terms == want.terms and hash(got) == hash(want)
    assert [m.sort_key() for _, m in got.terms] == [m.sort_key() for _, m in want.terms]


@given(_elements, _elements, _nonzero_scalars(N3))
@settings(max_examples=200, deadline=None)
def test_element_scale_negation_and_one_term_products_match_the_validating_constructor(
        e, f, c):
    """Scaling by a nonzero scalar or by 0, negation, and the product of two
    one-term elements and the powers of one equal what
    ``HomogeneousElement(terms)`` builds from monomials that
    ``Monomial(exps)`` builds."""
    _same_element(e.scale(c), [(c * a, m) for a, m in e.terms])
    _same_element(e.scale(CycScalar.zero(N3)), [])
    _same_element(-e, [(-a, m) for a, m in e.terms])
    for (c1, m1), (c2, m2) in zip(e.terms, f.terms):
        x, y = HomogeneousElement([(c1, m1)]), HomogeneousElement([(c2, m2)])
        exps = dict(m1.pairs)
        for n, k in m2.pairs:
            exps[n] = exps.get(n, 0) + k
        _same_element(x * y, [(c1 * c2, Monomial(exps))])
        for k in range(4):
            _same_element(x ** k, [(c1 ** k, Monomial({n: e * k for n, e in m1.pairs}))])


def one_step_rewrites(R, e):
    """Every element one rewrite step from e: a term c*m with lhs l | m,
    replaced by c * rhs * m/l."""
    for c, m in e.terms:
        for r in R.rules:
            if r.lhs.divides(m):
                rest = HomogeneousElement(t for t in e.terms if t[1] != m)
                yield rest + r.rhs.scale(c) * HomogeneousElement.monomial(
                    R.scalar_order, m.div(r.lhs))


def reachable_normal_forms(R, e):
    """Oracle: the irreducible elements that some sequence of one-step
    rewrites leads e to (finitely many, since the rules terminate)."""
    seen, todo, out = {e}, [e], set()
    while todo:
        cur = todo.pop()
        nxt = list(one_step_rewrites(R, cur))
        if not nxt:
            out.add(cur)
        for n in nxt:
            if n not in seen:
                seen.add(n)
                todo.append(n)
    return out


@st.composite
def small_rule_sets(draw):
    """Two or three generators and up to three rules with left sides of
    total degree 1-2, so every lcm of two left sides has degree at most 4;
    right sides have lower total degree (all weights stay 1)."""
    names = ["x", "y", "z"][: draw(st.integers(2, 3))]
    lhs_exps = st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)).filter(
        lambda v: 1 <= sum(v) <= 2)
    rules = []
    for lhs in draw(st.lists(lhs_exps, min_size=1, max_size=3)):
        rhs = []
        for v in draw(st.lists(st.lists(st.integers(0, 1), min_size=len(names),
                                        max_size=len(names)), max_size=2)):
            while sum(v) >= sum(lhs):
                v = [max(0, a - 1) for a in v]
            rhs.append((draw(st.sampled_from([CycScalar.one(N3), -CycScalar.one(N3)])),
                        Monomial(dict(zip(names, v)))))
        rules.append(RewriteRule(Monomial(dict(zip(names, lhs))), HomogeneousElement(rhs)))
    return names, rules


@given(small_rule_sets())
@settings(max_examples=150, deadline=None)
def test_confluent_matches_exhaustive_rewriting_oracle(case):
    """Every critical pair joins exactly when, from every monomial of
    total degree at most 4 (the largest lcm of two left sides), every
    sequence of one-step rewrites ends in the same normal form."""
    names, rules = case
    cl = FgAbelianGroup(0, [])
    R = GradedRing([(n, cl.zero()) for n in names], cl, N3, rules=rules)
    monomials = [Monomial(dict(zip(names, v)))
                 for v in iproduct(range(5), repeat=len(names)) if sum(v) <= 4]
    unique = all(len(reachable_normal_forms(R, HomogeneousElement.monomial(N3, m))) == 1
                 for m in monomials)
    assert (R.nonjoinable_pair() is None) == unique


@st.composite
def root_tower_cases(draw):
    """Rules g^n -> rhs with distinct heads g, each rhs over the generators
    before its head, so left sides are coprime and the ring is confluent;
    the element has powers high enough for whole-power steps.  Right sides
    are square-free with at most two terms, which keeps the one-step
    rewriting short."""
    names = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
    rules = []
    for i, head in enumerate(names[1:], 1):
        if not draw(st.booleans()):
            continue
        rhs = [(draw(_scalars(N3)), Monomial(dict(zip(names[:i], v))))
               for v in draw(st.lists(st.lists(st.integers(0, 1), min_size=i, max_size=i),
                                      min_size=1, max_size=2))]
        rules.append(RewriteRule(Monomial.gen(head, draw(st.integers(1, 3))),
                                 HomogeneousElement(rhs)))
    terms = [(draw(_scalars(N3)), Monomial(dict(zip(names, v))))
             for v in draw(st.lists(st.lists(st.integers(0, 7), min_size=len(names),
                                             max_size=len(names)), min_size=1, max_size=3))]
    return names, rules, HomogeneousElement(terms)


@given(root_tower_cases())
@settings(max_examples=100, deadline=None)
def test_whole_power_normal_form_equals_the_fixed_strategy(case):
    """On a confluent ring, rewriting whole powers reaches the normal form
    that the oracle reaches one left side at a time."""
    names, rules, e = case
    cl = FgAbelianGroup(0, [])
    R = GradedRing([(n, cl.zero()) for n in names], cl, N3, rules=rules, step_cap=10**6)
    assert R.nonjoinable_pair() is None
    assert R.normal_form(e) == rescanning_normal_form(R, e, whole_powers=False)


@st.composite
def chained_product_cases(draw):
    """A confluent ring with a rule g^n -> rhs for each of b, c, d, each rhs
    one or two terms over the generators before its head, so sections chain
    through earlier roots; and an element one of whose terms is a product of
    powers of at least two heads, each high enough to reduce, which
    ``elements_equal`` normalizes power by power."""
    names = ["a", "b", "c", "d"]
    rules, orders = [], {}
    for i, head in enumerate(names[1:], 1):
        orders[head] = draw(st.integers(1, 3))
        rhs = [(draw(_scalars(N3)), Monomial(dict(zip(names[:i], v))))
               for v in draw(st.lists(st.lists(st.integers(0, 1), min_size=i, max_size=i),
                                      min_size=1, max_size=2))]
        rules.append(RewriteRule(Monomial.gen(head, orders[head]), HomogeneousElement(rhs)))
    heads = draw(st.lists(st.sampled_from(names[1:]), min_size=2, max_size=3, unique=True))
    product = {h: draw(st.integers(orders[h], 2 * orders[h] + 1)) for h in heads}
    product["a"] = draw(st.integers(0, 2))
    terms = [(draw(_scalars(N3)), Monomial(product))]
    terms += [(draw(_scalars(N3)), Monomial(dict(zip(names, v))))
              for v in draw(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                                     max_size=2))]
    return names, rules, HomogeneousElement(terms)


@given(chained_product_cases(), st.booleans(), _scalars(N3), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_elements_equal_matches_one_normal_form_of_the_difference(case, extra, c, k):
    """Normalizing a product power by power gives the verdict of one normal
    form of the difference.  b is nf(a), equal to a, or nf(a) + c*a^k, which
    is in normal form (a heads no rule) and so unequal to a."""
    names, rules, a = case
    cl = FgAbelianGroup(0, [])
    R = GradedRing([(n, cl.zero()) for n in names], cl, N3, rules=rules, step_cap=10**6)
    assert R.nonjoinable_pair() is None
    b = R.normal_form(a)
    if extra:
        b = b + HomogeneousElement([(c, Monomial.gen("a", k))])
    assert R.elements_equal(a, b) == R.normal_form(a - b).is_zero() == (not extra)
    assert R.elements_equal(b, a) == (not extra)


def test_confluent_rings_rewrite_whole_powers_in_one_step():
    cl = FgAbelianGroup(0, [])
    gens = [(n, cl.zero()) for n in "xz"]
    tmp = GradedRing(gens, cl, N2)
    R = GradedRing(gens, cl, N2, rules=[RewriteRule(Monomial.gen("x", 2), tmp.gen("z"))],
                   step_cap=1)
    assert R.normal_form(tmp.mono({"x": 7})) == tmp.mono({"x": 1, "z": 3})
    # the critical-pair check runs under its own budget: with x -> 0 and
    # x*z -> x, a cap of 0 still normalizes 1 and still decides the pair
    R = GradedRing(gens, cl, N2, step_cap=0, rules=[
        RewriteRule(Monomial.gen("x"), HomogeneousElement.zero()),
        RewriteRule(Monomial({"x": 1, "z": 1}), tmp.gen("x")),
    ])
    assert R.normal_form(R.one()) == R.one()
    assert R.nonjoinable_pair() is None
    with pytest.raises(RewriteDivergedError):
        R.normal_form(tmp.mono({"x": 2}))


# -- rational roots -------------------------------------------------------------


def linear_rational_root(values):
    """Oracle: the former search, trying every integer up to |c| as a divisor.

    ``values`` are the Fraction coefficients, lowest degree first.
    """
    lead, const = values[-1], values[0]
    if const == 0:
        return None

    def divisors(n):
        n = abs(n)
        out = [d for d in range(1, n + 1) if n % d == 0]
        return out or [1]

    for p in divisors(const.numerator * const.denominator or 1):
        for q in divisors(lead.numerator * lead.denominator or 1):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                val = Fraction(0)
                for c in reversed(values):
                    val = val * cand + c
                if val == 0:
                    return cand
    return None


def _poly_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


nonzero_small = st.integers(-9, 9).filter(bool)


@st.composite
def integer_polynomials(draw):
    """Integer polynomials of degree 2-5, lowest degree first, constant != 0,
    times a small rational; about half are built from linear factors
    (q t - p), so a root exists.  The rational factor changes which
    divisors are tried, so the order they are tried in shows."""
    if draw(st.booleans()):
        poly = [draw(nonzero_small)]
        for _ in range(draw(st.integers(2, 4))):
            poly = _poly_times(poly, [-draw(nonzero_small), draw(st.integers(1, 4))])
    else:
        deg = draw(st.integers(2, 5))
        poly = ([draw(nonzero_small)] + draw(st.lists(st.integers(-9, 9), min_size=deg - 1,
                                                       max_size=deg - 1))
                + [draw(nonzero_small)])
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)]))
    return [scale * c for c in poly]


def _rational_root_of(R, values):
    root = R._rational_root([CycScalar.from_rational(R.scalar_order, c) for c in values])
    return None if root is None else root.rational_value()


@settings(max_examples=150, deadline=None)
@given(integer_polynomials())
def test_rational_root_matches_linear_divisor_search(values):
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N3)
    assert _rational_root_of(R, values) == linear_rational_root(values)


def test_rational_root_tries_divisors_in_ascending_order():
    # t^2/2 - 5t + 12 = (t - 4)(t - 6)/2: the divisors 4 and 6 of 12 are
    # both above sqrt(12), and the search must meet 4 first
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    values = [Fraction(12), Fraction(-5), Fraction(1, 2)]
    assert _rational_root_of(R, values) == linear_rational_root(values) == 4


def test_rational_root_with_large_constant_is_fast():
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    t = sympy.Symbol("t")
    poly = sympy.Poly((t - 100003) * (t - 200003), t)
    values = [Fraction(int(c)) for c in reversed(poly.all_coeffs())]
    start = time.perf_counter()
    root = _rational_root_of(R, values)
    elapsed = time.perf_counter() - start
    assert root is not None and sympy.Rational(root.numerator, root.denominator) in sympy.roots(poly)
    assert elapsed < 0.5


@pytest.mark.parametrize("lead,const", [(1, -1000000007 * 1000000009),
                                        (1000000007 * 1000000009, -1)])
def test_rational_root_search_over_budget_raises_fast(lead, const):
    # t^2 - pq and pq t^2 - 1 with p, q about 10^9: listing the divisors
    # would take about 10^9 trial divisions
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    f = R.mono({"t": 2}, CycScalar.from_rational(N2, lead)) + R.const(
        CycScalar.from_rational(N2, const))
    start = time.perf_counter()
    with pytest.raises(FactorizationOracleRequired, match="exceeds its budget"):
        R.h_factorize(f)
    assert time.perf_counter() - start < 0.5


def test_h_factorize_finds_roots_below_the_budget():
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N2)
    t = R.gen("t")
    linear = [t - R.const(CycScalar.from_rational(N2, r)) for r in (100003, 200003)]
    fact = R.h_factorize(linear[0] * linear[1])
    assert sorted(f.key() for f, k in fact.factors) == sorted(f.key() for f in linear)
    assert fact.unit == CycScalar.one(N2)


# -- factoring over Q against sympy ----------------------------------------------


@st.composite
def rational_products(draw):
    """(unit, k, linear roots with multiplicities, quadratic or None): the
    polynomial unit * t^k * prod (t - r)^m [* (t^2 + b t + c)] over Q(zeta_3),
    of degree at most 8, with the unit a rational times a power of zeta_3."""
    unit = (draw(st.fractions(-5, 5, max_denominator=3).filter(bool)),
            draw(st.integers(0, 2)))
    k = draw(st.integers(0, 3))
    quad = draw(st.none() | st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda bc: bc[1] and not sympy.sqrt(bc[0] ** 2 - 4 * bc[1]).is_rational))
    budget = 8 - k - (2 if quad else 0)
    roots = []
    for r, m in draw(st.lists(st.tuples(
            st.fractions(-6, 6, max_denominator=4).filter(bool), st.integers(1, 3)),
            max_size=4)):
        if m <= budget:
            roots.append((r, m))
            budget -= m
    return unit, k, roots, quad


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational_products())
def test_h_factorize_matches_sympy_over_q(case):
    (q, j), k, roots, quad = case
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, N3)
    t = R.gen("t")
    zeta_j = CycScalar.zeta(N3, j)
    e = R.const(CycScalar.from_rational(N3, q) * zeta_j) * t ** k
    for r, m in roots:
        e = e * (t - R.const(CycScalar.from_rational(N3, r))) ** m
    if quad:
        b, c = quad
        e = e * (t ** 2 + t.scale(CycScalar.from_rational(N3, b))
                 + R.const(CycScalar.from_rational(N3, c)))
        with pytest.raises(FactorizationOracleRequired):
            R.h_factorize(e)
        return

    # sympy factors the expanded polynomial divided by zeta^j, which is rational
    x = sympy.Symbol("t")
    unscaled = {(m.total_degree(),): (c * zeta_j.inverse()).rational_value()
                for c, m in e.terms}
    poly = sympy.Poly.from_dict({d: sympy.Rational(v.numerator, v.denominator)
                                 for d, v in unscaled.items()}, x, domain="QQ")
    content, sym_factors = poly.factor_list()
    want = []
    for f, mult in sym_factors:
        content *= f.LC() ** mult
        want.append((tuple(Fraction(int(a.p), int(a.q)) for a in reversed(f.monic().all_coeffs())),
                     mult))
    unit = CycScalar.from_rational(N3, Fraction(int(content.p), int(content.q))) * zeta_j

    fact = R.h_factorize(e)
    got = []
    for f, mult in fact.factors:
        coeffs = [Fraction(0)] * (max(m.total_degree() for _, m in f.terms) + 1)
        for c, m in f.terms:
            coeffs[m.total_degree()] = c.rational_value()
        got.append((tuple(coeffs), mult))
    assert fact.unit == unit
    assert sorted(got) == sorted(want)


# -- factoring over Q(zeta_3) and Q(zeta_4) against sympy --------------------------


@st.composite
def cyclotomic_products(draw):
    """(unit, k, roots with multiplicities): the polynomial
    unit * t^k * prod (t - c)^m over Q(zeta_N), N = 3 or 4, of degree at
    most 7, with each c = a + b*zeta_N in Z[zeta_N] and the unit a rational
    times zeta_N^j, 0 <= j <= 3."""
    unit = (draw(st.fractions(-5, 5, max_denominator=3).filter(bool)),
            draw(st.integers(0, 3)))
    k = draw(st.integers(0, 2))
    budget = 7 - k
    roots = []
    for c, m in draw(st.lists(st.tuples(
            st.tuples(st.integers(-3, 3), st.sampled_from([0, 0, 1, -1, 2])),
            st.integers(1, 3)), max_size=4)):
        if m <= budget:
            roots.append((c, m))
            budget -= m
    return unit, k, roots


# zeta_N as a sympy number: Q(zeta_3) = Q(sqrt -3) and Q(zeta_4) = Q(i)
SYMPY_ZETA = {3: (sympy.sqrt(-3) - 1) / 2, 4: sympy.I}


@lru_cache(maxsize=None)
def _sympy_cyclotomic_field(N):
    """sympy's field Q(zeta_N) and zeta_N in it."""
    K = sympy.QQ.algebraic_field(SYMPY_ZETA[N])
    return K, K.from_sympy(SYMPY_ZETA[N])


@pytest.mark.parametrize("N", [3, 4], ids=["zeta3", "zeta4"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=cyclotomic_products())
def test_h_factorize_matches_sympy_over_q_zeta(N, case):
    """h_factorize either agrees with sympy over Q(zeta_N) in unit,
    factors and multiplicities, or asks for a factorization oracle."""
    (q, j), k, roots = case
    order = CycOrder(N)
    cl0 = FgAbelianGroup(0, [])
    R = GradedRing([("t", cl0.zero())], cl0, order)
    t = R.gen("t")
    e = R.const(CycScalar.from_rational(order, q) * CycScalar.zeta(order, j)) * t ** k
    for (a, b), m in roots:
        e = e * (t - R.const(CycScalar(order, [a, b]))) ** m
    try:
        fact = R.h_factorize(e)
    except FactorizationOracleRequired:
        return

    K, w = _sympy_cyclotomic_field(N)

    def coeffs(f):  # highest power first, in K
        out = [K.zero] * (max(m.total_degree() for _, m in f.terms) + 1)
        for c, m in f.terms:
            c0, c1 = c.coeffs
            out[-1 - m.total_degree()] = K.convert(c0) + K.convert(c1) * w
        return out

    def key(cs):
        return tuple(tuple(c.to_list()) for c in cs)

    x = sympy.Symbol("t")
    content, sym_factors = sympy.Poly.from_list(coeffs(e), x, domain=K).rep.factor_list()
    want = []
    for f, mult in sym_factors:
        content *= f.LC() ** mult
        want.append((key(f.monic().to_list()), mult))
    got = [(key(coeffs(f)), mult) for f, mult in fact.factors]
    assert key(coeffs(R.const(fact.unit))) == key([content])
    assert sorted(got) == sorted(want)


# -- h_factorize's postcondition: each factor is monic, normal and settles again


def test_h_factorize_scales_a_declared_non_monic_factor():
    """(t + 1)^2 declared as 1/4 * (2t + 2)^2: the factor is made monic and
    its scalar moves into the unit."""
    cl0 = FgAbelianGroup(0, [])
    R0 = GradedRing([("t", cl0.zero())], cl0, N2)
    t1 = R0.gen("t") + R0.one()
    quarter, two = (CycScalar.from_rational(N2, q) for q in (Fraction(1, 4), 2))
    R = R0.with_data(declared_factorizations={
        (t1 ** 2).key(): Factorization(quarter, ((t1.scale(two), 2),))})
    fact = R.h_factorize(t1 ** 2)
    assert fact.unit == CycScalar.one(N2)
    assert fact.factors == ((t1, 2),)
    assert_factors_settle(R, fact)


def test_h_factorize_keeps_a_declared_residual_of_a_partial_split():
    """(t - 1)(t^2 + 1) over Q(zeta_4): the rational root 1 splits off, and
    the residual t^2 + 1, which splits no further, is kept because it is
    declared, as (t - zeta)(t + zeta)."""
    N4 = CycOrder(4)
    cl0 = FgAbelianGroup(0, [])
    R0 = GradedRing([("t", cl0.zero())], cl0, N4)
    t, one, i = R0.gen("t"), R0.one(), R0.const(CycScalar.zeta(N4))
    e = (t - one) * (t ** 2 + one)
    with pytest.raises(FactorizationOracleRequired):
        R0.h_factorize(e)
    R = R0.with_data(declared_factorizations={
        (t ** 2 + one).key(): Factorization(CycScalar.one(N4), ((t - i, 1), (t + i, 1)))})
    fact = R.h_factorize(e)
    assert fact.unit == CycScalar.one(N4)
    assert sorted(f.key() for f, _k in fact.factors) == sorted(
        f.key() for f in (t - one, t - i, t + i))
    assert fact.expand() == e
    assert_factors_settle(R, fact)


def test_h_factorize_normalizes_declared_factors():
    """t^2 + t declared as t * (g + 1) in a ring with the rule g -> t: the
    declared factor g + 1 is not in normal form, and is factored as t + 1."""
    cl0 = FgAbelianGroup(0, [])
    R0 = GradedRing([("g", cl0.zero()), ("t", cl0.zero())], cl0, N2)
    g, t, one = R0.gen("g"), R0.gen("t"), R0.one()
    e = t ** 2 + t
    R = R0.with_data(rules=[RewriteRule(Monomial.gen("g"), t)], declared_factorizations={
        e.key(): Factorization(CycScalar.one(N2), ((t, 1), (g + one, 1)))})
    fact = R.h_factorize(e)
    assert fact.factors == ((t + one, 1), (t, 1))  # by key: "1*1 + 1*t" first
    assert_factors_settle(R, fact)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rational_products())
def test_h_factorize_factors_settle_again(case):
    """unit * t^k * prod (t - r)^m over Q(zeta_3), the quadratic left out,
    in a ring where z^2 -> t makes t = z^2 a declared factorization."""
    (q, j), k, roots, _quad = case
    cl0 = FgAbelianGroup(0, [])
    R0 = GradedRing([("t", cl0.zero()), ("z", cl0.zero())], cl0, N3)
    t = R0.gen("t")
    R = R0.with_data(rules=[RewriteRule(Monomial.gen("z", 2), t)])
    e = R.const(CycScalar.from_rational(N3, q) * CycScalar.zeta(N3, j)) * t ** k
    for r, m in roots:
        e = e * (t - R.const(CycScalar.from_rational(N3, r))) ** m
    assert_factors_settle(R, R.h_factorize(e))


def test_a_power_zero_of_a_sum_is_one():
    R = ring_kxy_z2()
    assert (R.gen("x") + R.gen("y")) ** 0 == R.one()


def test_with_data_checks_every_rule_when_the_rules_are_equal_copies():
    """Equal rules that are not this ring's own objects carry nothing: the
    new ring checks each of them again."""
    R = _x2_to_y(FgAbelianGroup(1, [[2]]), [1], [0])
    copies = [RewriteRule(r.lhs, r.rhs) for r in R.rules]
    assert copies == list(R.rules)
    checked = []
    real = GradedRing._check_rule
    with patch.object(GradedRing, "_check_rule",
                      lambda ring, r: checked.append(r) or real(ring, r)):
        assert R.with_data(rules=R.rules).rules == R.rules
        assert checked == []
        R.with_data(rules=copies)
    assert checked == copies
