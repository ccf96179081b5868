"""Shared fixtures: parsed bundled problems and hand-built lift data."""

import json
from dataclasses import replace
from itertools import product
from pathlib import Path

from coxlift.abgroup import GroupHomomorphism
from coxlift.cyclo import CycScalar
from coxlift.lift import run_cox_lift
from coxlift.mdstack import canonical_stack, root_divisor, root_line_bundle
from coxlift.serialize import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

_cache = {}


def elements(G):
    """All elements of the finite group G, in lex order of their canonical
    coordinates."""
    assert G.is_finite()
    return [G.from_canonical(y) for y in product(*map(range, G.moduli))]


def cyclic_problem(n, roots):
    """A^1 -> C / mu_n with x^n -> prod(t - r) over ``roots``, as a problem
    document: every prime step of n roots each factor t - r in one step."""
    coeffs = [1]  # coeffs[i] is the coefficient of t^i
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    terms = [{"c": str(c), "m": {"t": i} if i else {}}
             for i, c in reversed(list(enumerate(coeffs))) if c]
    return {
        "schema": "coxlift/1",
        "name": f"cyclic{n}",
        "cyclotomic_order": n,
        "target": {
            "class_group": {"ambient_rank": 1, "relations": [[n]]},
            "pic_subgroup": [],
            "generators": [{"name": "x", "degree": [1]}],
            "relations": [],
            "irrelevant": [],
        },
        "source": {
            "class_group": {"ambient_rank": 0, "relations": []},
            "generators": [{"name": "t", "degree": []}],
            "relations": [],
            "irreducibles": ["t"],
            "declared_factorizations": [],
            "irrelevant": [],
            "assertions": {"units_of_complement_trivial": True,
                           "pic_of_complement_trivial": True},
        },
        "base_morphism": {
            "group_map": [],
            "images": [{"monomial": {"x": n}, "image": {"terms": terms}}],
        },
        "options": {"step_cap": 10000, "spotcheck_bound": 4},
    }


def p1_into_p112_problem(xy_coeff=1):
    """P^1 -> P(1,1,2), [s:t] -> [s:t:s^2+t^2], given on the Picard level 2Z
    of Cl = Z, with x0*x1's image scaled by ``xy_coeff``: the keys are x0^2,
    x0*x1, x1^2 and y, and the source's class group is free too."""

    def image(*terms):
        return {"terms": [{"c": str(c), "m": m} for c, m in terms]}

    return {
        "schema": "coxlift/1",
        "name": "p1_into_p112",
        "cyclotomic_order": 2,
        "target": {
            "class_group": {"ambient_rank": 1, "relations": []},
            "pic_subgroup": [[2]],
            "generators": [{"name": "x0", "degree": [1]}, {"name": "x1", "degree": [1]},
                           {"name": "y", "degree": [2]}],
        },
        "source": {
            "class_group": {"ambient_rank": 1, "relations": []},
            "generators": [{"name": "s", "degree": [1]}, {"name": "t", "degree": [1]}],
        },
        "base_morphism": {"group_map": [[2]], "images": [
            {"monomial": {"x0": 2}, "image": image((1, {"s": 2}))},
            {"monomial": {"x0": 1, "x1": 1}, "image": image((xy_coeff, {"s": 1, "t": 1}))},
            {"monomial": {"x1": 2}, "image": image((1, {"t": 2}))},
            {"monomial": {"y": 1}, "image": image((1, {"s": 2}), (1, {"t": 2}))},
        ]},
    }


# generated problems, loaded by name like the bundled ones: three pushout
# steps (p = 2, 2, 3) of three roots each, and a free class group
GENERATED = {"cyclic12": lambda: cyclic_problem(12, (1, -2, 3)),
             "p1_into_p112": p1_into_p112_problem}


def load_spec(name):
    if name not in _cache:
        _cache[name] = parse_problem(
            GENERATED[name]() if name in GENERATED else str(PROBLEMS / f"{name}.json"))
    return _cache[name]


def load_raw(name):
    with open(PROBLEMS / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


_results = {}


def lift_of(name):
    if name not in _results:
        spec = load_spec(name)
        _results[name] = run_cox_lift(
            spec.target, spec.source_stack, spec.base, spec.options
        )
    return _results[name]


def tower_over(ring, steps):
    """The canonical stack of ring rooted step by step: ("divisor",
    generator, n, new name) or ("line_bundle", class coordinates, n), the
    class padded with zeros to the current Pic rank."""
    stack = canonical_stack(ring)
    for kind, what, n, *name in steps:
        if kind == "divisor":
            stack = root_divisor(stack, stack.cox_ring.gen(what), n, *name)
        else:
            cls = list(what) + [0] * (stack.pic.ambient_rank - len(what))
            stack = root_line_bundle(stack, stack.pic.element(cls), n)
    return stack


def stack_as_lift(res, stack, group_map=None):
    """A stack as a would-be lift of res's target: identity images and, by
    default, the identity on Pic."""
    pic = stack.pic
    if group_map is None:
        group_map = GroupHomomorphism(
            res.target.cl, pic, [pic.basis_element(i) for i in range(pic.ambient_rank)]
        )
    images = {name: stack.cox_ring.gen(name) for name, _ in res.target.ring.generators}
    return replace(res, stack=stack, images=images, group_map=group_map, steps=())


def assert_factors_settle(ring, fact):
    """Each factor of ``fact``, an ``h_factorize`` result in ring, is monic,
    its own normal form, and re-factors as 1 * f^1: the postcondition that
    lets the lift engine root the factors as they stand."""
    one = CycScalar.one(ring.scalar_order)
    for f, _e in fact.factors:
        assert f.leading()[0] == one, f.key()
        assert ring.normal_form(f) == f, f.key()
        again = ring.h_factorize(f)
        assert again.unit == one and again.factors == ((f, 1),), f.key()
