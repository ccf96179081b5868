"""Problem and result documents: versioned JSON with exact scalars.

The shape table (``PROBLEM``, ``DECOMPOSE``, ``RESULT`` and the shapes
they are made of) is the one description of ``coxlift/1``: each field
with its shape, its default or ``REQUIRED``, and the label its errors
name.  ``_walk`` reads a whole document through it before anything is
built, so the builders index data that has already been checked.

Rationals serialize as "p/q" strings, roots of unity as {"zeta": k}
relative to the problem's cyclotomic order, group elements as integer
coordinate arrays, and elements as term lists.  Output key order is
deterministic so golden files diff cleanly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from types import FunctionType
from typing import Dict, List, NamedTuple, Optional, Tuple

from .abgroup import FgAbelianGroup, GroupHomomorphism, quotient_group
from .cyclo import CycOrder, CycScalar
from .errors import InputDataError
from .gring import (DEFAULT_STEP_CAP, Factorization, GradedRing, HomogeneousElement,
                    Monomial, RewriteRule)
from .lift import (
    BaseMorphism,
    CoxLiftResult,
    LiftOptions,
    StepRecord,
    TargetData,
    VerificationReport,
)
from .mdstack import (
    CoarseData,
    DivisorRootInfo,
    MdStackData,
    RootStep,
    canonical_stack,
    effective_generators,
    replay_tower,
    root_divisor,
)

SCHEMA = "coxlift/1"
RESULT_SCHEMA = "coxlift/1-result"


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    order: CycOrder
    target: TargetData
    source_stack: MdStackData
    base: BaseMorphism
    options: LiftOptions
    assertions: Dict[str, bool]


@dataclass(frozen=True)
class DecomposeSpec:
    name: str
    order: CycOrder
    stack: MdStackData
    options: LiftOptions


# ---------------------------------------------------------------------------
# the walker and the readers: integers are checked where they enter, so 2.5
# or "2" never becomes 2; scalars need Q(zeta_N), which is known only once
# the groups are built, so they are read as functions of it


REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string",
          bool: "true or false"}


class Of(NamedTuple):
    """A list or an object (``container``) whose every item has one shape."""
    container: type
    item: object
    label: str


def _walk(value, shape, label: str):
    """``value`` read through ``shape``; ``label`` names it in errors.

    A shape is a dict of fields, key -> (shape, default or REQUIRED, label),
    that ignores other keys; an Of; a JSON type; a string the value must
    equal; or a reader (value, label) -> value, called directly.  An Of a
    JSON type is checked by one comprehension, not one call per item.
    """
    kind = type(shape)
    if kind is not dict and kind is not Of and kind is not type:
        if kind is not str:
            return shape(value, label)
        if value != shape:
            raise InputDataError(f"unsupported {label} {value!r}; expected {shape}")
        return value
    expected = dict if kind is dict else shape.container if kind is Of else shape
    if type(value) is not expected:
        raise InputDataError(f"{label} must be {_KINDS[expected]}, got {value!r}")
    if kind is dict:
        out = {}
        for key, (sub, default, sublabel) in shape.items():
            v = value.get(key, default)
            if v is REQUIRED:
                raise InputDataError(f"{label} lacks the required field {key!r}")
            out[key] = sub(v, sublabel) if type(sub) is FunctionType else _walk(v, sub, sublabel)
        return out
    if kind is type:
        return value
    _, item, item_label = shape
    if type(item) is type:
        bad = [v for v in (value if expected is list else value.values()) if type(v) is not item]
        if bad:
            raise InputDataError(f"{item_label} must be {_KINDS[item]}, got {bad[0]!r}")
        return value
    if expected is list:
        return [_walk(v, item, item_label) for v in value]
    return {k: _walk(v, item, item_label) for k, v in value.items()}


def integer_rows(x, label: str) -> list:
    """A JSON list of integer lists; floats, bools and strings are rejected."""
    return _walk(x, Of(list, Of(list, int, label), label), label)


def _nonnegative(x, label: str) -> int:
    """An integer of at least 0."""
    if _walk(x, int, label) < 0:
        raise InputDataError(f"{label} must not be negative, got {x}")
    return x


def _rational(x, label: str) -> Fraction:
    """An exact rational from an integer or a "p/q" string, never a float or a bool."""
    if type(x) is int or type(x) is str:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputDataError(f"{label} must be an integer or a \"p/q\" string, got {x!r}")


def _scalar(x, label: str):
    """order -> CycScalar, from a rational, {"zeta": k}, or {"coeffs": [...]}
    with an optional "order" (the problem's order when absent)."""
    if type(x) is not dict:
        q = _rational(x, label)
        return lambda order: CycScalar.from_rational(order, q)
    if "zeta" in x:
        k = _walk(x["zeta"], int, f"{label} zeta exponent")
        return lambda order: CycScalar.zeta(order, k)
    if "coeffs" in x:
        coeffs = _walk(x["coeffs"], Of(list, _rational, f"{label} coefficient"),
                       f"{label} coefficients")
        sub = _walk(x["order"], int, f"{label} order") if "order" in x else None
        return lambda order: CycScalar(CycOrder(order.N if sub is None else sub),
                                       coeffs).promote(order)
    raise InputDataError(f"cannot parse {label} {x!r}")


def _factor(x, label: str):
    """(element, exponent) from a [generator name or element, exponent] pair."""
    if type(x) is not list or len(x) != 2:
        raise InputDataError(f"{label} must be a [factor, exponent] pair, got {x!r}")
    f, e = x
    if type(f) is str:
        f = {"terms": [{"m": {f: 1}}]}
    return _terms(f, label), _walk(e, int, f"{label} exponent")


def _terms(x, label: str) -> list:
    """The terms of an element, each read through ``TERM``."""
    if type(x) is not dict or type(x.get("terms")) is not list:
        raise InputDataError(f"{label} must be an object with a 'terms' list, got {x!r}")
    return [_walk(t, TERM, "element term") for t in x["terms"]]


def _tower_step(x, label: str):
    """(kind, fields) of a tower step, read through the table of its kind."""
    kind = _walk(x, {"kind": (str, REQUIRED, "tower step kind")}, label)["kind"]
    if kind not in TOWER_STEPS:
        raise InputDataError(f"unknown tower step kind {kind!r}")
    return kind, _walk(x, TOWER_STEPS[kind], label)


# ---------------------------------------------------------------------------
# the shape table of coxlift/1


GROUP = {"ambient_rank": (int, REQUIRED, "ambient_rank"),
         "relations": (integer_rows, [], "group relations")}
TERM = {"c": (_scalar, "1", "term coefficient"),
        "m": (Of(dict, int, "term monomial exponent"), {}, "term monomial")}
GENERATOR = {"name": (str, REQUIRED, "generator name"),
             "degree": (Of(list, int, "generator degree"), [], "generator degree")}
RULE = {"lhs": (Of(dict, int, "rule lhs exponent"), REQUIRED, "rule lhs"),
        "rhs": (_terms, REQUIRED, "rule rhs")}
RING = {
    "class_group": (GROUP, REQUIRED, "class_group"),
    "generators": (Of(list, GENERATOR, "ring generator"), [], "generators"),
    "relations": (Of(list, RULE, "rewrite rule"), [], "relations"),
    "irreducibles": (Of(list, str, "irreducible"), [], "irreducibles"),
    "irrelevant": (Of(list, _terms, "irrelevant element"), [], "irrelevant"),
}
ROOT = {"section": (_terms, REQUIRED, "root section"),
        "order": (int, REQUIRED, "root order"),
        "name": (str, REQUIRED, "root name")}
DECLARED = {
    "element": (_terms, REQUIRED, "declared element"),
    "unit": (_scalar, "1", "declared unit"),
    "factors": (Of(list, _factor, "declared factor"), [], "declared factors"),
    "roots": (Of(list, ROOT, "declared root"), [], "declared roots"),
}
DECLARING_RING = {**RING, "declared_factorizations": (
    Of(list, DECLARED, "declared factorization"), [], "declared_factorizations")}
OPTIONS = {"step_cap": (int, DEFAULT_STEP_CAP, "step_cap"),
           "spotcheck_bound": (_nonnegative, LiftOptions().spotcheck_bound, "spotcheck_bound")}
HEADER = {
    "schema": (SCHEMA, REQUIRED, "schema"),
    "cyclotomic_order": (int, 1, "cyclotomic_order"),
    "options": (OPTIONS, {}, "problem field 'options'"),
}
BASE_IMAGE = {"monomial": (Of(dict, int, "base image monomial exponent"), REQUIRED,
                           "base image monomial"),
              "image": (_terms, REQUIRED, "base image element")}
PROBLEM = {
    **HEADER,
    "name": (str, "problem", "name"),
    "target": ({**RING, "pic_subgroup": (integer_rows, [], "pic_subgroup")},
               REQUIRED, "target"),
    "source": ({**DECLARING_RING, "assertions": (Of(dict, bool, "assertion"), {},
                                                 "source field 'assertions'")},
               REQUIRED, "source"),
    "base_morphism": ({"group_map": (integer_rows, [], "group_map"),
                       "images": (Of(list, BASE_IMAGE, "base image"), [], "images")},
                      REQUIRED, "base_morphism"),
}
DECOMPOSE = {
    **HEADER,
    "name": (str, "decompose", "name"),
    "decompose": ({"stack": (DECLARING_RING, REQUIRED, "decompose stack"),
                   "coarse": ({**RING, "inclusion": (integer_rows, [], "inclusion")},
                              REQUIRED, "decompose coarse")},
                  REQUIRED, "decompose"),
}
TOWER_STEPS = {
    "line_bundle": {"class": (Of(list, int, "tower class"), REQUIRED, "tower class"),
                    "order": (int, REQUIRED, "tower order")},
    "divisor": ROOT,
    "divisor_batch": {"roots": (Of(list, ROOT, "tower root"), REQUIRED, "tower roots"),
                      "group_relations": (integer_rows, REQUIRED, "tower group relations")},
}
TOWER = Of(list, _tower_step, "tower step")
RESULT_TOWER = {"schema": (RESULT_SCHEMA, REQUIRED, "result schema"),
                "tower": (TOWER, REQUIRED, "tower")}
RESULT = {**RESULT_TOWER, "images": (Of(dict, _terms, "image"), REQUIRED, "images"),
          "group_map": (integer_rows, REQUIRED, "group_map")}


def _read(data) -> dict:
    """The document itself, or the one read from a path."""
    if isinstance(data, (str, bytes, os.PathLike)):
        with open(data, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return data


def load_document(path, step_cap=None, spotcheck_bound=None) -> dict:
    """The problem or decompose document at ``path``, given options in place of its own."""
    raw = _read(path)
    if type(raw) is not dict:
        raise InputDataError("a problem document must be a JSON object")
    given = {"step_cap": step_cap, "spotcheck_bound": spotcheck_bound}
    raw["options"] = {**_walk(raw, {"options": HEADER["options"]}, "problem")["options"],
                      **{k: v for k, v in given.items() if v is not None}}
    return raw


def _element(terms, order: CycOrder) -> HomogeneousElement:
    return HomogeneousElement([(t["c"](order), Monomial(t["m"])) for t in terms])


def parse_element(data, order: CycOrder) -> HomogeneousElement:
    return _element(_terms(data, "element"), order)


def _ring(block, group: FgAbelianGroup, order: CycOrder, step_cap: int) -> GradedRing:
    gens = [(g["name"], group.element(g["degree"])) for g in block["generators"]]
    rules = [RewriteRule(Monomial(r["lhs"]), _element(r["rhs"], order))
             for r in block["relations"]]
    for rule in rules:
        if not rule.rhs.support():
            raise InputDataError(f"rewrite rule {rule.key()} makes a generator zero or a unit")
    ring = GradedRing(gens, group, order, rules, step_cap=step_cap)
    if unknown := set(block["irreducibles"]) - set(ring.gen_degrees):
        raise InputDataError(f"irreducible marks for unknown generators: {sorted(unknown)}")
    if pair := ring.nonjoinable_pair():
        r1, r2, rest = pair
        raise InputDataError(f"rewrite rules {r1.key()} and {r2.key()} are not confluent: "
                             f"their critical pair leaves {rest.key()}")
    return ring


def _global_order(doc, target_cl, pic_gens) -> CycOrder:
    """lcm(cyclotomic_order, exponent of Cl/Pic).  Its checks, Cl/Pic finite
    and the order positive, guard documents."""
    Q, _ = quotient_group(target_cl, pic_gens)
    if not Q.is_finite():
        raise InputDataError("class group is not torsion over the Picard subgroup")
    if doc["cyclotomic_order"] < 1:
        raise InputDataError("cyclotomic_order must be positive")
    return CycOrder(math.lcm(Q.exponent(), doc["cyclotomic_order"]))


def _parse_declared(entries, ring: GradedRing, order: CycOrder):
    """Validate declared factorizations against a scratch root extension.

    Returns (ring with the declarations attached, root name pins).
    Verification runs before the declarations are attached, so a wrong
    declaration cannot make itself true by rewriting.
    """
    declared: Dict[str, Factorization] = {}
    pins: List[Tuple[Tuple[str, int], str]] = []
    if not entries:
        return ring, ()
    scratch = canonical_stack(ring)
    for entry in entries:
        for root in entry["roots"]:
            section = scratch.cox_ring.normal_form(_element(root["section"], order))
            name, n = root["name"], root["order"]
            if name not in scratch.cox_ring.gen_degrees:
                scratch = root_divisor(scratch, section, n, name)
            lead, _ = section.leading()
            pins.append(((section.scale(lead.inverse()).key(), n), name))
    sring = scratch.cox_ring
    for entry in entries:
        element = _element(entry["element"], order)
        factors = [(_element(f, order), e) for f, e in entry["factors"]]
        fact = Factorization(entry["unit"](order), tuple(factors))
        missing = [
            n for f, _ in factors for n in f.support() if n not in sring.gen_degrees
        ]
        if missing:
            raise InputDataError(
                f"declared factorization of {element.key()} references unknown "
                f"generators {missing}; add a roots context"
            )
        ok, power, diag = sring.verify_factorization(element, fact)
        if not ok:
            raise InputDataError(
                f"declared factorization of {element.key()} fails verification: {diag}"
            )
        declared[element.key()] = fact
    return ring.with_data(declared_factorizations=declared), tuple(pins)


# ---------------------------------------------------------------------------
# problems


def parse_problem(data) -> ProblemSpec:
    doc = _walk(_read(data), PROBLEM, "problem")
    step_cap = doc["options"]["step_cap"]
    tblock, sblock, bblock = doc["target"], doc["source"], doc["base_morphism"]
    cl = FgAbelianGroup(**tblock["class_group"])
    pic_gens = [cl.element(c) for c in tblock["pic_subgroup"]]
    order = _global_order(doc, cl, pic_gens)

    target_ring = _ring(tblock, cl, order, step_cap)
    if not tblock["generators"]:
        raise InputDataError("target needs at least one Cox ring generator")
    target = TargetData(cl=cl, pic_gens=tuple(pic_gens), ring=target_ring,
                        irrelevant=tuple(_element(e, order) for e in tblock["irrelevant"]))
    # TargetData.validate has nothing left to catch: the ring is graded by
    # cl, and _global_order has rejected an infinite Cl/Pic

    clx = FgAbelianGroup(**sblock["class_group"])
    source_ring, pins = _parse_declared(sblock["declared_factorizations"],
                                        _ring(sblock, clx, order, step_cap), order)
    source_stack = canonical_stack(
        source_ring, tuple(_element(e, order) for e in sblock["irrelevant"])
    )

    group_images = [clx.element(c) for c in bblock["group_map"]]
    if len(group_images) != len(pic_gens):
        raise InputDataError(
            "base morphism group_map must list one image per pic_subgroup generator"
        )
    images: Dict[Monomial, HomogeneousElement] = {}
    target_names = set(target_ring.gen_degrees)
    source_names = set(source_ring.gen_degrees)
    for item in bblock["images"]:
        mono = Monomial(item["monomial"])
        if not set(mono.names()) <= target_names:
            raise InputDataError(f"base key {mono.key()} uses unknown target generators")
        img = _element(item["image"], order)
        if not img.support() <= source_names:
            raise InputDataError(
                f"base image of {mono.key()} uses unknown source generators"
            )
        images[mono] = source_ring.normal_form(img)
    base = BaseMorphism(images=images, group_images=tuple(group_images))
    options = LiftOptions(spotcheck_bound=doc["options"]["spotcheck_bound"],
                          root_name_pins=pins)
    return ProblemSpec(doc["name"], order, target, source_stack, base, options,
                       sblock["assertions"])


def parse_decompose(data) -> DecomposeSpec:
    doc = _walk(_read(data), DECOMPOSE, "decompose document")
    step_cap = doc["options"]["step_cap"]
    sblock, cblock = doc["decompose"]["stack"], doc["decompose"]["coarse"]
    pic = FgAbelianGroup(**sblock["class_group"])
    coarse_group = FgAbelianGroup(**cblock["class_group"])
    if len(cblock["inclusion"]) != coarse_group.ambient_rank:
        raise InputDataError("inclusion must list one image per coarse generator")
    pic_gens = [pic.element(r) for r in cblock["inclusion"]]
    order = _global_order(doc, pic, pic_gens)
    stack_ring, _pins = _parse_declared(sblock["declared_factorizations"],
                                        _ring(sblock, pic, order, step_cap), order)
    coarse_ring = _ring(cblock, coarse_group, order, step_cap)
    incl = GroupHomomorphism(coarse_group, pic, pic_gens)
    coarse = CoarseData(coarse_ring, tuple(_element(e, order) for e in cblock["irrelevant"]), incl)
    stack = MdStackData(stack_ring, tuple(_element(e, order) for e in sblock["irrelevant"]),
                        (), coarse)
    options = LiftOptions(spotcheck_bound=doc["options"]["spotcheck_bound"])
    return DecomposeSpec(doc["name"], order, stack, options)


# ---------------------------------------------------------------------------
# results


def emit_scalar(s: CycScalar):
    if s.is_rational():
        return str(s.rational_value())
    k = s.as_root_of_unity()
    if k is not None:
        return {"zeta": k}
    return {"order": s.order.N, "coeffs": [str(c) for c in s.coeffs]}


def emit_element(e: HomogeneousElement):
    return {
        "terms": [
            {"c": emit_scalar(c), "m": {n: x for n, x in m.pairs}} for c, m in e.terms
        ]
    }


def emit_group(G: FgAbelianGroup):
    return {
        "ambient_rank": G.ambient_rank,
        "relations": [list(r) for r in G.relations.entries],
    }


def _emit_rules(rules):
    return [
        {"lhs": {n: e for n, e in r.lhs.pairs}, "rhs": emit_element(r.rhs)}
        for r in rules
    ]


def _emit_root(info: DivisorRootInfo) -> dict:
    return {"section": emit_element(info.section), "order": info.order, "name": info.name}


def emit_tower(tower) -> list:
    out = []
    for step in tower:
        if step.kind == "line_bundle":
            out.append(
                {"kind": "line_bundle", "class": list(step.bundle_class), "order": step.order}
            )
        elif step.kind == "divisor":
            out.append({"kind": "divisor", **_emit_root(step.roots[0])})
        else:
            out.append({"kind": "divisor_batch", "roots": list(map(_emit_root, step.roots)),
                        "group_relations": [list(r) for r in step.group_relations]})
    return out


def _tower(steps, order: CycOrder) -> tuple:
    out = []
    for kind, s in steps:
        if kind == "line_bundle":
            out.append(RootStep(kind=kind, bundle_class=tuple(s["class"]), order=s["order"]))
        else:  # a divisor step is its own one root
            roots = tuple(DivisorRootInfo(_element(r["section"], order), r["order"], r["name"])
                          for r in s.get("roots", [s]))
            relations = tuple(map(tuple, s.get("group_relations", ())))
            out.append(RootStep(kind=kind, roots=roots, group_relations=relations))
    return tuple(out)


def emit_step_record(s: StepRecord) -> dict:
    return {
        "index": s.index,
        "class": list(s.cls_coords),
        "p": s.p,
        "kind": s.kind,
        "generators": [m.key() for m in s.gens],
        "cosets": list(s.cosets),
        "zero_pullbacks": list(s.zero_pullbacks),
        "roots": [{"section": k, "order": o, "name": n} for k, o, n in s.roots],
        "constraints": {
            "rows": [list(r) for r in s.constraint_rows],
            "rhs": list(s.constraint_rhs),
            "monomials": list(s.kernel_monomials),
            "human": list(s.constraint_strings()),
        },
        "alpha": list(s.alpha),
        "alpha_vars": list(s.alpha_vars),
        "solution_count": s.solution_count,
        "delta": list(s.delta_coords),
        "group_mode": s.group_mode,
    }


def emit_result(spec_name: str, result: CoxLiftResult, order: CycOrder,
                assertions: Optional[dict] = None) -> dict:
    ring = result.stack.cox_ring
    free, invs = result.stack.pic.canonical_form
    return {
        "schema": RESULT_SCHEMA,
        "problem": spec_name,
        "cyclotomic_order": order.N,
        "tower": emit_tower(result.stack.tower),
        "final_stack": {
            "pic": emit_group(result.stack.pic),
            "pic_canonical": {"free_rank": free, "invariants": list(invs)},
            "generators": [
                {"name": n, "degree": list(d.coords)} for n, d in ring.generators
            ],
            "rules": _emit_rules(ring.rules),
            "effective_generators": effective_generators(ring),
            "irrelevant": [emit_element(e) for e in result.stack.irrelevant_gens],
        },
        "images": {
            name: emit_element(el) for name, el in sorted(result.images.items())
        },
        "group_map": [list(g.coords) for g in result.group_map.images],
        "steps": [emit_step_record(s) for s in result.steps],
        "verification": emit_verification(result.verification),
        "assertions": dict(assertions or {}),
    }


def emit_verification(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }


def result_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _replay(spec: ProblemSpec, steps) -> MdStackData:
    """The stack of a result document's tower over spec's source.

    A tower root named like a root the source declares (``root_name_pins``)
    must be that root, section and order alike: the declaration matures
    into a rule once its factor names exist, and holds of no other root.
    """
    tower = _tower(steps, spec.order)
    declared = {name: pin for pin, name in spec.options.root_name_pins}
    for step in tower:
        for info in step.roots:
            pin = declared.get(info.name)
            if pin is not None and pin != (info.section.key(), info.order):
                raise InputDataError(
                    f"tower root {info.name} is declared as the order-{pin[1]} root of "
                    f"{pin[0]}, not the order-{info.order} root of {info.section.key()}")
    return replay_tower(spec.source_stack, tower)


def replay_result(spec: ProblemSpec, doc: dict) -> MdStackData:
    """Rebuild the final stack of a result document over the problem's source."""
    return _replay(spec, _walk(doc, RESULT_TOWER, "result")["tower"])


def read_result(spec: ProblemSpec, data):
    """(final stack, images, group map) of a result document of spec's
    problem, or of the result file it names."""
    doc = _walk(_read(data), RESULT, "result")
    stack = _replay(spec, doc["tower"])
    unknown = sorted(set(doc["images"]) - set(spec.target.ring.gen_degrees))
    if unknown:
        raise InputDataError(f"images name unknown target generators {unknown}")
    images = {name: stack.cox_ring.normal_form(_element(el, spec.order))
              for name, el in doc["images"].items()}
    group_map = GroupHomomorphism(spec.target.cl, stack.pic,
                                  [stack.pic.element(c) for c in doc["group_map"]])
    return stack, images, group_map


def human_log(doc: dict) -> str:
    lines = [f"problem: {doc.get('problem')}"]
    lines.append(f"cyclotomic order: {doc.get('cyclotomic_order')}")
    lines.append("tower:")
    tower = doc.get("tower", [])
    if not tower:
        lines.append("  (empty: the base morphism already lifts)")
    for step in tower:
        if step["kind"] == "line_bundle":
            lines.append(
                f"  [line-bundle root: class {step['class']}, order {step['order']}]"
            )
        else:
            shared = " (shared grading extension)" if "roots" in step else ""
            for r in step.get("roots", [step]):
                lines.append(f"  [divisor root: {_element_str(r['section'])}, order {r['order']},"
                             f" generator {r['name']}]{shared}")
    fs = doc.get("final_stack", {})
    pc = fs.get("pic_canonical", {})
    parts = ["Z"] * pc.get("free_rank", 0) + [f"Z/{d}" for d in pc.get("invariants", [])]
    lines.append(f"Pic: {' x '.join(parts) if parts else '0'}")
    lines.append(f"effective generators: {', '.join(fs.get('effective_generators', [])) or '(none)'}")
    lines.append("images:")
    for name, el in doc.get("images", {}).items():
        lines.append(f"  {name} -> {_element_str(el)}")
    for s in doc.get("steps", []):
        human = s["constraints"]["human"]
        if s["kind"] == "divisor":
            desc = "; ".join(human) if human else "no constraints"
            lines.append(
                f"step {s['index']}: p={s['p']}, {desc}, {s['solution_count']} solutions,"
                f" chose {tuple(s['alpha'])}"
            )
        else:
            lines.append(f"step {s['index']}: p={s['p']}, line-bundle root")
    ver = doc.get("verification", {})
    lines.append(f"verification: {'PASS' if ver.get('passed') else 'FAIL'}")
    for c in ver.get("checks", []):
        lines.append(f"  [{'ok' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    return "\n".join(lines)


def _element_str(el: dict) -> str:
    terms = el.get("terms", [])
    if not terms:
        return "0"
    parts = []
    for t in terms:
        mono = "*".join(
            (n if e == 1 else f"{n}^{e}") for n, e in sorted(t.get("m", {}).items())
        ) or "1"
        c = t.get("c", "1")
        if isinstance(c, dict):
            c = f"zeta^{c['zeta']}" if "zeta" in c else "(cyc)"
        parts.append(mono if c in ("1", 1) else f"{c}*{mono}")
    return " + ".join(parts)
