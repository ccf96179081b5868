"""Problem and result documents: versioned JSON with exact scalars.

Rationals serialize as "p/q" strings, roots of unity as {"zeta": k}
relative to the problem's cyclotomic order, group elements as integer
coordinate arrays, and elements as term lists.  Output key order is
deterministic so golden files diff cleanly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
# integers: checked where they enter, so 2.5 or "2" never becomes 2


def _integer(x, what: str) -> int:
    if type(x) is not int:
        raise InputDataError(f"{what} must be an integer, got {x!r}")
    return x


def _integer_vector(data, what: str) -> list:
    if not isinstance(data, list):
        raise InputDataError(f"{what} must be a list of integers, got {data!r}")
    return [_integer(x, what) for x in data]


def integer_rows(data, what: str) -> list:
    """A JSON list of integer lists; floats, bools and strings are rejected."""
    if not isinstance(data, list):
        raise InputDataError(f"{what} must be a list of integer lists, got {data!r}")
    return [_integer_vector(row, what) for row in data]


def required_field(block, key: str, where: str):
    """block[key]; a block that is not an object, or lacks the field, is an
    InputDataError naming the block and the field."""
    if not isinstance(block, dict):
        raise InputDataError(f"{where} must be an object, got {block!r}")
    if key not in block:
        raise InputDataError(f"{where} lacks the required field {key!r}")
    return block[key]


def optional_object(block, key: str, where: str) -> dict:
    """block[key], or {} when absent; a value that is not an object is an InputDataError."""
    value = block.get(key, {})
    if not isinstance(value, dict):
        raise InputDataError(f"{where} field {key!r} must be an object, got {value!r}")
    return value


def _monomial(data, what: str) -> Monomial:
    """A monomial from an object of integer exponents; ``what`` names the field."""
    if not isinstance(data, dict):
        raise InputDataError(f"{what} must be an object of exponents, got {data!r}")
    return Monomial({str(k): _integer(v, f"{what} exponent") for k, v in data.items()})


def _rational(x, what: str) -> Fraction:
    """An exact rational from an integer or a "p/q" string, never a float or a bool."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputDataError(f"{what} must be an integer or a \"p/q\" string, got {x!r}")


# ---------------------------------------------------------------------------
# scalars and elements


def parse_scalar(data, order: CycOrder, what: str = "scalar") -> CycScalar:
    if not isinstance(data, dict):
        return CycScalar.from_rational(order, _rational(data, what))
    if "zeta" in data:
        return CycScalar.zeta(order, _integer(data["zeta"], "zeta exponent"))
    if "coeffs" in data:
        coeffs = [_rational(c, f"{what} coefficient") for c in data["coeffs"]]
        sub = CycOrder(_integer(data.get("order", order.N), "scalar order"))
        return CycScalar(sub, coeffs).promote(order)
    raise InputDataError(f"cannot parse {what} {data!r}")


def emit_scalar(s: CycScalar):
    if s.is_rational():
        return str(s.rational_value())
    k = s.as_root_of_unity()
    if k is not None:
        return {"zeta": k}
    return {"order": s.order.N, "coeffs": [str(c) for c in s.coeffs]}


def parse_element(data, order: CycOrder) -> HomogeneousElement:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise InputDataError(f"element must be an object with a 'terms' list: {data!r}")
    terms = []
    for t in data["terms"]:
        if not isinstance(t, dict):
            raise InputDataError(f"element term must be an object, got {t!r}")
        coeff = parse_scalar(t.get("c", "1"), order, "term coefficient")
        mono = _monomial(t.get("m", {}), "term monomial")
        terms.append((coeff, mono))
    return HomogeneousElement(terms)


def emit_element(e: HomogeneousElement):
    return {
        "terms": [
            {"c": emit_scalar(c), "m": {n: x for n, x in m.pairs}} for c, m in e.terms
        ]
    }


def parse_group(data) -> FgAbelianGroup:
    return FgAbelianGroup(_integer(required_field(data, "ambient_rank", "class_group"),
                                   "ambient_rank"),
                          integer_rows(data.get("relations", []), "group relations"))


def emit_group(G: FgAbelianGroup):
    return {
        "ambient_rank": G.ambient_rank,
        "relations": [list(r) for r in G.relations.entries],
    }


def _parse_rules(data, order: CycOrder) -> List[RewriteRule]:
    rules = []
    for r in data or []:
        lhs = _monomial(required_field(r, "lhs", "rewrite rule"), "rule lhs")
        rhs = parse_element(required_field(r, "rhs", "rewrite rule"), order)
        rules.append(RewriteRule(lhs, rhs))
    return rules


def _emit_rules(rules):
    return [
        {"lhs": {n: e for n, e in r.lhs.pairs}, "rhs": emit_element(r.rhs)}
        for r in rules
    ]


def _parse_ring_block(data, group: FgAbelianGroup, order: CycOrder,
                      step_cap: int) -> GradedRing:
    gens = []
    for g in data.get("generators", []):
        name = str(required_field(g, "name", "ring generator"))
        gens.append((name, group.element(_integer_vector(g.get("degree", []),
                                                         f"degree of {name}"))))
    return GradedRing(
        gens,
        group,
        order,
        _parse_rules(data.get("relations"), order),
        [str(n) for n in data.get("irreducibles", [])],
        {},
        step_cap,
    )


# ---------------------------------------------------------------------------
# problems


def _global_order(raw, target_cl, pic_gens) -> CycOrder:
    Q, _ = quotient_group(target_cl, pic_gens)
    if not Q.is_finite():
        raise InputDataError("class group is not torsion over the Picard subgroup")
    N = Q.exponent()
    declared = _integer(raw.get("cyclotomic_order", 1), "cyclotomic_order")
    if declared < 1:
        raise InputDataError("cyclotomic_order must be positive")
    return CycOrder(math.lcm(N, declared))


def _parse_declared(block, ring: GradedRing, order: CycOrder):
    """Validate declared factorizations against a scratch root extension.

    Returns (declared dict, root name pins).  Verification runs before
    the declarations are attached, so a wrong declaration cannot make
    itself true by rewriting.
    """
    declared: Dict[str, Factorization] = {}
    pins: List[Tuple[Tuple[str, int], str]] = []
    entries = block.get("declared_factorizations", [])
    if not entries:
        return declared, tuple(pins)
    scratch = canonical_stack(ring)
    for entry in entries:
        for root in entry.get("roots", []):
            section = scratch.cox_ring.normal_form(
                parse_element(required_field(root, "section", "declared root"), order)
            )
            name = str(required_field(root, "name", "declared root"))
            n = _integer(required_field(root, "order", "declared root"), "declared root order")
            if name not in scratch.cox_ring.gen_degrees:
                scratch = root_divisor(scratch, section, n, name)
            lead, _ = section.leading()
            pins.append(((section.scale(lead.inverse()).key(), n), name))
    sring = scratch.cox_ring
    for entry in entries:
        element = parse_element(required_field(entry, "element", "declared factorization"),
                                order)
        unit = parse_scalar(entry.get("unit", "1"), order, "declared unit")
        factors = []
        for factor in entry.get("factors", []):
            if not isinstance(factor, list) or len(factor) != 2:
                raise InputDataError(
                    f"declared factor must be a [factor, exponent] pair, got {factor!r}"
                )
            fdata, exp = factor
            if isinstance(fdata, str):
                fel = HomogeneousElement.monomial(order, Monomial.gen(fdata))
            else:
                fel = parse_element(fdata, order)
            factors.append((fel, _integer(exp, "declared factor exponent")))
        fact = Factorization(unit, tuple(factors))
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
    return declared, tuple(pins)


def _read(data) -> dict:
    """The document itself, or the one read from a path."""
    if isinstance(data, (str, bytes)):
        with open(data, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return data


def _options(data):
    """(step cap, spot-check bound) from the document's options block."""
    topts = optional_object(data, "options", "problem")
    return (_integer(topts.get("step_cap", DEFAULT_STEP_CAP), "step_cap"),
            _integer(topts.get("spotcheck_bound", LiftOptions().spotcheck_bound),
                     "spotcheck_bound"))


def parse_problem(data) -> ProblemSpec:
    data = _read(data)
    if data.get("schema") != SCHEMA:
        raise InputDataError(f"unsupported schema {data.get('schema')!r}; expected {SCHEMA}")
    if "decompose" in data:
        raise InputDataError("this is a decompose document; use parse_decompose")
    name = str(data.get("name", "problem"))
    step_cap, spot = _options(data)

    tblock = required_field(data, "target", "problem")
    cl = parse_group(required_field(tblock, "class_group", "target"))
    pic_gens = [cl.element(c) for c in integer_rows(tblock.get("pic_subgroup", []),
                                                    "pic_subgroup")]
    order = _global_order(data, cl, pic_gens)

    target_ring = _parse_ring_block(tblock, cl, order, step_cap=step_cap)
    if not tblock.get("generators"):
        raise InputDataError("target needs at least one Cox ring generator")
    target = TargetData(
        cl=cl,
        pic_gens=tuple(pic_gens),
        ring=target_ring,
        irrelevant=tuple(
            parse_element(e, order) for e in tblock.get("irrelevant", [])
        ),
    )
    # TargetData.validate has nothing left to catch: the ring is graded by
    # cl, and _global_order has rejected an infinite Cl/Pic

    sblock = required_field(data, "source", "problem")
    clx = parse_group(required_field(sblock, "class_group", "source"))
    bare_ring = _parse_ring_block(sblock, clx, order, step_cap=step_cap)
    declared, pins = _parse_declared(sblock, bare_ring, order)
    source_ring = bare_ring.with_data(declared_factorizations=declared)
    assertions = {
        str(k): bool(v) for k, v in optional_object(sblock, "assertions", "source").items()
    }
    source_stack = canonical_stack(
        source_ring,
        tuple(parse_element(e, order) for e in sblock.get("irrelevant", [])),
    )

    bblock = required_field(data, "base_morphism", "problem")
    group_images = [clx.element(c) for c in integer_rows(bblock.get("group_map", []),
                                                         "group_map")]
    if len(group_images) != len(pic_gens):
        raise InputDataError(
            "base morphism group_map must list one image per pic_subgroup generator"
        )
    images: Dict[Monomial, HomogeneousElement] = {}
    target_names = set(target_ring.gen_degrees)
    source_names = set(source_ring.gen_degrees)
    for item in bblock.get("images", []):
        mono = _monomial(required_field(item, "monomial", "base image"), "base image monomial")
        if not set(mono.names()) <= target_names:
            raise InputDataError(f"base key {mono.key()} uses unknown target generators")
        img = parse_element(required_field(item, "image", "base image"), order)
        if not img.support() <= source_names:
            raise InputDataError(
                f"base image of {mono.key()} uses unknown source generators"
            )
        images[mono] = source_ring.normal_form(img)
    base = BaseMorphism(images=images, group_images=tuple(group_images))
    options = LiftOptions(spotcheck_bound=spot, root_name_pins=pins)
    return ProblemSpec(name, order, target, source_stack, base, options, assertions)


def parse_decompose(data) -> DecomposeSpec:
    data = _read(data)
    if data.get("schema") != SCHEMA or "decompose" not in data:
        raise InputDataError("not a decompose document")
    name = str(data.get("name", "decompose"))
    step_cap, spot = _options(data)
    block = data["decompose"]
    sblock = required_field(block, "stack", "decompose")
    cblock = required_field(block, "coarse", "decompose")
    pic = parse_group(required_field(sblock, "class_group", "decompose stack"))
    coarse_group = parse_group(required_field(cblock, "class_group", "decompose coarse"))
    incl_rows = integer_rows(cblock.get("inclusion", []), "inclusion")
    if len(incl_rows) != coarse_group.ambient_rank:
        raise InputDataError("inclusion must list one image per coarse generator")
    pic_gens = [pic.element(r) for r in incl_rows]
    order = _global_order(data, pic, pic_gens)
    stack_bare = _parse_ring_block(sblock, pic, order, step_cap=step_cap)
    declared, _pins = _parse_declared(sblock, stack_bare, order)
    stack_ring = stack_bare.with_data(declared_factorizations=declared)
    coarse_ring = _parse_ring_block(cblock, coarse_group, order, step_cap=step_cap)
    incl = GroupHomomorphism(coarse_group, pic, pic_gens)
    coarse = CoarseData(
        coarse_ring,
        coarse_group,
        tuple(parse_element(e, order) for e in cblock.get("irrelevant", [])),
        incl,
    )
    stack = MdStackData(
        stack_ring,
        pic,
        tuple(parse_element(e, order) for e in sblock.get("irrelevant", [])),
        (),
        coarse,
    )
    options = LiftOptions(spotcheck_bound=spot)
    return DecomposeSpec(name, order, stack, options)


# ---------------------------------------------------------------------------
# results


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


def _tower_order(item) -> int:
    return _integer(required_field(item, "order", "tower step"), "tower order")


def _tower_root(item, order: CycOrder) -> DivisorRootInfo:
    return DivisorRootInfo(
        parse_element(required_field(item, "section", "tower step"), order),
        _tower_order(item),
        str(required_field(item, "name", "tower step")),
    )


def parse_tower(data, order: CycOrder):
    steps = []
    for item in data:
        kind = required_field(item, "kind", "tower step")
        if kind == "line_bundle":
            bundle_class = _integer_vector(required_field(item, "class", "tower step"),
                                           "tower class")
            steps.append(RootStep(kind=kind, bundle_class=tuple(bundle_class),
                                  order=_tower_order(item)))
        elif kind == "divisor":
            steps.append(RootStep(kind=kind, roots=(_tower_root(item, order),)))
        elif kind == "divisor_batch":
            roots = tuple(_tower_root(r, order)
                          for r in required_field(item, "roots", "tower step"))
            relations = integer_rows(required_field(item, "group_relations", "tower step"),
                                     "tower group relations")
            steps.append(RootStep(kind=kind, roots=roots,
                                  group_relations=tuple(map(tuple, relations))))
        else:
            raise InputDataError(f"unknown tower step kind {kind!r}")
    return tuple(steps)


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


def replay_result(spec: ProblemSpec, doc: dict) -> MdStackData:
    """Rebuild the final stack of a result document over the problem's source."""
    tower = parse_tower(required_field(doc, "tower", "result"), spec.order)
    return replay_tower(spec.source_stack, tower)


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
        elif step["kind"] == "divisor":
            lines.append(
                f"  [divisor root: {_element_str(step['section'])}, order {step['order']},"
                f" generator {step['name']}]"
            )
        else:
            for r in step["roots"]:
                lines.append(
                    f"  [divisor root: {_element_str(r['section'])}, order {r['order']},"
                    f" generator {r['name']}] (shared grading extension)"
                )
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
