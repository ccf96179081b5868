"""Correctness checks for result documents: pinned digests and family oracles.

Each check returns ``None`` when the document passes and a short reason
when it fails.  The family oracles read the emitted JSON.  The scrambled
oracle compares with the lift of the same problem written with a diagonal
relation matrix; the tower oracle takes group arithmetic from ``coxlift``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
# The workload seeds whose result digests are pinned in pins.json.
PINNED_SEEDS = range(20)


def result_digest(doc):
    """SHA-256 of the result document as ``result_json`` writes it, without ``stats``."""
    body = {k: v for k, v in doc.items() if k != "stats"}
    return hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()


def load_pins():
    """Problem digest -> result digest, pinned from the seed commit."""
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_digest(pins, problem_sha, doc):
    want = pins.get(problem_sha)
    if want is None or want == result_digest(doc):
        return None
    return "result document differs from the pinned digest"


# ---------------------------------------------------------------------------
# family oracles


def _root_chain(rules, name):
    """Follow rules ``g^e -> h`` (coefficient 1, one generator) from ``name``.

    Returns (bottom element, total exponent): name^total equals bottom in
    the ring.  The bottom is the first right side that is not a single
    generator.
    """
    by_lhs = {}
    for r in rules:
        if len(r["lhs"]) == 1:
            (g, e), = r["lhs"].items()
            by_lhs[g] = (e, r["rhs"])
    total = 1
    seen = set()
    while name in by_lhs and name not in seen:
        seen.add(name)
        e, rhs = by_lhs[name]
        total *= e
        terms = rhs["terms"]
        if len(terms) == 1 and terms[0]["c"] == "1" and len(terms[0]["m"]) == 1:
            (h, he), = terms[0]["m"].items()
            if he == 1:
                name = h
                continue
        return rhs, total
    return {"terms": [{"c": "1", "m": {name: 1}}]}, total


def _linear_in_t(el):
    """``t + c`` as the integer -c (the root), else None."""
    terms = {json.dumps(t["m"], sort_keys=True): t["c"] for t in el["terms"]}
    if terms.get('{"t": 1}') != "1" or len(terms) > 2:
        return None
    c = terms.get("{}", "0")
    if not isinstance(c, str) or "/" in c:
        return None
    return -int(c)


def _single_monomial(el):
    terms = el["terms"]
    if len(terms) != 1:
        return None
    coeff = terms[0]["c"]
    if coeff != "1" and not (isinstance(coeff, dict) and "zeta" in coeff):
        return None
    return terms[0]["m"]


def oracle_cyclic(doc, info):
    """A_{k,n} (roots None) and the F family (x0^n -> prod(t - r)).

    Pic is (Z/n)^m with m = number of roots (1 for plain t), the special
    generator maps to a unit times a product of m distinct root generators
    w_i with w_i^n = t - r_i, and every other generator maps to 0.
    """
    n = info["n"]
    roots = info["roots"]
    fs = doc["final_stack"]
    m = 1 if roots is None else len(roots)
    pic = fs["pic_canonical"]
    if pic["free_rank"] != 0 or sorted(pic["invariants"]) != [n] * m:
        return f"Pic is {pic}, expected (Z/{n})^{m}"
    for name, el in doc["images"].items():
        if name != info["special"] and el["terms"]:
            return f"{name} should map to 0"
    mono = _single_monomial(doc["images"][info["special"]])
    if mono is None or len(mono) != m or any(e != 1 for e in mono.values()):
        return "special generator should map to a unit times distinct root generators"
    found = []
    for w in mono:
        bottom, total = _root_chain(fs["rules"], w)
        if total != n:
            return f"{w}^{total} is the first power that leaves the root chain, expected {n}"
        r = _linear_in_t(bottom) if roots is not None else (
            0 if bottom == {"terms": [{"c": "1", "m": {"t": 1}}]} else None)
        if r is None:
            return f"{w}^{n} is not t - r"
        found.append(r)
    if sorted(found) != sorted(roots or [0]):
        return f"root generators cover {sorted(found)}, expected {sorted(roots or [0])}"
    return None


def oracle_mu_p(doc, info):
    """S_p: Pic Z/p, x and y map to p-th roots of u and w."""
    p = info["p"]
    fs = doc["final_stack"]
    pic = fs["pic_canonical"]
    if pic["free_rank"] != 0 or pic["invariants"] != [p]:
        return f"Pic is {pic}, expected Z/{p}"
    for gen, base in (("x", "u"), ("y", "w")):
        mono = _single_monomial(doc["images"][gen])
        if mono is None or len(mono) != 1 or list(mono.values()) != [1]:
            return f"{gen} should map to a single root generator"
        bottom, total = _root_chain(fs["rules"], next(iter(mono)))
        if total != p or bottom != {"terms": [{"c": "1", "m": {base: 1}}]}:
            return f"image of {gen} is not a {p}-th root of {base}"
    return None


def oracle_scrambled(doc, reference):
    """Same Pic canonical form and generator count as the diagonal presentation."""
    fs, rs = doc["final_stack"], reference["final_stack"]
    if fs["pic_canonical"] != rs["pic_canonical"]:
        return f"Pic {fs['pic_canonical']} differs from the diagonal presentation's {rs['pic_canonical']}"
    if len(fs["generators"]) != len(rs["generators"]):
        return "generator count differs from the diagonal presentation's"
    return None


def _degree_orders(cx, group_block, generators):
    G = cx.abgroup.FgAbelianGroup(group_block["ambient_rank"], group_block["relations"])
    orders = sorted(cx.abgroup.element_order(G, G.element(g["degree"])) or 0 for g in generators)
    return G, orders


def oracle_tower(doc, problem, cx):
    """Decomposition: Pic equals the input's, and degree orders match."""
    stack = problem["decompose"]["stack"]
    G_in, orders_in = _degree_orders(cx, stack["class_group"], stack["generators"])
    fs = doc["final_stack"]
    G_out, orders_out = _degree_orders(cx, fs["pic"], fs["generators"])
    if G_in.canonical_form != G_out.canonical_form:
        return f"Pic {G_out.canonical_form} differs from the input's {G_in.canonical_form}"
    if orders_in != orders_out:
        return f"degree orders {orders_out} differ from the input's {orders_in}"
    return None
