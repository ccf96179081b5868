"""Seeded problem generators for the benchmark workloads.

Every generator is a pure function of the workload seed and returns plain
``coxlift/1`` problem dicts.  This module uses the standard library only and
imports no ``coxlift`` code, so the program under test receives nothing but
the generated documents.

A case is a dict with the keys
  ``name``    unique within the workload,
  ``kind``    ``"lift"`` or ``"decompose"``,
  ``problem`` the ``coxlift/1`` document,
  ``oracle``  family-specific facts the result must satisfy (see oracle.py),
  ``defect``  for a case the seed commit cannot finish or verify, the status
              it ends with there and the known program defect behind it.
              That status counts against ``solved_frac`` but not as a
              failed run; any other status that is not ok does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations_with_replacement
from pathlib import Path

SCHEMA = "coxlift/1"
ASSERTIONS = {"units_of_complement_trivial": True, "pic_of_complement_trivial": True}
OPTIONS = {"step_cap": 10000, "spotcheck_bound": 4}

# ---------------------------------------------------------------------------
# shared builders


def _term(m, c="1"):
    return {"c": c, "m": dict(m)}


def _element(*terms):
    return {"terms": list(terms)}


def _poly_from_roots(var, roots):
    """Expanded prod(var - r) as a ``coxlift/1`` element (descending degree)."""
    coeffs = [1]  # coeffs[i] is the coefficient of var^i
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    terms = [
        _term({var: i} if i else {}, str(c))
        for i, c in reversed(list(enumerate(coeffs)))
        if c
    ]
    return _element(*terms)


def _affine_line_source(names):
    """Canonical stack of affine space on ``names`` (trivial class group)."""
    return {
        "class_group": {"ambient_rank": 0, "relations": []},
        "generators": [{"name": n, "degree": []} for n in names],
        "relations": [],
        "irreducibles": list(names),
        "declared_factorizations": [],
        "irrelevant": [],
        "assertions": dict(ASSERTIONS),
    }


def _lift_problem(name, order, cl, gens, source, images):
    return {
        "schema": SCHEMA,
        "name": name,
        "cyclotomic_order": order,
        "target": {
            "class_group": cl,
            "pic_subgroup": [],
            "generators": [{"name": n, "degree": list(d)} for n, d in gens],
            "relations": [],
            "irrelevant": [],
        },
        "source": source,
        "base_morphism": {
            "group_map": [],
            "images": [{"monomial": m, "image": img} for m, img in images],
        },
        "options": dict(OPTIONS),
    }


def _veronese_keys(names, n):
    """All degree-n monomials in ``names``: the Picard-level generators of
    a target with Cl = Z/n and every generator of degree 1."""
    keys = []
    for combo in combinations_with_replacement(range(len(names)), n):
        exps = {}
        for i in combo:
            exps[names[i]] = exps.get(names[i], 0) + 1
        keys.append(exps)
    return keys


def _cyclic_problem(name, n, k, special, image):
    """A1 -> C^k / mu_n: x_special^n maps to ``image``, every other key to 0."""
    names = [f"x{i}" for i in range(k)]
    images = []
    for mono in _veronese_keys(names, n):
        hit = mono == {names[special]: n}
        images.append((mono, image if hit else _element()))
    return _lift_problem(
        name, n,
        {"ambient_rank": 1, "relations": [[n]]},
        [(x, [1]) for x in names],
        _affine_line_source(["t"]),
        images,
    )


def _cyclic_case(name, n, k, special, roots=None, defect=None):
    image = _element(_term({"t": 1})) if roots is None else _poly_from_roots("t", roots)
    return {
        "name": name,
        "kind": "lift",
        "problem": _cyclic_problem(name, n, k, special, image),
        "oracle": {
            "family": "A",
            "n": n,
            "special": f"x{special}",
            "roots": None if roots is None else list(roots),
        },
        "defect": defect,
    }


# ---------------------------------------------------------------------------
# wide: the A_{k,n} family


# (k, n) sizes; the front end (base check and generator enumeration) grows
# with the number of degree-n monomials, C(n+k-1, k-1).
WIDE_SIZES = ((3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 3), (4, 4), (4, 5), (5, 3))


def wide(seed):
    """A_{k,n}: the seed picks which generator carries x^n -> t."""
    rng = random.Random(f"wide:{seed}")
    return [
        _cyclic_case(f"A{k},{n}", n, k, rng.randrange(k))
        for k, n in WIDE_SIZES
    ]


# ---------------------------------------------------------------------------
# deep: many rooted factors over one base key, and mu_p surfaces


# (n, root magnitudes): the seed chooses a sign for each root, so the
# constant term, and with it the rational-root search, has a fixed size.
DEEP_F = (
    (12, (1, 2, 3, 4)),
    (12, (1, 2, 3, 4, 5, 6, 7, 8)),
    (30, (1, 2, 3, 4, 5)),
    (60, (1, 2, 3, 4, 5, 6)),
    (210, (1, 2, 3)),
)
# A constant term beyond 1e10: the rational-root search is linear in it.
DEEP_LARGE = (
    (6, (100003, 200003)),
)
LARGE_CONSTANT = {"status": "timeout",
                  "why": "rational-root search is linear in the constant term"}
DEEP_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _signed_roots(rng, mags):
    roots = [m if rng.random() < 0.5 else -m for m in mags]
    rng.shuffle(roots)
    return roots


def mu_p_problem(p):
    """``problems/mu3.json`` with 3 replaced by the prime p (y of degree p-1)."""
    return {
        "schema": SCHEMA,
        "name": f"S{p}",
        "cyclotomic_order": p,
        "target": {
            "class_group": {"ambient_rank": 1, "relations": [[p]]},
            "pic_subgroup": [],
            "generators": [
                {"name": "x", "degree": [1]},
                {"name": "y", "degree": [p - 1]},
            ],
            "relations": [],
            "irrelevant": [],
        },
        "source": {
            "class_group": {"ambient_rank": 0, "relations": []},
            "generators": [{"name": n, "degree": []} for n in ("u", "v", "w")],
            "relations": [
                {"lhs": {"v": p}, "rhs": _element(_term({"u": 1, "w": 1}))}
            ],
            "irreducibles": ["u", "w"],
            "declared_factorizations": [
                {
                    "element": _element(_term({"v": 1})),
                    "unit": {"zeta": 0},
                    "factors": [["z1", 1], ["z2", 1]],
                    "roots": [
                        {"name": "z1", "section": _element(_term({"u": 1})), "order": p},
                        {"name": "z2", "section": _element(_term({"w": 1})), "order": p},
                    ],
                }
            ],
            "irrelevant": [],
            "assertions": dict(ASSERTIONS),
        },
        "base_morphism": {
            "group_map": [],
            "images": [
                {"monomial": {"x": p}, "image": _element(_term({"u": 1}))},
                {"monomial": {"x": 1, "y": 1}, "image": _element(_term({"v": 1}))},
                {"monomial": {"y": p}, "image": _element(_term({"w": 1}))},
            ],
        },
        "options": dict(OPTIONS),
    }


def deep(seed):
    rng = random.Random(f"deep:{seed}")
    cases = []
    for n, mags in DEEP_F + DEEP_LARGE:
        roots = _signed_roots(rng, mags)
        defect = LARGE_CONSTANT if (n, mags) in DEEP_LARGE else None
        cases.append(_cyclic_case(f"F{n}m{len(roots)}c{max(mags)}", n, 1, 0, roots, defect))
    for p in DEEP_PRIMES:
        cases.append({
            "name": f"S{p}",
            "kind": "lift",
            "problem": mu_p_problem(p),
            "oracle": {"family": "S", "p": p},
            "defect": None,
        })
    return cases


# ---------------------------------------------------------------------------
# scrambled: a product class group behind a random unimodular basis change


# (invariants, ambient rank, row operations per transform).  The first
# group finishes in well under a second for every seed tried (700 each).
# More operations would let some seeds hang: rank 4 with 8 operations hung
# for 4 of 200 seeds and with 6 for 1 of 300, and Z/3+Z/3 with 6 for 1 of
# 500 and with 5 for 1 of 700.  The second group hangs in Smith normal
# form for every seed tried (40 each).  Fewer operations do not hang
# reliably: rank 6 with 20 operations finished for 3 of 11 seeds, and
# rank 12 with 30 for 3 of 40.
SCRAMBLED_SIZES = (
    ((2, 2, 2), 3, 0),
    ((2, 2, 2), 3, 4),
    ((2, 2), 3, 4),
    ((2, 2), 4, 4),
    ((3, 3), 3, 4),
)
SCRAMBLED_HANGS = (
    ((2, 2, 2), 6, 40),
    ((2, 2, 2), 12, 60),
)
# Presentations drawn per finishing size with row operations.  The work
# Smith normal form does varies with the presentation, by up to 1.5x for
# Z/2+Z/2+Z/2 at rank 3; three draws per size even that out.
SCRAMBLED_DRAWS = 3
SNF_GROWTH = {"status": "timeout", "why": "Smith normal form entries grow without bound"}


def _unimodular(rng, r, ops):
    """Product of ``ops`` random elementary operations on the identity."""
    M = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(ops):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-2, -1, 1, 2))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def scrambled_problem(name, invariants, rank, ops, rng):
    """Cl = + Z/n_i written as Z^rank / rowspan(U diag V); degrees map through V.

    With ``ops == 0`` the presentation is the plain padded diagonal one.
    """
    s = len(invariants)
    diag = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        diag[i][i] = invariants[i] if i < s else 1
    U = _unimodular(rng, rank, ops)
    V = _unimodular(rng, rank, ops)
    relations = _matmul(_matmul(U, diag), V)

    def through_v(vec):
        return _matmul([vec], V)[0]

    def unit(i):
        return [int(j == i) for j in range(rank)]

    gens = [(f"x{i}", through_v(unit(i))) for i in range(s)]
    gens.append(("y", through_v([1] * s + [0] * (rank - s))))
    # Minimal degree-zero monomials: x_i^{n_i}, and those containing y.
    images = [({f"x{i}": n}, _element(_term({f"t{i}": 1}))) for i, n in enumerate(invariants)]
    images += [(m, _element()) for m in _y_keys(invariants)]
    return _lift_problem(
        name, math.lcm(*invariants),
        {"ambient_rank": rank, "relations": relations},
        gens,
        _affine_line_source([f"t{i}" for i in range(s)]),
        images,
    )


def _y_keys(invariants):
    """Minimal monomials of degree zero in + Z/n_i that contain y.

    y has degree (1, ..., 1) and x_i degree e_i, so y^a * prod x_i^{b_i}
    has degree zero iff b_i = -a mod n_i; minimal means b_i < n_i and no
    smaller a gives a divisor.
    """
    keys = []
    for a in range(1, math.lcm(*invariants) + 1):
        exps = {f"x{i}": (-a) % n for i, n in enumerate(invariants)}
        mono = {k: v for k, v in exps.items() if v}
        mono["y"] = a
        if not any(all(mono.get(k, 0) >= v for k, v in prev.items()) for prev in keys):
            keys.append(mono)
    return keys


def scrambled(seed):
    """Each scrambled size is drawn SCRAMBLED_DRAWS times, so the run's
    times do not hang on how much work one random presentation makes."""
    rng = random.Random(f"scrambled:{seed}")
    cases = []
    for invariants, rank, ops in SCRAMBLED_SIZES + SCRAMBLED_HANGS:
        base = "Z" + "x".join(map(str, invariants)) + f"r{rank}o{ops}"
        hangs = (invariants, rank, ops) in SCRAMBLED_HANGS
        draws = 1 if ops == 0 or hangs else SCRAMBLED_DRAWS
        for k in range(draws):
            name = base if draws == 1 else f"{base}#{k}"
            cases.append({
                "name": name,
                "kind": "lift",
                "problem": scrambled_problem(name, invariants, rank, ops, rng),
                "oracle": {"family": "scrambled", "invariants": list(invariants)},
                "defect": SNF_GROWTH if hangs else None,
            })
    return cases


# ---------------------------------------------------------------------------
# decompose: random root towers over affine space, plus the bundled problems


# Every tower shape with 2-4 generators and 3-6 steps, each over a
# contiguous range of tower seeds from 0.  A three-step tower takes about
# 0.1 s, so three-step shapes get six seeds; a longer tower takes up to
# 1 s or hangs, so longer shapes get two, to fit the run budget.  Each
# tower is drawn by random_tower from its tower seed; the workload seed
# only relabels the base generators, so a run's cost and the set of
# failing cases do not depend on the workload seed.
DECOMPOSE_SEEDS = {3: range(6), 4: range(2), 5: range(2), 6: range(2)}
DECOMPOSE_TOWERS = tuple(
    (ngens, nsteps, tower_seed)
    for nsteps, seeds in DECOMPOSE_SEEDS.items()
    for ngens in (2, 3, 4)
    for tower_seed in seeds
)
_BOX = {"status": "timeout",
        "why": "generator enumeration walks the whole exponent box"}
# Every tower above that the seed commit cannot finish or verify.
DECOMPOSE_DEFECTS = {
    (2, 3, 5): {"status": "failed:reconstruction",
                "why": "decomposition rebuilds a stack with different degree orders"},
    (2, 6, 1): _BOX,
    (3, 6, 1): _BOX,
    (4, 6, 0): {"status": "timeout",
                "why": "Smith normal form entries grow in the line-bundle step"},
    (4, 6, 1): _BOX,
}
DECOMPOSE_PRIMES = (2, 3, 5)
DECOMPOSE_ORDER = 30


def _pad(vec, r):
    return list(vec) + [0] * (r - len(vec))


def random_tower(rng, ngens, nsteps):
    """A random root tower over A^ngens as a list of steps.

    Each step is ``("divisor", generator, n, new name)`` or
    ``("line_bundle", class, n)``.
    Divisor roots are taken along the current top of a generator chain, so
    every rooted section stays a prime divisor.
    """
    rootable = [f"x{i}" for i in range(ngens)]
    rank = 0
    counter = 1
    steps = []
    for _ in range(nsteps):
        n = rng.choice(DECOMPOSE_PRIMES)
        if rank and rng.random() < 0.3:
            cls = [rng.randrange(4) for _ in range(rank)]
            steps.append(("line_bundle", cls, n))
        else:
            victim = rng.choice(rootable)
            name = f"r{counter}"
            counter += 1
            rootable[rootable.index(victim)] = name
            steps.append(("divisor", victim, n, name))
        rank += 1
    return steps


def tower_document(name, ngens, steps):
    """The ``coxlift/1`` decompose document of a stack built by a root tower."""
    base = [f"x{i}" for i in range(ngens)]
    degrees = {g: [] for g in base}
    relations = []
    rules = []
    declared = []
    rank = 0
    for step in steps:
        kind, n = step[0], step[2]
        if kind == "divisor":
            victim, zname = step[1], step[3]
            cls = degrees[victim]
        else:
            cls = step[1]
        relations = [_pad(r, rank + 1) for r in relations]
        relations.append(_pad(cls, rank) + [-n])
        degrees = {g: _pad(d, rank + 1) for g, d in degrees.items()}
        if kind == "divisor":
            degrees[zname] = [0] * rank + [1]
            rules.append({"lhs": {zname: n}, "rhs": _element(_term({victim: 1}))})
            declared.append({
                "element": _element(_term({victim: 1})),
                "unit": "1",
                "factors": [[zname, n]],
            })
        rank += 1
    return {
        "schema": SCHEMA,
        "name": name,
        "cyclotomic_order": DECOMPOSE_ORDER,
        "decompose": {
            "stack": {
                "class_group": {"ambient_rank": rank, "relations": relations},
                "generators": [{"name": g, "degree": d} for g, d in degrees.items()],
                "relations": rules,
                "irreducibles": [],
                "declared_factorizations": declared,
                "irrelevant": [],
            },
            "coarse": {
                "class_group": {"ambient_rank": 0, "relations": []},
                "generators": [{"name": g, "degree": []} for g in base],
                "relations": [],
                "irreducibles": list(base),
                "irrelevant": [],
                "inclusion": [],
            },
        },
        "options": dict(OPTIONS),
    }


PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def bundled_cases():
    cases = []
    for path in sorted(PROBLEMS_DIR.glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        kind = "decompose" if "decompose" in raw else "lift"
        cases.append({
            "name": f"bundled/{path.stem}",
            "kind": kind,
            "problem": raw,
            "oracle": {"family": "bundled"},
            "defect": None,
        })
    return cases


def relabel(steps, perm):
    """Rename base generator x{i} to x{perm[i]} in a tower."""
    names = {f"x{i}": f"x{j}" for i, j in enumerate(perm)}
    return [
        (s[0], names.get(s[1], s[1])) + tuple(s[2:]) if s[0] == "divisor" else s
        for s in steps
    ]


def decompose(seed):
    rng = random.Random(f"decompose:{seed}")
    cases = []
    for shape in DECOMPOSE_TOWERS:
        ngens, nsteps, tower_seed = shape
        name = f"T{ngens}g{nsteps}s#{tower_seed}"
        steps = random_tower(random.Random(tower_seed), ngens, nsteps)
        steps = relabel(steps, rng.sample(range(ngens), ngens))
        cases.append({
            "name": name,
            "kind": "decompose",
            "problem": tower_document(name, ngens, steps),
            "oracle": {"family": "tower"},
            "defect": DECOMPOSE_DEFECTS.get(shape),
        })
    return cases + bundled_cases()


GENERATORS = {"wide": wide, "deep": deep, "scrambled": scrambled, "decompose": decompose}
WORKLOADS = tuple(GENERATORS)


def generate(workload, seed):
    return GENERATORS[workload](seed)


def problem_digest(problem):
    """SHA-256 of the canonical JSON text of a problem dict."""
    text = json.dumps(problem, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
