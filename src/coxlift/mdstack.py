"""Stack data: a graded Cox ring, its Picard-type grading group, the
irrelevant-ideal generators, and a log of root constructions.

Pure transformations build new stacks from old: rooting a prime divisor
(adjoin z with z^n = s and push the grading group out by an n-th root of
the class of s), rooting several divisors over an explicitly presented
group extension, and rooting a line bundle (grading group only).  A tower
log records every step so a stack can be replayed from its base.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Tuple

from .abgroup import (
    FgAbelianGroup,
    GroupElement,
    GroupHomomorphism,
    coordinate_inclusion,
    pushout_root,
)
from .cyclo import CycScalar
from .errors import FactorizationOracleRequired, InputDataError
from .gring import GradedRing, HomogeneousElement, Monomial, RewriteRule


@dataclass(frozen=True)
class DivisorRootInfo:
    section: HomogeneousElement
    order: int
    name: str


@dataclass(frozen=True)
class RootStep:
    """One tower entry.

    kind "divisor": a single root along a prime divisor; the group gains
    one slot, the pushout by an n-th root of the section's class.
    kind "line_bundle": grading-group root only.
    kind "divisor_batch": several divisor roots taken in one lift step,
    with the grading extension given by explicit relation rows (the rows
    live in ambient coordinates of pic + one slot per root + one slot for
    the rooted divisor class).  The trailing slot makes a one-root batch
    a different group presentation from a "divisor" step.
    Both divisor kinds adjoin their generators and rules the same way.
    """

    kind: str
    roots: Tuple[DivisorRootInfo, ...] = ()
    bundle_class: Tuple[int, ...] = ()
    order: int = 0
    group_relations: Tuple[Tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class CoarseData:
    """Snapshot of the base stack plus the composed grading-group inclusion."""

    ring: GradedRing
    irrelevant: Tuple[HomogeneousElement, ...]
    inclusion: GroupHomomorphism  # coarse group -> current pic

    @property
    def group(self) -> FgAbelianGroup:
        return self.ring.grading_group


@dataclass(frozen=True)
class MdStackData:
    cox_ring: GradedRing
    irrelevant_gens: Tuple[HomogeneousElement, ...]
    tower: Tuple[RootStep, ...]
    coarse: Optional[CoarseData] = None

    @property
    def pic(self) -> FgAbelianGroup:
        return self.cox_ring.grading_group


def _rule_shape(r: RewriteRule):
    """(g, h) for a rule g -> ... and a rule ... -> 1*h; None where the
    rule does not have that shape."""
    alias = r.lhs.pairs[0][0] if len(r.lhs.pairs) == 1 and r.lhs.pairs[0][1] == 1 else None
    plain = None
    if len(r.rhs.terms) == 1:
        c, m = r.rhs.terms[0]
        if c == CycScalar.one(c.order) and len(m.pairs) == 1 and m.pairs[0][1] == 1:
            plain = m.pairs[0][0]
    return alias, plain


def _mature_declared_rules(ring: GradedRing) -> GradedRing:
    """Turn declared factorizations of single generators into rewrite rules.

    Once every factor name exists in the ring, a declaration g = unit *
    prod(factors) is oriented as the elimination rule g -> rhs, so normal
    forms expose the factorization.  Generators already defined by a root
    rule (appearing as a whole rule side) are left alone.  One pass in name
    order suffices: the rule added for g guards the names it shows, and a
    name passed over stays so as rules are added.
    """
    gen_names = set(ring.gen_degrees)
    guarded = {n for r in ring.rules for n in _rule_shape(r) if n is not None}
    for name in sorted(gen_names):
        fact = ring.declared_factorizations.get(f"1*{name}")
        if name in guarded or fact is None:
            continue
        if not set().union(*(f.support() for f, _e in fact.factors)) <= gen_names:
            continue
        rule = RewriteRule(Monomial.gen(name), ring.normal_form(fact.expand()))
        try:
            ring = ring.with_data(rules=ring.rules + (rule,))
        except InputDataError:
            # not orientable under the current grading or term order;
            # the declaration stays available as factorization data
            continue
        guarded.update(n for n in _rule_shape(rule) if n is not None)
    return ring


def canonical_stack(cox_ring: GradedRing,
                    irrelevant: Sequence[HomogeneousElement] = ()) -> MdStackData:
    """Wrap a class-group-graded Cox ring as a stack with an empty tower.

    The grading group doubles as the Picard group and the coarse data is
    the stack itself, with the identity as inclusion.
    """
    cox_ring = _mature_declared_rules(cox_ring)
    irrelevant = tuple(irrelevant)
    for g in irrelevant:
        if not cox_ring.is_homogeneous(cox_ring.normal_form(g)):
            raise InputDataError(f"irrelevant generator {g.key()} is not homogeneous")
    coarse = CoarseData(cox_ring, irrelevant, GroupHomomorphism.identity(cox_ring.grading_group))
    return MdStackData(cox_ring, irrelevant, (), coarse)


def fresh_root_name(used) -> str:
    """The first of z1, z2, ... that is not in ``used``."""
    i = 1
    while f"z{i}" in used:
        i += 1
    return f"z{i}"


def _extend_stack(S: MdStackData, ring: GradedRing, incl: GroupHomomorphism,
                  step: RootStep) -> MdStackData:
    """S with its ring replaced by one graded by the larger group, the step
    logged, and the coarse inclusion composed with incl : S.pic -> new pic."""
    coarse = S.coarse and replace(S.coarse, inclusion=incl.compose(S.coarse.inclusion))
    return MdStackData(ring, S.irrelevant_gens, S.tower + (step,), coarse)


def _adjoin_roots(S: MdStackData, roots: Sequence[DivisorRootInfo],
                  new_group: FgAbelianGroup, incl: GroupHomomorphism,
                  deltas: Sequence[GroupElement], step: RootStep) -> MdStackData:
    """Adjoin one generator z per root, of degree deltas[i] in new_group.

    The old generators are regraded through incl : S.pic -> new_group.
    Each root adds the rule z^n -> section, from which the ring reads the
    factorization section = z^n; then declared factorizations of single
    generators that became expressible are matured into rules.
    """
    ring = S.cox_ring
    gens = [(name, incl(d)) for name, d in ring.generators]
    rules = list(ring.rules)
    for info, delta in zip(roots, deltas):
        if info.name in dict(gens):
            raise InputDataError(f"generator name {info.name!r} already in use")
        gens.append((info.name, delta))
        rules.append(RewriteRule(Monomial.gen(info.name, info.order), info.section))
    new_ring = ring.with_data(generators=gens, grading_group=new_group, rules=rules)
    return _extend_stack(S, _mature_declared_rules(new_ring), incl, step)


def root_divisor(S: MdStackData, s: HomogeneousElement, n: int,
                 zname: Optional[str] = None, check_irreducible: bool = True) -> MdStackData:
    """Adjoin an n-th root of the section s along its (prime) divisor.

    The ring gains a generator z with rule z^n -> s; the grading group is
    pushed out by an n-th root of the class of s.  By default the section
    must be h-irreducible: rooting a reducible divisor destroys unique
    homogeneous factorization (z^n = s1*s2 against z*...*z).
    """
    ring = S.cox_ring
    if n < 1:
        raise InputDataError("root order must be positive")
    s = ring.normal_form(s)
    if s.is_zero():
        raise InputDataError("cannot root the zero section")
    lead_c, _ = s.leading()
    s = s.scale(lead_c.inverse())
    if check_irreducible:
        try:
            fact = ring.h_factorize(s)
        except FactorizationOracleRequired:
            raise InputDataError(
                f"cannot certify section {s.key()} as h-irreducible; declare its factorization"
            )
        if len(fact.factors) != 1 or fact.factors[0][1] != 1:
            raise InputDataError(
                f"root along non-prime divisor breaks graded factoriality: "
                f"{s.key()} factors as {[(f.key(), e) for f, e in fact.factors]}"
            )
    if zname is None:
        zname = fresh_root_name(ring.gen_degrees)
    new_group, incl, delta = pushout_root(S.pic, ring.degree_of(s), n)
    info = DivisorRootInfo(s, n, zname)
    return _adjoin_roots(S, (info,), new_group, incl, (delta,),
                         RootStep(kind="divisor", roots=(info,)))


def root_line_bundle(S: MdStackData, a: GroupElement, n: int) -> MdStackData:
    """Adjoin an n-th root of the class a; the ring's term data is untouched."""
    if n < 1:
        raise InputDataError("root order must be positive")
    new_group, incl, _delta = pushout_root(S.pic, a, n)
    new_ring = S.cox_ring.with_data(
        generators=[(name, incl(d)) for name, d in S.cox_ring.generators],
        grading_group=new_group,
    )
    step = RootStep(kind="line_bundle", bundle_class=tuple(a.coords), order=n)
    return _extend_stack(S, new_ring, incl, step)


def apply_divisor_batch(S: MdStackData, roots: Sequence[DivisorRootInfo],
                        relations: Sequence[Sequence[int]]) -> MdStackData:
    """Root several divisors at once with an explicit grading extension.

    The new group is presented on pic's ambient generators plus one slot
    per rooted divisor plus one trailing slot for the class being rooted;
    the caller supplies all relation rows beyond pic's own.  Used by the
    lift engine when the per-divisor pushouts admit no compatible degree
    map; coming from that engine the rows always contain b_l*e_l = [q_l].
    """
    n_old = S.pic.ambient_rank
    m = len(roots)
    rows = [list(r) + [0] * (m + 1) for r in S.pic.relations.entries]
    for row in relations:
        if len(row) != n_old + m + 1:
            raise InputDataError("batch relation row has the wrong length")
        rows.append(list(row))
    new_group = FgAbelianGroup(n_old + m + 1, rows)
    # the inclusion must stay injective, else the input degrees were inconsistent
    incl = coordinate_inclusion(S.pic, new_group)
    deltas = [new_group.basis_element(n_old + idx) for idx in range(m)]
    step = RootStep(
        kind="divisor_batch",
        roots=tuple(roots),
        group_relations=tuple(tuple(int(x) for x in row) for row in relations),
    )
    return _adjoin_roots(S, roots, new_group, incl, deltas, step)


def replay_tower(base: MdStackData, tower: Sequence[RootStep]) -> MdStackData:
    """Rebuild a stack by replaying a tower over its base stack."""
    cur = base
    for step in tower:
        if step.kind == "divisor":
            (info,) = step.roots
            cur = root_divisor(cur, info.section, info.order, info.name,
                               check_irreducible=False)
        elif step.kind == "line_bundle":
            cur = root_line_bundle(cur, cur.pic.element(step.bundle_class), step.order)
        elif step.kind == "divisor_batch":
            cur = apply_divisor_batch(cur, step.roots, step.group_relations)
        else:
            raise InputDataError(f"unknown tower step kind {step.kind!r}")
    return cur


def effective_generators(ring: GradedRing) -> list:
    """Generators not eliminated by a rule whose right side is another generator
    (or a plain monomial in other generators) of the ring."""
    # an alias rule g -> element eliminates g itself; otherwise z^n -> g
    # exhibits g as a power of z
    eliminable = {alias or plain for alias, plain in map(_rule_shape, ring.rules)}
    return [n for n, _ in ring.generators if n not in eliminable]


def graded_factorial_spotcheck(S: MdStackData, degree_bound: int):
    """Search bounded products of irreducible generators for a factorization clash.

    Enumerates all multisets (size <= degree_bound) of generator elements
    that are not split by declared data, multiplies them out modulo the
    rewrite rules, and reports two essentially different factorizations
    of the same element if any exist.
    Returns (True, None) on a clean pass, else (False, (element key, A, B)).
    """
    ring = S.cox_ring
    candidates = []
    for name, _ in ring.generators:
        el = ring.gen(name)
        if el.key() in ring.declared_factorizations:
            continue
        if ring.normal_form(el) != el:
            continue
        candidates.append((name, el))
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
            nf = nf.scale(lead_c.inverse())
            key = nf.key()
            names = tuple(sorted(n for n, _ in combo))
            if key in seen and seen[key] != names:
                return False, (key, seen[key], names)
            seen.setdefault(key, names)
    return True, None
