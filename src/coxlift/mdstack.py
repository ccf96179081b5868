"""Stack data: a graded Cox ring, its Picard-type grading group, the
irrelevant-ideal generators, and a log of root constructions.

A stack grows only through ``extend``, which applies a sequence of tower
steps in one construction.  A step roots a prime divisor (adjoin z with
z^n = s and push the grading group out by an n-th root of the class of
s), several divisors over an explicitly presented group extension, or a
line bundle (grading group only).  ``root_divisor`` (after certifying
its section prime) and ``root_line_bundle`` pass one step, the lift engine
the roots of one lift step, and ``replay_tower`` a whole tower log, which
records every step so a stack can be replayed from its base with one
Smith form and one ring build (and each batch step's collapse check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Tuple

from .abgroup import (
    FgAbelianGroup,
    GroupElement,
    GroupHomomorphism,
    Subgroup,
    coordinate_inclusion,
    pushout_root,
)
from .cyclo import CycScalar
from .errors import FactorizationOracleRequired, InputDataError, InternalInvariantError
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

    @property
    def new_slots(self) -> int:
        """How many ambient coordinates the step appends to the grading group."""
        return len(self.roots) + 1 if self.kind == "divisor_batch" else 1


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

    These are the only rules the engine adds that can make a critical pair
    (see ``GradedRing.nonjoinable_pair``).  Document rings are checked
    confluent when parsed, and a root rule z^n -> s has a fresh head z, so
    its left side is coprime to every other one and, by Buchberger's
    product criterion, makes no pair that fails to join.  A matured rule
    g -> rhs may share g with other left sides, so the grown ring's pairs
    are checked.  A declaration that holds in the ring puts g - rhs in its
    ideal, and adding an element of the ideal to a Groebner basis keeps it
    one.  So a matured rule that leaves a pair unjoined holds a declaration
    that is false there, which the checks on declarations and root names
    (a replayed result tower's included, in ``serialize``) are meant to
    exclude: an ``InternalInvariantError``.  Every ring the
    engine builds is thus confluent, and ``normal_form``'s one strategy
    gives its unique normal forms.
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
            grown = ring.with_data(rules=ring.rules + (rule,))
        except InputDataError:
            # not orientable under the current grading or term order;
            # the declaration stays available as factorization data
            continue
        if pair := grown.nonjoinable_pair():
            r1, r2, rest = pair
            raise InternalInvariantError(
                f"matured rule {rule.key()} breaks confluence: the critical pair "
                f"{r1.key()}, {r2.key()} leaves {rest.key()}")
        ring = grown
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
        terms = cox_ring.normal_form(g).terms
        if len({cox_ring.monomial_degree(m).canonical() for _, m in terms}) > 1:
            raise InputDataError(f"irrelevant generator {g.key()} is not homogeneous")
    coarse = CoarseData(cox_ring, irrelevant, coordinate_inclusion(
        cox_ring.grading_group, cox_ring.grading_group))
    return MdStackData(cox_ring, irrelevant, (), coarse)


def fresh_root_name(used) -> str:
    """The first of z1, z2, ... that is not in ``used``."""
    i = 1
    while f"z{i}" in used:
        i += 1
    return f"z{i}"


def extend(S: MdStackData, *steps: RootStep) -> MdStackData:
    """S grown by a sequence of tower steps in one construction: the only
    constructor of a stack's tower.

    A step pushes the grading group out by an n-th root of one class (the
    section's degree for "divisor", the given class for "line_bundle"), or
    appends its relation rows over the ambient generators so far, one slot
    per root and the rooted class ("divisor_batch"); batch rows must not
    identify classes of the group before them.  Each root z gets a new slot
    and the rule z^n -> section, its section normalized by its stage's
    rules; declarations that became expressible mature into rules.  The
    steps are logged and the coarse inclusion composed.

    The steps do integer work, and one group and one ring are built at the
    end.  That equals a fold of one-step extensions: steps only append rows
    and slots, so the final rows present the last stepwise group; stage
    maps are injective (pushouts are, batches are checked), so one check
    per rule in the final ring decides the check at the rule's stage; and a
    root rule z^n -> s never rewrites an earlier stage's monomial, which
    lacks z.  A rule matured later can, and maturing reads its stage's
    names, rules and grading, so a stage ring is built where a section is
    not in normal form or a declaration may mature.  Each stage ring grows
    from the last one built, whose rules, generator degrees and relation
    rows it extends, so ``GradedRing.with_data`` checks only its new rules.
    Stage rings are not checked for confluence: root rules have fresh heads
    and matured rules are checked (see ``_mature_declared_rules``), so a
    stage ring grown from a confluent base is confluent, and
    ``normal_form``'s whole-power steps give its unique normal forms.
    """
    base = S.cox_ring
    width = S.pic.ambient_rank
    rows = [list(r) for r in S.pic.relations.entries]
    degrees = {name: list(d.coords) for name, d in base.generators}
    rules = list(base.rules)
    # what _may_mature reads, grown with the rules
    guarded = {n for r in rules for n in _rule_shape(r)}
    root_facts = dict(filter(None, (r.root_factorization for r in rules)))
    # the stage's group and ring once built, and (group, class, n) while the
    # stage adds one root to a built group; built is the last ring built
    group, ring, pushout = S.pic, base, None
    built = base

    def stage_group() -> FgAbelianGroup:
        nonlocal group
        if group is None:
            group = (pushout_root(*pushout)[0] if pushout else
                     FgAbelianGroup(width, [r + [0] * (width - len(r)) for r in rows]))
        return group

    def stage_ring() -> GradedRing:
        nonlocal ring, built
        if ring is None:
            G = stage_group()
            gens = [(n, G.element(c + [0] * (width - len(c)))) for n, c in degrees.items()]
            ring = built = built.with_data(generators=gens, grading_group=G, rules=rules)
        return ring

    logged = []
    for step in steps:
        roots = []
        for info in step.roots:
            if info.order < 1:
                raise InputDataError("root order must be positive")
            section = info.section
            if any(r.lhs.divides(m) for r in rules for _c, m in section.terms):
                section = stage_ring().normal_form(section)
            if section.is_zero():
                raise InputDataError("cannot root the zero section")
            for _c, m in section.terms:
                if unknown := sorted(set(m.names()) - degrees.keys()):
                    raise InputDataError(f"unknown generator {unknown[0]!r} in monomial {m.key()}")
            roots.append(replace(info, section=section))
        step = replace(step, roots=tuple(roots))
        n_old = width
        if step.kind == "divisor_batch":
            if any(len(row) != n_old + step.new_slots for row in step.group_relations):
                raise InputDataError("batch relation row has the wrong length")
            old = stage_group()
            rows += map(list, step.group_relations)
            width += step.new_slots
            group = pushout = None
            new = stage_group()
            incl = coordinate_inclusion(old, new)
            if any(not old.element(k).is_zero()
                   for k in Subgroup(new, incl.images).relations()):
                raise InputDataError("batch relations collapse existing degrees")
        elif step.kind in ("divisor", "line_bundle"):
            if step.kind == "divisor":
                (info,) = roots
                a, n = [0] * width, info.order  # the first term's degree, as degree_of reads it
                for name, k in info.section.terms[0][1].pairs:
                    for i, c in enumerate(degrees[name]):
                        a[i] += k * c
            else:
                a, n = list(step.bundle_class), step.order
                if len(a) != width:
                    raise InputDataError(f"line bundle class {a} needs {width} coordinates")
                if n < 1:
                    raise InputDataError("root order must be positive")
            pushout = (group, group.element(a), n) if group is not None else None
            rows.append(a + [-n])
            width += 1
            group = None
        else:
            raise InputDataError(f"unknown tower step kind {step.kind!r}")
        ring = None
        for slot, info in enumerate(roots, n_old):
            if info.name in degrees:
                raise InputDataError(f"generator name {info.name!r} already in use")
            degrees[info.name] = [0] * slot + [1]
            rule = RewriteRule(Monomial.gen(info.name, info.order), info.section)
            rules.append(rule)
            guarded.update(_rule_shape(rule))
            if fact := rule.root_factorization:
                root_facts[fact[0]] = fact[1]
        if roots and _may_mature(base.declared_factorizations, root_facts, guarded, degrees):
            ring = built = _mature_declared_rules(stage_ring())
            # matured rules are appended, and their lhs g has no root factorization
            guarded.update(n for r in ring.rules[len(rules):] for n in _rule_shape(r))
            rules = list(ring.rules)
        logged.append(step)
    new_ring = stage_ring()
    G = new_ring.grading_group
    coarse = S.coarse and replace(S.coarse, inclusion=GroupHomomorphism(
        S.coarse.group, G, [G.element(g.coords + (0,) * (width - len(g.coords)))
                            for g in S.coarse.inclusion.images]))
    return MdStackData(new_ring, S.irrelevant_gens, S.tower + tuple(logged), coarse)


def _may_mature(declared, root_facts, guarded, degrees) -> bool:
    """Whether ``_mature_declared_rules`` may add a rule at a stage with these
    generator names, where the stage's rules show the ``guarded`` names and
    give ``root_facts``: some name no rule shows has a factorization over
    existing names, in ``declared`` (the base ring's) or a root rule's.  A
    superset of its own test, which reads the stage ring's."""
    sources = (declared, root_facts)
    return any(
        fact is not None and set().union(*(f.support() for f, _e in fact.factors)) <= degrees.keys()
        for name in degrees if name not in guarded
        for fact in (d.get(f"1*{name}") for d in sources)
    )


def root_divisor(S: MdStackData, s: HomogeneousElement, n: int,
                 zname: Optional[str] = None) -> MdStackData:
    """Adjoin an n-th root z of the section s, made monic in normal form and
    certified h-irreducible (rooting a reducible divisor breaks unique
    factorization: z^n = s1*s2 against z*...*z), by one ``extend``."""
    ring = S.cox_ring
    s = ring.normal_form(s)
    if s.is_zero():
        raise InputDataError("cannot root the zero section")
    lead_c, _ = s.leading()
    s = s.scale(lead_c.inverse())
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
    return extend(S, RootStep(kind="divisor", roots=(DivisorRootInfo(s, n, zname),)))


def root_line_bundle(S: MdStackData, a: GroupElement, n: int) -> MdStackData:
    """Adjoin an n-th root of the class a; the ring's term data is untouched."""
    if not a.group.same_presentation(S.pic):
        raise InputDataError("root class must lie in the given group")
    return extend(S, RootStep(kind="line_bundle", bundle_class=tuple(a.coords), order=n))


def replay_tower(base: MdStackData, tower: Sequence[RootStep]) -> MdStackData:
    """Rebuild a stack by replaying a tower over its base stack, in one
    ``extend``: one group and one ring, however many steps the tower has."""
    return extend(base, *tower)


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

    The check needs unique normal forms, which every ring the engine
    builds or reads has (its rules are confluent; see ``gring``): then
    nf(a * x) = nf(nf(a) * x), so each multiset's normal form is that of
    its prefix's normal form times its last generator, and a multiset
    whose prefix is zero is zero.  Each such product is one
    ``normal_form`` call with its own step budget.
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
    one = CycScalar.one(ring.scalar_order)

    def names(combo):
        return tuple(sorted(candidates[i][0] for i in combo))

    # index tuple of the first multiset seen, by monic normal form's terms
    seen = {}
    # nonzero normal forms of the previous size's multisets, by index tuple
    prefixes = {(): ring.one()}
    for size in range(1, degree_bound + 1):
        products = {}
        for combo in combinations_with_replacement(range(len(candidates)), size):
            prefix = prefixes.get(combo[:-1])
            if prefix is None:
                continue
            nf = ring.normal_form(prefix * candidates[combo[-1]][1])
            if nf.is_zero():
                continue
            products[combo] = nf
            lead_c, _ = nf.leading()
            monic = nf if lead_c == one else nf.scale(lead_c.inverse())
            first = seen.setdefault(monic.terms, combo)
            if first != combo:
                return False, (monic.key(), names(first), names(combo))
        prefixes = products
    return True, None
