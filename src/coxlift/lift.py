"""The Cox lift engine.

Given a target space presented by its class group and Cox ring, a source
stack, and a base morphism on the Picard-level subring, the engine
enlarges the graded subring one divisor class at a time.  Each step
picks a class of prime order over the current subgroup, pulls back p-th
powers of the new sections, and either roots the h-irreducible factors
that occur with multiplicity not divisible by p (divisor case) or roots
a line bundle (all pullbacks zero).  Root-of-unity choices are pinned by
linear constraints modulo p coming from monomials that already live in
the current subring; all remaining freedom is resolved lexicographically
and the size of the solution set is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .abgroup import (
    FgAbelianGroup,
    GroupElement,
    GroupHomomorphism,
    Subgroup,
    coordinate_inclusion,
    element_order,
    relation_basis,
    solve_affine_mod_n,
    solve_linear_over_group,
)
from .cyclo import CycScalar, root_of_unity_pth_root
from .errors import (
    FactorizationOracleRequired,
    InputDataError,
    InternalInvariantError,
    LiftInconsistencyError,
)
from .gring import GradedRing, HomogeneousElement, Monomial
from .mdstack import (
    DivisorRootInfo,
    MdStackData,
    RootStep,
    canonical_stack,
    extend,
    fresh_root_name,
    graded_factorial_spotcheck,
    root_line_bundle,
)

_VAR_LETTERS = "ijklmnabcdefgh"


@dataclass(frozen=True)
class TargetData:
    """The target space: class group, Picard subgroup, Cox ring, irrelevant data."""

    cl: FgAbelianGroup
    pic_gens: Tuple[GroupElement, ...]
    ring: GradedRing
    irrelevant: Tuple[HomogeneousElement, ...] = ()

    @cached_property
    def pic(self) -> Subgroup:
        """The Picard subgroup, where the lift starts."""
        return Subgroup(self.cl, self.pic_gens)

    @cached_property
    def pic_generators(self) -> Tuple[Monomial, ...]:
        """``pic_level_generators`` of the Picard subgroup, enumerated once."""
        return tuple(pic_level_generators(self, self.pic))

    def validate(self):
        """Cl/Pic, after two checks that guard ``run_cox_lift`` (documents
        pass both at parse): the ring is graded by Cl, and Cl/Pic is finite."""
        if not self.ring.grading_group.same_presentation(self.cl):
            raise InputDataError("target ring must be graded by the target class group")
        Q, _ = self.pic.quotient()
        if not Q.is_finite():
            raise InputDataError(
                "not Q-factorial data: the class group is not torsion over the Picard subgroup"
            )
        return Q


@dataclass(frozen=True)
class BaseMorphism:
    """Images of the Picard-level generator monomials plus the group map."""

    images: Dict[Monomial, HomogeneousElement]
    group_images: Tuple[GroupElement, ...]


@dataclass(frozen=True)
class LiftOptions:
    """Run options.  The rewrite step cap is not here: each ring carries its own."""

    spotcheck_bound: int = 4
    root_name_pins: Tuple[Tuple[Tuple[str, int], str], ...] = ()

    def pins(self) -> dict:
        return dict(self.root_name_pins)


@dataclass(frozen=True)
class StepRecord:
    """What one lift step did, for the result document and the human log:
    the class D it rooted and its prime, the new subring generators with
    their cosets, the divisor roots, and the root-of-unity constraints with
    the chosen solution.  A line-bundle step leaves the divisor fields at
    their defaults.  The record only reports the run: the tower and the
    group map carry everything needed to replay or factor the result.
    """

    index: int
    cls_coords: Tuple[int, ...]
    p: int
    kind: str  # "divisor" | "line_bundle"
    gens: Tuple[Monomial, ...]
    cosets: Tuple[int, ...]
    zero_pullbacks: Tuple[str, ...]
    delta_coords: Tuple[int, ...]
    group_mode: str  # "pushout" | "universal" | "line"
    roots: Tuple[Tuple[str, int, str], ...] = ()  # (section key, order, name)
    constraint_rows: Tuple[Tuple[int, ...], ...] = ()
    constraint_rhs: Tuple[int, ...] = ()
    kernel_monomials: Tuple[str, ...] = ()
    alpha: Tuple[int, ...] = ()
    alpha_vars: Tuple[str, ...] = ()
    solution_count: int = 1

    def constraint_strings(self) -> Tuple[str, ...]:
        out = []
        for row, r in zip(self.constraint_rows, self.constraint_rhs):
            terms = []
            for coeff, var in zip(row, self.alpha_vars):
                if coeff % self.p == 0:
                    continue
                c = coeff % self.p
                terms.append(var if c == 1 else f"{c}{var}")
            lhs = "+".join(terms) if terms else "0"
            out.append(f"{lhs} ≡ {r % self.p} (mod {self.p})")
        return tuple(out)


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: Tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class CoxLiftResult:
    target: TargetData
    base: BaseMorphism
    source_stack: MdStackData
    stack: MdStackData
    images: Dict[str, HomogeneousElement]
    group_map: GroupHomomorphism
    table: Dict[Monomial, HomogeneousElement] = field(default_factory=dict)
    steps: Tuple[StepRecord, ...] = ()
    verification: VerificationReport = VerificationReport(())


@dataclass(frozen=True)
class Theta:
    """A factoring map: ring images (result ring generators into the candidate
    ring) together with the grading-group map."""

    ring_images: Dict[str, HomogeneousElement]
    group_map: GroupHomomorphism


@dataclass(frozen=True)
class NoFactor:
    reason: str
    step: Optional[int] = None


# ---------------------------------------------------------------------------
# Subring generator bookkeeping


def pic_level_generators(T: TargetData, K: Subgroup) -> List[Monomial]:
    """Monomials generating the subring of degrees inside the subgroup.

    These are the minimal nonzero exponent vectors whose class in Cl/K is
    zero, in `Monomial.sort_key` order.  Exponents are bounded, per
    generator, by the order of its degree class in Cl/K (a power beyond
    that order splits off a factor with degree in K, so nothing larger can
    be minimal).  A generator of class zero is a key on its own, and it
    divides every other class-zero vector that uses it, so only the
    generators of nonzero class enter the box.  Their classes are carried
    as canonical coordinates of Cl/K, with the generator of largest order
    last, whose exponent is read off a residue table; so only class-zero
    vectors of the box are visited.  The exponent prefixes grow one
    generator at a time, grouped by their class, so each class is shifted
    once per exponent.  Taken in total-degree order, a
    vector is kept unless some kept vector k is <= it componentwise.
    This keeps exactly the minimal ones: a class-zero k <= v with k != v
    has smaller total degree, so it is kept or lies above a kept one.  So
    the kept set does not depend on the order within one total degree,
    and the full key then sorts the kept list once.  The test reads
    bitsets: per coordinate i and bound t, the kept vectors with exponent
    <= t at i; v lies above a kept vector iff the bitsets at v's
    exponents share a bit, so no candidate scans the kept list.
    Its check that Cl/K is finite guards direct callers, ``decompose_as_roots``
    among them; the engine calls it after ``TargetData.validate``.
    """
    Q, proj = K.quotient()
    if not Q.is_finite():
        raise InputDataError("not Q-factorial data: Cl/K is infinite")
    keys, live = [], []
    for name, d in T.ring.generators:
        c = proj(d)
        order = element_order(Q, c)
        if order == 1:
            keys.append(Monomial.gen(name))
        else:
            live.append((order, name, c.canonical()))
    if live:
        live.sort()  # largest order last
        bounds, names, ys = zip(*live)

        def shift(acc, y, e):
            return tuple((a + e * c) % m for a, c, m in zip(acc, y, Q.moduli))

        zero = (0,) * len(Q.moduli)
        # residue r -> last exponents e with r + e * class(last) = 0
        reach: Dict[tuple, List[int]] = {}
        for e in range(bounds[-1] + 1):
            reach.setdefault(shift(zero, ys[-1], -e), []).append(e)
        # exponent prefixes grouped by their residue, one generator at a time
        level: Dict[tuple, List[tuple]] = {zero: [()]}
        for y, bound in zip(ys, bounds[:-1]):
            grown: Dict[tuple, List[tuple]] = {}
            for acc, prefixes in level.items():
                for e in range(bound + 1):
                    grown.setdefault(shift(acc, y, e), []).extend(p + (e,) for p in prefixes)
            level = grown
        found = [p + (e,) for acc, prefixes in level.items()
                 for e in reach.get(acc, ()) for p in prefixes]
        found.sort(key=sum)
        # below[i][t]: bit j set iff kept vector j has exponent <= t at i
        below = [[0] * (b + 1) for b in bounds]
        kept: List[tuple] = []
        for v in found[1:]:  # found[0] is the zero vector
            hit = -1
            for row, e in zip(below, v):
                hit &= row[e]
                if not hit:
                    break
            if hit:
                continue
            bit = 1 << len(kept)
            for row, e in zip(below, v):
                for t in range(e, len(row)):
                    row[t] |= bit
            kept.append(v)
        keys += [Monomial(zip(names, v)) for v in kept]
    return sorted(keys, key=Monomial.sort_key)


def choose_extension_class(T: TargetData, K: Subgroup):
    """Deterministic next divisor class: first nontrivial canonical slot of
    Cl/K, smallest prime p dividing its order, lifted as (order/p) times the
    canonical generator.  Cl/K is finite: the engine calls this after
    ``TargetData.validate``, on K containing Pic, so Cl/K is a quotient of
    the finite group Cl/Pic."""
    Q, _ = K.quotient()
    if Q.order() == 1:
        raise InputDataError("already complete: K equals the class group")
    slot = next(i for i, d in enumerate(Q.moduli) if d not in (0, 1))
    m = Q.moduli[slot]
    p = next(q for q in range(2, m + 1) if m % q == 0)
    lift = T.cl.element(Q.canonical_generator(slot).coords)
    return (m // p) * lift, p


def coset_generators(T: TargetData, K: Subgroup, D: GroupElement, p: int):
    """New subring generators for K1 = K + <D>, tagged with class data.

    Returns (K1, gens): gens lists (monomial, F, m, k) where F is the
    degree, m in 1..p-1 its class in K1/K relative to D, and k = F - m*D
    in K.  Classes are read in Cl/K coordinates: F's class is looked up
    among those of 0, D, ..., (p-1)*D, and F is skipped at 0 (F in K).
    """
    K1 = Subgroup(T.cl, K.gens + (D,))
    _, proj = K.quotient()
    # class of c*D in Cl/K -> c, the least c where two classes agree
    multiple = {proj(c * D).canonical(): c for c in reversed(range(p))}
    out = []
    for mono in pic_level_generators(T, K1):
        F = T.ring.monomial_degree(mono)
        mj = multiple.get(proj(F).canonical())
        if mj is None:
            raise InternalInvariantError(
                f"generator {mono.key()} has no coset class relative to the chosen divisor"
            )
        if mj:
            out.append((mono, F, mj, F - mj * D))
    return K1, out


def _exact_base_witness(ring: GradedRing, keys: Sequence[Monomial],
                        imgs: Sequence[HomogeneousElement]) -> Optional[Monomial]:
    """The monomial of a key relation that the images break, or None.

    ``_Engine._spotcheck_base_relations`` states why this is exact.  Keys
    are told apart as zero or nonzero by the normal forms of their images.
    (a) For the first zero key whose support lies in the nonzero keys'
    supports, the witness is the smallest power of the nonzero keys'
    product that the zero key divides.  (b) Otherwise it is
    sum_{a_i > 0} a_i v_i for the first row a of ``relation_basis`` over the
    nonzero keys' exponent vectors v_i whose images g_i break
    prod_{a_i > 0} g_i^a_i = prod_{a_i < 0} g_i^-a_i (``elements_equal``).
    The basis is sparse: each row holds only its nonzero entries, one
    e_v - x_v for each key v in the span of the keys before it, and one for
    each relation found among the keys that were not.  The witness is the
    same for a row and for its negative, since sum_i a_i v_i = 0.
    """
    nfs = [(k, ring.normal_form(img)) for k, img in zip(keys, imgs)]
    nonzero = [(k, img) for k, img in nfs if not img.is_zero()]
    total: Dict[str, int] = {}
    for k, _ in nonzero:
        for n, e in k.pairs:
            total[n] = total.get(n, 0) + e
    for k, img in nfs:
        if img.is_zero() and all(n in total for n in k.names()):
            t = max(-(-e // total[n]) for n, e in k.pairs)
            return Monomial({n: t * e for n, e in total.items()})
    if not nonzero:
        return None
    names = sorted(total)
    rows = [[k.exp(n) for n in names] for k, _ in nonzero]
    for a in relation_basis(rows):
        sides = [ring.one(), ring.one()]
        for i, ai in a.items():
            sides[ai < 0] = sides[ai < 0] * nonzero[i][1] ** abs(ai)
        if not ring.elements_equal(sides[0], sides[1]):
            return Monomial({n: sum(ai * rows[i][j] for i, ai in a.items() if ai > 0)
                             for j, n in enumerate(names)})
    return None


def _coset_kernel_rows(classes: Sequence[int], p: int) -> List[Tuple[int, ...]]:
    """Basis of {c : sum_j c_j * classes_j = 0 mod p} for classes in 1..p-1:
    row f (f >= 1) is e_0 + t_f*e_f with t_f = -classes_0/classes_f mod p."""
    rows = []
    for f in range(1, len(classes)):
        row = [0] * len(classes)
        row[0], row[f] = 1, -classes[0] * pow(classes[f], -1, p) % p
        rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# The engine


class _Engine:
    def __init__(self, target: TargetData, source_stack: MdStackData,
                 base: BaseMorphism, options: LiftOptions):
        self.T = target
        self.stack = source_stack
        self.base = base
        self.opts = options
        self.order = source_stack.cox_ring.scalar_order
        self.N = self.order.N
        self.K = target.pic
        self.table: Dict[Monomial, HomogeneousElement] = dict(base.images)
        self.steps: List[StepRecord] = []
        self._validate_inputs()

    # -- validation ------------------------------------------------------

    def _validate_inputs(self):
        order = self.T.validate().order()
        if self.T.ring.scalar_order != self.order:
            raise InputDataError("target and source rings use different cyclotomic orders")
        # the step primes are the prime factors of |Cl/Pic|, since each step
        # divides |Cl/K| by its prime; they all divide N iff N^b = 0 mod
        # |Cl/Pic| for b its bit length, which no prime's multiplicity exceeds
        if pow(self.N, order.bit_length(), order):
            raise InputDataError(
                f"cyclotomic order {self.N} misses a step prime: every prime factor of "
                f"|Cl/Pic| = {order} must divide it; raise cyclotomic_order")
        ring0 = self.stack.cox_ring
        if len(self.base.group_images) != len(self.K.gens):
            raise InputDataError("base morphism needs one group image per Picard generator")
        self._set_lambda([self.stack.pic.element(i.coords) for i in self.base.group_images])
        expected = self.T.pic_generators
        missing = [m.key() for m in expected if m not in self.table]
        if missing:
            raise InputDataError(f"base morphism misses images for {missing}")
        generators = set(expected)  # these lie in the subring by construction
        for mono in self.table:
            if mono not in generators and self.K.express(self.T.ring.monomial_degree(mono)) is None:
                raise InputDataError(f"base key {mono.key()} is not in the Picard-level subring")
        for mono, img in self.table.items():
            img_nf = ring0.normal_form(img)
            if img_nf.is_zero():
                continue
            want = self._lambda_of(self.T.ring.monomial_degree(mono))
            got = ring0.degree_of(img_nf)
            if not (got == want):
                raise InputDataError(
                    f"base image of {mono.key()} has degree {list(got.coords)}, "
                    f"expected the group-map image of its class"
                )
        self._spotcheck_base_relations()

    def _spotcheck_base_relations(self):
        """Well-definedness of the base images: products of keys that give
        the same monomial must receive the same image.

        The check is exact (see ``_exact_base_witness``) when
        - the source Cox ring is an integral domain, as Cox rings of Mori
          dream spaces are (Arzhantsev-Derenthal-Hausen-Laface, Cox Rings,
          2015, ch. 1).  This is taken on trust;
        - its rules are confluent, so normal forms are unique (checked at
          parse);
        - the keys contain the Picard-level generators and lie in the
          Picard-level subring (``_validate_inputs``), so they generate the
          saturated monoid of class-zero monomials.
        Relations among the keys are then spanned by binomials y^u - y^w of
        equal monomials, and the images respect them iff

        (a) no binomial has a zero key on one side only; it would map to 0
            against a nonzero product.  One exists iff some zero key's
            support lies in the union S of the nonzero keys' supports: it
            then divides a power of their product, with a class-zero
            cofactor.  The faces of the saturated monoid are coordinate faces
            (Miller-Sturmfels, ch. 7); binomials with zero keys on both sides
            map to 0 = 0.
        (b) the binomial of each row a of a basis of the lattice of integer
            relations among the nonzero keys' exponents maps to 0.  The
            lattice ideal is the saturation of the basis binomials by the
            keys' product (Sturmfels, Groebner Bases and Convex Polytopes,
            1996), and the kernel into a domain is prime without any nonzero
            key.  The basis is ``relation_basis``'s sparse one, read off an
            echelon form kept while walking the keys; any basis serves, and
            its entries bound the powers taken.

        The rejection names the witness ``_exact_base_witness`` returns.
        """
        ring = self.stack.cox_ring
        keys = sorted(self.table, key=lambda m: m.sort_key())
        witness = _exact_base_witness(ring, keys, [self.table[k] for k in keys])
        if witness is not None:
            raise InputDataError(
                f"base images are inconsistent on the monomial {witness.key()}")

    # -- degree map -------------------------------------------------------

    def _set_lambda(self, images: Sequence[GroupElement]):
        """The degree map lambda: K -> pic, sending the i-th generator of
        the current subgroup K to images[i]; it must respect K's relations."""
        try:
            self.lam = GroupHomomorphism(self.K.abstract(), self.stack.pic, images)
        except InputDataError as exc:
            raise LiftInconsistencyError(
                f"degree map is not well defined on the current subgroup: {exc}"
            )

    def _lambda_of(self, k: GroupElement) -> GroupElement:
        coeffs = self.K.express(k)
        if coeffs is None:
            raise InternalInvariantError("degree map applied outside the current subgroup")
        return self.lam(self.lam.domain.element(coeffs))

    # -- evaluation of tabulated monomials ---------------------------------

    def evaluate(self, mono: Monomial) -> HomogeneousElement:
        """Image of a monomial whose class lies in the current subgroup K.

        mono is decomposed into table keys greedily twice, taking each time
        the first key that divides what is left, in the keys' order (degree
        down, then by key) and in the reverse order; the two products of
        images must agree.  Neither scan dead-ends, and each makes at most
        |keys| + 2*deg(mono) divisibility tests:
        - every key has its class in K, and every minimal K-level monomial
          is a key: ``_validate_inputs`` requires the Picard-level ones, and
          each step adds the minimal K1-level monomials of class outside K
          (one of class in K is a minimal K-level one, a key already);
        - K-level monomials are cut out by a congruence, so a key dividing
          one leaves one, and one other than 1 has a minimal K-level divisor;
        - a key that does not divide what is left divides no divisor of it,
          so a scan resumes where it stopped: at most |keys| failed tests,
          and two per key taken (one inside ``Monomial.div``), each of
          degree at least 1 once the key 1 is left out.
        A monomial outside K has no decomposition: products of keys lie in K.
        """
        if mono in self.table:
            return self.table[mono]
        ring = self.stack.cox_ring
        keys = sorted((k for k in self.table if not k.is_one()),
                      key=lambda m: (-m.total_degree(), m.key()))

        def scan(order):
            dec, rem, i = [], mono, 0
            while not rem.is_one():
                while i < len(order) and not order[i].divides(rem):
                    i += 1
                if i == len(order):
                    raise LiftInconsistencyError(
                        f"generator table incomplete: no decomposition for {mono.key()}")
                dec.append(order[i])
                rem = rem.div(order[i])
            return dec

        def image(dec):
            img = ring.one()
            for k in dec:
                img = img * self.table[k]
            return ring.normal_form(img)

        first, last = scan(keys), scan(keys[::-1])
        value = image(first)
        # both list their keys in table order, the last one reversed
        if last[::-1] != first and image(last) != value:
            raise LiftInconsistencyError(
                f"inconsistent image table: two decompositions of {mono.key()} disagree"
            )
        return value

    # -- the loop -----------------------------------------------------------

    def run(self):
        """Root one class D of prime order p per step until K = Cl.  Each
        step returns the new stack, the inclusion of the old Picard group,
        delta = lambda(D) and its own record fields.  Then keys with a zero
        pullback map to 0 (after the step, whose ``evaluate`` calls must see
        only keys of class in K), and the engine moves to K1 = K + <D>."""
        Q0, _ = self.K.quotient()
        guard = (Q0.order() or 2).bit_length() + 2
        while self.K.quotient()[0].order() != 1:
            index = len(self.steps)
            if index >= guard:
                raise InternalInvariantError("lift loop exceeded its termination bound")
            D, p = choose_extension_class(self.T, self.K)
            K1, coset = coset_generators(self.T, self.K, D, p)
            pullbacks = [self.stack.cox_ring.normal_form(self.evaluate(mono ** p))
                         for mono, *_ in coset]
            if any(not e.is_zero() for e in pullbacks):
                new_stack, incl, delta, fields = self._divisor_step(D, p, coset, pullbacks)
            else:
                new_stack, incl, delta, fields = self._line_step(D, p)
            zeros = [mono for (mono, *_), e in zip(coset, pullbacks) if e.is_zero()]
            for mono in zeros:
                self.table[mono] = HomogeneousElement.zero()
            self.steps.append(StepRecord(
                index=index, cls_coords=tuple(D.coords), p=p,
                gens=tuple(mono for mono, *_ in coset), cosets=tuple(c[2] for c in coset),
                zero_pullbacks=tuple(mono.key() for mono in zeros),
                delta_coords=tuple(delta.coords), **fields))
            images = [incl(i) for i in self.lam.images] + [delta]
            self.stack, self.K = new_stack, K1
            self._set_lambda(images)
        return self._finish()

    # -- line-bundle step ----------------------------------------------------

    def _line_step(self, D, p):
        new_stack = root_line_bundle(self.stack, self._lambda_of(p * D), p)
        incl = coordinate_inclusion(self.stack.pic, new_stack.pic)
        delta = new_stack.pic.basis_element(self.stack.pic.ambient_rank)
        return new_stack, incl, delta, dict(kind="line_bundle", group_mode="line")

    # -- divisor step ----------------------------------------------------------

    def _divisor_step(self, D, p, coset, pullbacks):
        ring = self.stack.cox_ring
        Jp = [j for j, e in enumerate(pullbacks) if not e.is_zero()]
        facts = {j: ring.h_factorize(pullbacks[j]) for j in Jp}
        # each h-irreducible factor by key, with its exponent in each pullback
        qs: Dict[str, HomogeneousElement] = {}
        a: Dict[str, List[int]] = {}
        for j in Jp:
            for f, e in facts[j].factors:
                qs.setdefault(f.key(), f)
                a.setdefault(f.key(), [0] * len(coset))[j] = e
        # p is prime, so a factor is rooted (by p) iff some exponent is prime to p
        rooted = [k for k, row in a.items() if any(e % p for e in row)]

        # base p-th roots for the factorization units of the pullbacks
        base_roots: Dict[int, CycScalar] = {}
        for j in Jp:
            u = facts[j].unit
            c0 = root_of_unity_pth_root(u, p)
            if c0 is None:
                raise LiftInconsistencyError(
                    f"pullback of {coset[j][0].key()}^{p} has unit {u.as_string()}, "
                    f"which admits no {p}-th root of unity in Q(zeta_{self.N})"
                )
            base_roots[j] = c0

        # names for the new root generators, by factor key: every available
        # pin first, so a fresh name cannot take a later factor's pin
        pins = self.opts.pins()
        pinned: Dict[str, str] = {}
        used = set(ring.gen_degrees)
        for k in rooted:
            pin = pins.get((k, p))
            if pin and pin not in used:
                pinned[k] = pin
                used.add(pin)
        names: Dict[str, str] = {}
        for k in rooted:
            names[k] = pinned.get(k) or fresh_root_name(used)
            used.add(names[k])

        new_stack, incl, delta, mode = self._extend_group_and_ring(
            D, p, coset, Jp, qs, a, names
        )
        new_ring = new_stack.cox_ring

        def product(exps: Dict[str, int]) -> HomogeneousElement:
            """prod z_k^e over the rooted factors k and q_k^(e/p) over the
            others.  exps is an integer combination of the pullbacks'
            exponent columns, and an unrooted factor's exponents are all
            divisible by p (that is what unrooted means), so e/p is whole."""
            out = new_ring.one()
            for k, e in exps.items():
                if e:
                    out = out * (new_ring.gen(names[k]) ** e if k in names
                                 else qs[k] ** (e // p))
            return out

        # constraint system for the root-of-unity exponents: by unique
        # factorization, each kernel monomial maps to rho * denom * product,
        # with rho a p-th root of unity fixed by the choices of roots
        kernel = _coset_kernel_rows([coset[j][2] for j in Jp], p)
        rhs, kmonos = [], []
        for cvec in kernel:
            # (index into coset, entry) for the two nonzero entries
            support = [(Jp[pos], c) for pos, c in enumerate(cvec) if c]
            mono = Monomial.one()
            denom = CycScalar.one(self.order)
            for j, c in support:
                mono = mono * (coset[j][0] ** c)
                denom = denom * (base_roots[j] ** c)
            want = product({k: sum(c * row[j] for j, c in support) for k, row in a.items()})
            rho = _unit_ratio(new_ring, want.scale(denom), self.evaluate(mono))
            er = None if rho is None else rho.as_root_of_unity()
            if er is None or er % (self.N // p):
                raise LiftInconsistencyError(
                    f"kernel monomial {mono.key()} does not map to a {p}-th root of "
                    f"unity times {want.key()}"
                )
            rhs.append((er // (self.N // p)) % p)
            kmonos.append(mono.key())
        # each kernel row f is e_0 + t_f*e_f with t_f != 0: the system is
        # consistent, x_0 is free, and the lex-min solution is x_0 = 0,
        # x_f = r_f / t_f (one of p)
        alpha = (0,) + tuple(r * pow(row[f], -1, p) % p
                             for f, (row, r) in enumerate(zip(kernel, rhs), 1))

        # generator images
        xi = CycScalar.zeta(self.order, self.N // p)
        for jpos, j in enumerate(Jp):
            img = product({k: row[j] for k, row in a.items()})
            self.table[coset[j][0]] = new_ring.normal_form(
                img.scale(base_roots[j] * (xi ** alpha[jpos])))
        return new_stack, incl, delta, dict(
            kind="divisor", group_mode=mode, roots=tuple((k, p, z) for k, z in names.items()),
            constraint_rows=tuple(kernel), constraint_rhs=tuple(rhs),
            kernel_monomials=tuple(kmonos), alpha=alpha, solution_count=p,
            alpha_vars=tuple(_VAR_LETTERS[i % len(_VAR_LETTERS)] for i in range(len(Jp))))

    def _extend_group_and_ring(self, D, p, coset, Jp, qs, a, names):
        """Extend ring and grading group for one divisor step; ``qs`` and
        ``a`` hold each factor and its exponents by key, and ``names`` maps
        the key of each rooted factor to its generator.

        The factors are ``h_factorize``'s, so each is rooted as it stands:
        monic, in normal form and h-irreducible.  One ``extend`` tries the
        iterated pushouts ("divisor" steps) with a solved image for the
        new class; when the degree equations have no solution there, one
        "divisor_batch" step is a universal extension whose relations force
        the degree map to exist (recorded in the tower for exact replay).
        The degree equations m * delta = t say that each new generator
        image has the degree lambda(F) = lambda(k) + m * delta of its class
        F = k + m*D.  In pushout mode delta solves them, and with
        p * delta = lambda(pD) and some m prime to p (every coset's is), it
        is unique: u*m + v*p = 1 gives delta = u*t + v*lambda(pD), so
        ``solve_linear_over_group``'s lex-min tie-break never acts here.  In
        universal mode the batch rows are these equations, as rows (-t, m)
        after one row (-t, 0) per root, t = deg q - p * deg z, so no image
        needs a degree check later.  The pushouts' coordinates serve the
        batch: the inclusion pads with zeros and each root's degree is its
        slot's basis vector.
        """
        ring = self.stack.cox_ring
        infos = tuple(DivisorRootInfo(qs[k], p, name) for k, name in names.items())
        pic = self.stack.pic

        # --- pushout attempt
        seq_stack = extend(self.stack, *(RootStep(kind="divisor", roots=(info,))
                                         for info in infos))
        G_seq = seq_stack.pic
        z_deg = seq_stack.cox_ring.gen_degrees
        # each pushout only appends a coordinate, so their composite is one inclusion
        incl = coordinate_inclusion(pic, G_seq)
        eqs = [(p, incl(self._lambda_of(p * D)))]
        for j in Jp:
            # deg of F's image (as ``product`` builds it) - lambda(k)
            t = incl(-self._lambda_of(coset[j][3]))
            for key, row in a.items():
                if row[j]:
                    t = t + (row[j] * z_deg[names[key]] if key in names
                             else incl((row[j] // p) * ring.degree_of(qs[key])))
            eqs.append((coset[j][2], t))
        delta = solve_linear_over_group(G_seq, eqs)
        if delta is not None:
            return seq_stack, incl, delta, "pushout"

        # --- universal extension
        roots = [(0, incl(ring.degree_of(qs[k])) - p * z_deg[name]) for k, name in names.items()]
        rows = tuple(tuple([-c for c in t.coords] + [m]) for m, t in roots + eqs)
        new_stack = extend(self.stack, RootStep(kind="divisor_batch", roots=infos,
                                                group_relations=rows))
        G_new = new_stack.pic
        delta = G_new.basis_element(G_new.ambient_rank - 1)
        return new_stack, coordinate_inclusion(pic, G_new), delta, "universal"

    # -- finish -----------------------------------------------------------------

    def _finish(self):
        ring = self.stack.cox_ring
        images: Dict[str, HomogeneousElement] = {}
        for name, _deg in self.T.ring.generators:
            mono = Monomial.gen(name)
            if mono not in self.table:
                raise InternalInvariantError(
                    f"generator {name} was never tabulated during the lift"
                )
            images[name] = ring.normal_form(self.table[mono])
        cl = self.T.cl
        hom_images = [self._lambda_of(cl.basis_element(i)) for i in range(cl.ambient_rank)]
        # No input reaches this raise.  lam is a homomorphism on K.abstract(),
        # whose relations generate every relation among K's generators
        # (``Subgroup.relations``), and the loop ends with K = Cl.  A relation
        # r of Cl goes to lam of sum r_i * express(e_i), a relation among K's
        # generators, so to zero.
        try:
            group_map = GroupHomomorphism(cl, self.stack.pic, hom_images)
        except InputDataError as exc:
            raise InternalInvariantError(f"final group map is ill defined: {exc}")
        return self.stack, images, group_map, dict(self.table), tuple(self.steps)


def run_cox_lift(target: TargetData, source_stack: MdStackData, base: BaseMorphism,
                 options: LiftOptions = LiftOptions()) -> CoxLiftResult:
    """Run the full lift loop and verify the outcome."""
    engine = _Engine(target, source_stack, base, options)
    stack, images, group_map, table, steps = engine.run()
    draft = CoxLiftResult(
        target=target,
        base=base,
        source_stack=source_stack,
        stack=stack,
        images=images,
        group_map=group_map,
        table=table,
        steps=steps,
    )
    report = verify_lift(target, source_stack, base, draft,
                         spotcheck_bound=options.spotcheck_bound)
    return replace(draft, verification=report)


# ---------------------------------------------------------------------------
# Verification


def _map_monomial(images: Dict[str, HomogeneousElement], ring: GradedRing,
                  mono: Monomial, powers: dict) -> HomogeneousElement:
    """The product of the images of mono's generator powers.

    It is 0, with no product built, when any image is 0.  A generator
    without an image is an ``InputDataError``: ``verify_lift`` reaches it
    through a base key that names a generator the target ring lacks, which
    only a ``BaseMorphism`` built in code can hold (documents reject such
    keys at parse).  Each factor is nf(image^e), with image^e reduced
    power by power first (``GradedRing._reduce_powers``), built once per
    (generator, e) in ``powers``, a dict the caller keeps for one ring and
    one set of images.  The product then equals the plain one in a
    confluent ring, though not term for term.
    """
    factors = []
    for name, e in mono.pairs:
        img = images.get(name)
        if img is None:
            raise InputDataError(f"no image recorded for generator {name}")
        if (name, e) not in powers:
            powers[name, e] = ring.normal_form(ring._reduce_powers(img ** e))
        factors.append(powers[name, e])
    if any(img.is_zero() for img in factors):
        return HomogeneousElement.zero()
    acc = ring.one()
    for img in factors:
        acc = acc * img
    return acc


def map_element(images: Dict[str, HomogeneousElement], ring: GradedRing,
                e: HomogeneousElement, powers: dict) -> HomogeneousElement:
    return sum((_map_monomial(images, ring, m, powers).scale(c) for c, m in e.terms),
               HomogeneousElement.zero())


def verify_lift(target: TargetData, source_stack: MdStackData, base: BaseMorphism,
                result: CoxLiftResult, spotcheck_bound: int = 0) -> VerificationReport:
    """The four lift checks: homogeneity, relation preservation, restriction
    to the base morphism, and well-definedness of the group map.

    A fifth, the factorial spot-check (``graded_factorial_spotcheck`` up to
    ``spotcheck_bound``), runs only when the bound is nonzero and the result
    ring has at most 6 generators; on a larger ring it is skipped and the
    report has no entry for it.

    Relation preservation and restriction compare mapped products with
    ``GradedRing.elements_equal``, which is exact because the result ring
    is confluent (the engine's rings are, and a replayed tower over a
    source checked confluent at parse is).  It normalizes a product one
    generator power at a time, each normal form under the ring's
    ``step_cap`` on its own, so a check can pass where one normal form of
    the whole product would exceed the cap.  Each factor nf(image^e) is
    built once per call, for both checks (``_map_monomial``'s ``powers``);
    normal forms commute with products there, so no verdict changes.  A
    target generator without an image is an ``InputDataError``, not a
    failed check: the mapped products that contain it cannot be formed."""
    ring = result.stack.cox_ring
    checks: List[VerificationCheck] = []
    for name, _deg in target.ring.generators:
        if name not in result.images:
            raise InputDataError(f"generator {name} has no image")

    ok, detail = True, "all generator images are homogeneous of the mapped degree"
    for name, deg in target.ring.generators:
        img = ring.normal_form(result.images[name])
        if img.is_zero():
            continue
        want = result.group_map(deg)
        got = ring.degree_of(img)
        if not (got == want):
            ok, detail = False, (
                f"image of {name} has degree {list(got.coords)}, "
                f"group map demands {list(want.coords)}"
            )
            break
    checks.append(VerificationCheck("homogeneity", ok, detail))

    powers: dict = {}
    ok, detail = True, "all target ring relations map to zero"
    for rule in target.ring.rules:
        lhs = _map_monomial(result.images, ring, rule.lhs, powers)
        rhs = map_element(result.images, ring, rule.rhs, powers)
        if not ring.elements_equal(lhs, rhs):
            ok, detail = False, f"relation {rule.key()} does not map to zero"
            break
    checks.append(VerificationCheck("relation-preservation", ok, detail))

    ok, detail = True, "lift restricts to the base morphism on the Picard level"
    for mono, img0 in base.images.items():
        via_lift = _map_monomial(result.images, ring, mono, powers)
        if not ring.elements_equal(via_lift, img0):
            ok, detail = False, (
                f"restriction differs from the base morphism at {mono.key()}"
            )
            break
    checks.append(VerificationCheck("restriction", ok, detail))

    ok, detail = True, "group map respects all class-group relations"
    try:
        GroupHomomorphism(target.cl, result.stack.pic, list(result.group_map.images))
    except InputDataError as exc:
        ok, detail = False, str(exc)
    if ok and result.stack.coarse is not None:
        iota = result.stack.coarse.inclusion
        for pic_gen, base_img in zip(target.pic_gens, base.group_images):
            want = iota(base_img)
            got = result.group_map(pic_gen)
            if not (got == want):
                ok, detail = False, (
                    "group map does not restrict to the base morphism on the "
                    "Picard subgroup"
                )
                break
    checks.append(VerificationCheck("group-map", ok, detail))

    if spotcheck_bound and len(ring.generators) <= 6:
        good, ce = graded_factorial_spotcheck(result.stack, spotcheck_bound)
        checks.append(
            VerificationCheck(
                "factorial-spotcheck",
                good,
                "no clashing bounded factorizations" if good else f"clash: {ce}",
            )
        )
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Minimality: factoring a candidate through the computed lift


def check_factors_through(result: CoxLiftResult, candidate: CoxLiftResult):
    """Build the factoring map Theta from the result's stack to the candidate's.

    Reads only the two stacks and lift maps, never the step records, so a
    result rebuilt from its document factors too.  Walks the result's
    tower: each rooted divisor needs an n-th root of its section, as the
    tower records it, transported to the candidate ring.  In a factorially
    graded ring that root is unique up to a unit, so it is read off the
    section's h-factorization (its unit freedom solved lexicographically),
    and it fixes the group image of its generator's slot.
    Every other new slot s is a rooted class, sent to psi(D) for any D
    with phi(D) = e_s, where phi and psi are the two lifts' group maps;
    the final check theta o phi = psi makes the choice of D immaterial.
    The grading map is checked once, over the whole Pic, and every result
    rule, each root's z^n -> s included, must hold in the candidate.
    Returns a Theta on success and a NoFactor with the obstruction
    otherwise.

    Theta sends root i to zeta^(x_i) * m_i, with m_i the root read off its
    section and x the unit variables, solved mod N at the end, and fixes
    each base generator.  So a term c*mono goes to zeta^(v.x) times its
    image at x = 0, v being mono's exponents on the roots in tower order,
    and an element transports only when its terms share one v.

    The transported generator images are not compared with the
    candidate's: once the unit equations hold, each is lhs * zeta^k, which
    equals the candidate image modulo the rules (``_unit_ratio``), so on a
    confluent candidate ring (as document rings are) they agree.
    """
    res_base = result.stack.coarse
    cand_base = candidate.stack.coarse
    if res_base is None or cand_base is None:
        raise InputDataError("both stacks need coarse base data for factoring")
    if [
        (n, tuple(d.coords)) for n, d in res_base.ring.generators
    ] != [(n, tuple(d.coords)) for n, d in cand_base.ring.generators]:
        return NoFactor("the two lifts do not share a base stack")
    cand_ring = candidate.stack.cox_ring
    cand_pic = candidate.stack.pic
    N = cand_ring.scalar_order.N

    roots = {info.name: i for i, info in enumerate(
        info for step in result.stack.tower for info in step.roots)}
    # the images at x = 0: each base generator, then each root once processed
    images: Dict[str, HomogeneousElement] = {}
    for name, _d in res_base.ring.generators:
        if name not in cand_ring.gen_degrees:
            return NoFactor(f"candidate ring lacks base generator {name}")
        images[name] = cand_ring.gen(name)
    memo: dict = {}  # map_element's powers, for the whole call: no image is rebound

    def transport(e: HomogeneousElement):
        """(v, nf of e's image at x = 0), or None when e's terms have
        different vectors v or e names a generator without an image (which
        ``map_element`` would raise on)."""
        vs = {tuple(m.exp(z) for z in roots) for _c, m in e.terms}
        if len(vs) != 1 or not e.support().issubset(images):
            return None
        return vs.pop(), cand_ring.normal_form(map_element(images, cand_ring, e, memo))

    # group map, extended slot by slot along the result tower
    theta_group_images: List[GroupElement] = list(cand_base.inclusion.images)
    equations: List[Tuple[Tuple[int, ...], int]] = []  # rows over unit vars mod N
    psi = candidate.group_map
    phi_image = Subgroup(result.stack.pic, result.group_map.images)

    rank = res_base.group.ambient_rank
    for step_idx, entry in enumerate(result.stack.tower):
        rank += entry.new_slots
        for info in entry.roots:
            key = info.section.key()
            moved = transport(info.section)
            if moved is None:
                return NoFactor(f"cannot transport section {key} (unsupported shape)", step_idx)
            v, section = moved
            if section.is_zero():
                return NoFactor(f"section {key} vanishes in the candidate ring", step_idx)
            try:
                fact = cand_ring.h_factorize(section)
            except (FactorizationOracleRequired, InputDataError) as exc:
                return NoFactor(f"cannot factor section {key} in the candidate ring: {exc}",
                                step_idx)
            # m = prod f^(e/n) has m^n = sigma * section, sigma = unit^-1
            if any(e % info.order for _f, e in fact.factors):
                return NoFactor(f"candidate ring has no {info.order}-th root of {key}", step_idx)
            m_el = cand_ring.one()
            for f, e in fact.factors:
                m_el = m_el * f ** (e // info.order)
            k = fact.unit.inverse().as_root_of_unity()
            if k is None:
                return NoFactor(f"root of {key} differs by a non-root-of-unity scalar", step_idx)
            # w = zeta^x_i * m; w^order = theta(section) = zeta^(v.x) * section
            # forces order*x_i - v.x = -dlog(sigma)
            row = [-c for c in v]
            row[roots[info.name]] += info.order
            equations.append((tuple(row), -k % N))
            images[info.name] = m_el
            theta_group_images.append(cand_ring.degree_of(m_el))
        # every other new slot s is a rooted class: theta(e_s) = psi(D) for
        # any D with phi(D) = e_s, where phi is the result's group map
        for slot in range(len(theta_group_images), rank):
            D = phi_image.express(result.stack.pic.basis_element(slot))
            if D is None:
                return NoFactor(f"class slot {slot} is not in the image of the lift's "
                                "group map", step_idx)
            theta_group_images.append(psi(result.target.cl.element(D)))

    # generator-image compatibility pins the unit variables
    for name, _deg in result.target.ring.generators:
        res_img = result.images[name]
        cand_img = cand_ring.normal_form(candidate.images[name])
        if res_img.is_zero() != cand_img.is_zero():
            return NoFactor(f"images of {name} disagree about vanishing")
        if res_img.is_zero():
            continue
        moved = transport(res_img)
        if moved is None:
            return NoFactor(f"cannot transport the image of {name}")
        v, lhs = moved
        if lhs.is_zero():
            return NoFactor(f"transported image of {name} vanishes unexpectedly")
        ratio = _unit_ratio(cand_ring, lhs, cand_img)
        if ratio is None:
            return NoFactor(f"images of {name} differ beyond a scalar unit")
        k = ratio.as_root_of_unity()
        if k is None:
            return NoFactor(f"images of {name} differ by a non-root-of-unity scalar")
        equations.append((v, k % N))

    xs = solve_affine_mod_n([list(r) for r, _ in equations],
                            [b for _, b in equations], len(roots), N)
    if xs is None:
        return NoFactor("unit constraints for the factoring map are unsolvable")

    zeta = CycScalar.zeta(cand_ring.scalar_order)
    ring_images = {name: cand_ring.normal_form(
        img.scale(zeta ** xs[roots[name]]) if name in roots else img)
        for name, img in images.items()}
    try:
        theta_group = GroupHomomorphism(result.stack.pic, cand_pic, theta_group_images)
    except InputDataError as exc:
        return NoFactor(f"grading map is ill defined: {exc}")

    # final compatibility: theta o (result lift) must equal the candidate lift
    for pg_img_res, pg_img_cand in zip(result.group_map.images, candidate.group_map.images):
        if not (theta_group(pg_img_res) == pg_img_cand):
            return NoFactor(
                "group maps are incompatible: the candidate's class-group map "
                "does not factor through the computed lift"
            )
    powers: dict = {}
    for rule in result.stack.cox_ring.rules:
        lhs = _map_monomial(ring_images, cand_ring, rule.lhs, powers)
        rhs = map_element(ring_images, cand_ring, rule.rhs, powers)
        if not cand_ring.elements_equal(lhs, rhs):
            return NoFactor(f"result ring relation {rule.key()} breaks in the candidate")
    return Theta(ring_images, theta_group)


def _unit_ratio(ring: GradedRing, a: HomogeneousElement,
                b: HomogeneousElement) -> Optional[CycScalar]:
    """Scalar c with c*a = b modulo the rules, or None."""
    a = ring.normal_form(a)
    b = ring.normal_form(b)
    if a.is_zero() or b.is_zero():
        return None
    ca, ma = a.leading()
    cb, mb = b.leading()
    if ma != mb:
        return None
    ratio = cb * ca.inverse()
    if a.scale(ratio) == b:
        return ratio
    return None


# ---------------------------------------------------------------------------
# Decomposition of a stack into roots over its own canonical stack


def decompose_as_roots(stack: MdStackData,
                       options: LiftOptions = LiftOptions()) -> CoxLiftResult:
    """Present a stack as a root tower over the canonical stack of its coarse
    space by lifting the identity map through the engine.  Its check for
    coarse data guards direct callers (documents have it), and its check on
    the Picard-level monomials guards documents too."""
    coarse = stack.coarse
    if coarse is None:
        raise InputDataError("decomposition needs coarse base data on the stack")
    target = TargetData(
        cl=stack.pic,
        pic_gens=tuple(coarse.inclusion.images),
        ring=stack.cox_ring,
        irrelevant=stack.irrelevant_gens,
    )
    source = canonical_stack(coarse.ring, coarse.irrelevant)
    coarse_names = set(coarse.ring.gen_degrees)
    images: Dict[Monomial, HomogeneousElement] = {}
    for mono in target.pic_generators:
        img = stack.cox_ring.normal_form(
            HomogeneousElement.monomial(stack.cox_ring.scalar_order, mono)
        )
        if not img.support() <= coarse_names:
            raise InputDataError(
                f"monomial {mono.key()} does not normalize into the coarse subring"
            )
        images[mono] = img
    base = BaseMorphism(
        images=images,
        group_images=tuple(
            coarse.group.basis_element(i) for i in range(coarse.group.ambient_rank)
        ),
    )
    result = run_cox_lift(target, source, base, options)
    checks = list(result.verification.checks)
    same_group = result.stack.pic == stack.pic
    orig_orders = sorted(
        element_order(stack.pic, d) or 0 for _n, d in stack.cox_ring.generators
    )
    new_orders = sorted(
        element_order(result.stack.pic, d) or 0 for _n, d in result.stack.cox_ring.generators
    )
    ok = (
        same_group
        and len(stack.cox_ring.generators) == len(result.stack.cox_ring.generators)
        and orig_orders == new_orders
    )
    checks.append(
        VerificationCheck(
            "reconstruction",
            ok,
            "replayed stack matches the input (canonical group and degree orders)"
            if ok
            else "replayed stack differs from the input",
        )
    )
    return replace(result, verification=VerificationReport(tuple(checks)))
