"""Graded rings with named generators, binomial rewriting and h-factorization.

A ring is a list of named generators with degrees in an abelian grading
group, together with oriented rewrite rules (monomial left-hand sides)
and factorization data: generator names marked irreducible and declared
factorizations for elements no backend can split.  Elements are term
lists over exact cyclotomic scalars; monomials are keyed by generator
name so they survive ring extensions unchanged.

The rules terminate under a weight order (``_derive_weights``) in which
every left side is the leading term.  ``normal_form`` has one strategy:
the first reducible term in ``Monomial.sort_key`` order is rewritten by
the first rule that divides it, a whole power of its left side at once.
The rings the engine builds are confluent, which is checked where rules
enter (``GradedRing.nonjoinable_pair``): the rules are then a Groebner
basis of the ideal they generate, so normal forms are unique and two
elements are equal exactly when their normal forms are.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .abgroup import FgAbelianGroup, GroupElement
from .cyclo import CycOrder, CycScalar, _pdivmod, _pgcd
from .errors import (
    FactorizationOracleRequired,
    InputDataError,
    InternalInvariantError,
    NotHomogeneousError,
    RewriteDivergedError,
)


class Monomial:
    """Finitely supported exponent map over generator names.

    ``pairs`` is the sorted tuple of (name, exponent > 0).  The total degree
    and the hash are kept once computed.  ``__init__`` validates names and
    exponents from documents and callers; products, powers and exact
    quotients of canonical monomials are canonical, so they build their
    pairs directly (``_of``)."""

    __slots__ = ("pairs", "_degree", "_hash")

    def __init__(self, exps: Dict[str, int] | Iterable[Tuple[str, int]] = ()):
        items = exps.items() if isinstance(exps, dict) else exps
        pairs = tuple(sorted((str(n), int(e)) for n, e in items if int(e) != 0))
        if any(e < 0 for _, e in pairs):
            raise InputDataError("monomial exponents must be nonnegative")
        _set_pairs(self, pairs)
        _set_degree(self, None)
        _set_hash(self, None)

    @classmethod
    def _of(cls, pairs: tuple, degree: Optional[int] = None) -> "Monomial":
        """The monomial of canonical pairs: sorted by name, exponents > 0."""
        m = _new(cls)
        _set_pairs(m, pairs)
        _set_degree(m, degree)
        _set_hash(m, None)
        return m

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls) -> "Monomial":
        return cls._of((), 0)

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Monomial":
        return cls({name: exp})

    def exp(self, name: str) -> int:
        return dict(self.pairs).get(name, 0)

    def names(self):
        return [n for n, _ in self.pairs]

    def is_one(self) -> bool:
        return not self.pairs

    def total_degree(self) -> int:
        d = self._degree
        if d is None:
            d = sum(e for _, e in self.pairs)
            _set_degree(self, d)
        return d

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.pairs, other.pairs
        if not b:
            return self
        if not a:
            return other
        d = dict(a)
        for n, e in b:
            d[n] = d.get(n, 0) + e
        da, db = self._degree, other._degree
        return Monomial._of(tuple(sorted(d.items())),
                            None if da is None or db is None else da + db)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise InputDataError("negative monomial power")
        if k == 1:
            return self
        if k == 0:
            return Monomial._of((), 0)
        d = self._degree
        return Monomial._of(tuple((n, e * k) for n, e in self.pairs),
                            None if d is None else d * k)

    def divides(self, other: "Monomial") -> bool:
        o = dict(other.pairs)
        return all(o.get(n, 0) >= e for n, e in self.pairs)

    def div(self, other: "Monomial") -> "Monomial":
        q = dict(other.pairs)
        pairs = []
        for n, e in self.pairs:
            f = q.pop(n, 0)
            if e > f:
                pairs.append((n, e - f))
            elif e < f:
                q[n] = f
        if q:
            raise InputDataError("monomial division is not exact")
        da, db = self._degree, other._degree
        return Monomial._of(tuple(pairs), None if da is None or db is None else da - db)

    def sort_key(self):
        return (self.total_degree(), self.pairs)

    def key(self) -> str:
        if not self.pairs:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.pairs)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.pairs)
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"Monomial({self.key()})"


_new = object.__new__
_set_pairs = Monomial.pairs.__set__
_set_degree = Monomial._degree.__set__
_set_hash = Monomial._hash.__set__


class HomogeneousElement:
    """Term list (scalar, monomial) in canonical order; empty list is zero.

    ``__init__`` merges equal monomials, drops zero terms and sorts by
    ``Monomial.sort_key``.  Q(zeta_N) is a field, so scaling by a nonzero
    scalar, negation, and products and powers of one-term elements keep a
    canonical term list canonical, and build it directly (``_of``)."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Iterable[Tuple[CycScalar, Monomial]]):
        merged: Dict[Monomial, CycScalar] = {}
        for c, m in terms:
            merged[m] = merged[m] + c if m in merged else c
        cleaned = [(c, m) for m, c in merged.items() if not c.is_zero()]
        if len(cleaned) > 1:
            cleaned.sort(key=_term_order)
        _set_terms(self, tuple(cleaned))
        _set_key(self, None)

    @classmethod
    def _of(cls, terms: tuple) -> "HomogeneousElement":
        """The element of a canonical term tuple: nonzero scalars, distinct
        monomials in ``sort_key`` order."""
        e = _new(cls)
        _set_terms(e, terms)
        _set_key(e, None)
        return e

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("HomogeneousElement is immutable")

    @classmethod
    def zero(cls) -> "HomogeneousElement":
        return cls._of(())

    @classmethod
    def monomial(cls, order: CycOrder, m: Monomial, coeff=None) -> "HomogeneousElement":
        c = coeff if coeff is not None else CycScalar.one(order)
        return cls._of(((c, m),) if c else ())

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> Tuple[CycScalar, Monomial]:
        if not self.terms:
            raise InputDataError("zero element has no leading term")
        return self.terms[-1]

    def scale(self, c: CycScalar) -> "HomogeneousElement":
        if c.is_zero():
            return HomogeneousElement._of(())
        return HomogeneousElement._of(tuple((c * a, m) for a, m in self.terms))

    def __add__(self, other):
        return HomogeneousElement(self.terms + other.terms)

    def __sub__(self, other):
        return HomogeneousElement(self.terms + tuple((-c, m) for c, m in other.terms))

    def __neg__(self):
        return HomogeneousElement._of(tuple((-c, m) for c, m in self.terms))

    def __mul__(self, other):
        if len(self.terms) == 1 and len(other.terms) == 1:
            (c1, m1), = self.terms
            (c2, m2), = other.terms
            return HomogeneousElement._of(((c1 * c2, m1 * m2),))
        out = []
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                out.append((c1 * c2, m1 * m2))
        return HomogeneousElement(out)

    def __pow__(self, k: int):
        if k < 0:
            raise InputDataError("negative element power")
        if not self.terms and k == 0:
            raise InputDataError("0^0 is undefined here")
        if k == 1:
            return self
        if len(self.terms) == 1:
            (c, m), = self.terms
            return HomogeneousElement._of(((c ** k, m ** k),))
        acc = None
        base = self
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        if acc is None:  # k = 0, and self has two or more terms
            return HomogeneousElement._of(((CycScalar.one(self.terms[0][0].order),
                                            Monomial.one()),))
        return acc

    def support(self):
        names = set()
        for _, m in self.terms:
            names.update(m.names())
        return names

    def key(self) -> str:
        """The element as text, built once: elements are immutable."""
        if self._key is None:
            _set_key(self, " + ".join(
                f"{c.as_string()}*{m.key()}" for c, m in self.terms) if self.terms else "0")
        return self._key

    def __eq__(self, other):
        return isinstance(other, HomogeneousElement) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"El({self.key()})"


_set_terms = HomogeneousElement.terms.__set__
_set_key = HomogeneousElement._key.__set__


def _term_order(term):
    return term[1].sort_key()


@dataclass(frozen=True)
class RewriteRule:
    """Oriented rule lhs -> rhs; lhs is a monomial, both sides equal degree."""

    lhs: Monomial
    rhs: HomogeneousElement

    def key(self) -> str:
        return f"{self.lhs.key()} -> {self.rhs.key()}"

    def power(self, k: int) -> Tuple[Monomial, HomogeneousElement]:
        """(lhs^k, rhs^k), kept per rule for whole-power rewriting."""
        got = self._powers.get(k)
        if got is None:
            got = self._powers[k] = (self.lhs ** k, self.rhs ** k)
        return got

    @cached_property
    def _powers(self) -> dict:
        return {}

    @cached_property
    def root_factorization(self) -> Optional[Tuple[str, "Factorization"]]:
        """(key of s, s = c^-1 * z^n) for a root rule z^n -> c*s with n > 1."""
        if len(self.lhs.pairs) != 1 or self.lhs.pairs[0][1] < 2 or not self.rhs.support():
            return None
        (name, n), = self.lhs.pairs
        c, _ = self.rhs.leading()
        z = HomogeneousElement.monomial(c.order, Monomial.gen(name))
        if c == CycScalar.one(c.order):  # a monic section, as every engine root
            return self.rhs.key(), Factorization(c, ((z, n),))
        return self.rhs.scale(c.inverse()).key(), Factorization(c.inverse(), ((z, n),))


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^exp); factors are h-irreducible elements."""

    unit: CycScalar
    factors: Tuple[Tuple[HomogeneousElement, int], ...]

    def expand(self) -> HomogeneousElement:
        acc = HomogeneousElement([(self.unit, Monomial.one())])
        for f, e in self.factors:
            acc = acc * (f ** e)
        return acc


def _derive_weights(gen_names: Sequence[str], rules: Sequence[RewriteRule]):
    """Termination weights: the head generator of each rule outweighs its rhs.

    A rule g^n -> rhs with g absent from rhs determines w(g); generators
    without a defining rule get weight 1.  Fails when no assignment makes
    every rule strictly decreasing.
    """
    weights = {n: 1 for n in gen_names}
    heads = []
    for r in rules:
        names = r.lhs.names()
        rhs_support = set()
        for _, m in r.rhs.terms:
            rhs_support.update(m.names())
        head = None
        if len(names) == 1 and names[0] not in rhs_support:
            head = names[0]
        heads.append(head)
    for _ in range(len(rules) + 2):
        changed = False
        for r, head in zip(rules, heads):
            if head is None:
                continue
            n = r.lhs.exp(head)
            rhs_w = max(
                (sum(e * weights.get(nm, 1) for nm, e in m.pairs) for _, m in r.rhs.terms),
                default=0,
            )
            need = rhs_w // n + 1
            if weights[head] < need:
                weights[head] = need
                changed = True
        if not changed:
            break

    def wdeg(m: Monomial) -> int:
        return sum(e * weights.get(n, 1) for n, e in m.pairs)

    for r in rules:
        lw = wdeg(r.lhs)
        for _, m in r.rhs.terms:
            if wdeg(m) >= lw:
                raise InputDataError(
                    f"rewrite rule {r.key()} is not strictly decreasing; "
                    "no termination order found"
                )
    return weights


# largest isqrt of a constant's or lead's num*den whose divisors
# `GradedRing._rational_root` lists (one trial division per d <= isqrt)
_ROOT_SEARCH_BUDGET = 10**6

# rewrite steps one normal form may take before RewriteDivergedError
DEFAULT_STEP_CAP = 10000

# generator names: a key joins names with "*", "^" and " + ", so a name
# holds none of these
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class GradedRing:
    """Named generators graded by an abelian group, plus rewrite and factor data.

    Generator names have the form [A-Za-z_][A-Za-z0-9_]*, so the keys of
    elements, which index factorizations, name each element once.

    ``declared_factorizations`` holds every factorization the ring knows,
    keyed by element: s = c^-1 * z^n for each rule z^n -> c*s with n > 1,
    and the declarations passed in, which win over a rule's for the same
    element.
    """

    def __init__(
        self,
        generators: Sequence[Tuple[str, GroupElement]],
        grading_group: FgAbelianGroup,
        scalar_order: CycOrder,
        rules: Sequence[RewriteRule] = (),
        declared_factorizations: Optional[Dict[str, Factorization]] = None,
        step_cap: int = DEFAULT_STEP_CAP,
        *,
        _carried: int = 0,
    ):
        self.generators = tuple((str(n), d) for n, d in generators)
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise InputDataError("duplicate generator names")
        for n, d in self.generators:
            if not _NAME.fullmatch(n):
                raise InputDataError(
                    f"generator name {n!r} is not of the form [A-Za-z_][A-Za-z0-9_]*")
            if not d.group.same_presentation(grading_group):
                raise InputDataError(f"degree of generator {n} lies outside the grading group")
        self.gen_degrees = {n: d for n, d in self.generators}
        self._gen_coords = {n: d.coords for n, d in self.generators}
        self.grading_group = grading_group
        self.scalar_order = scalar_order
        self.rules = tuple(rules)
        self._declared = dict(declared_factorizations or {})
        self.declared_factorizations = dict(
            filter(None, (r.root_factorization for r in self.rules)))
        self.declared_factorizations.update(self._declared)
        self.step_cap = int(step_cap)
        # the first _carried rules were checked in a ring this one carries
        # (see ``with_data``)
        for r in self.rules[_carried:]:
            self._check_rule(r)
        self.weights = _derive_weights(names, self.rules)
        # rules in order, keyed by the first generator of their lhs (None
        # for lhs 1): a rule can divide m only if its key occurs in m
        self._rules_by_head: Dict[Optional[str], list] = {}
        # generator -> least e of a rule z^e -> ... on that generator alone
        self._single_heads: Dict[str, int] = {}
        # (generator, k) -> nf(generator^k), filled by _reduce_powers
        self._power_nfs: Dict[Tuple[str, int], HomogeneousElement] = {}
        for i, r in enumerate(self.rules):
            head = r.lhs.pairs[0][0] if r.lhs.pairs else None
            self._rules_by_head.setdefault(head, []).append((i, r))
            if len(r.lhs.pairs) == 1:
                e = r.lhs.pairs[0][1]
                self._single_heads[head] = min(e, self._single_heads.get(head, e))

    # -- constructors -----------------------------------------------------

    def one(self) -> HomogeneousElement:
        return HomogeneousElement._of(((CycScalar.one(self.scalar_order), Monomial.one()),))

    def const(self, scalar: CycScalar) -> HomogeneousElement:
        return HomogeneousElement([(scalar, Monomial.one())])

    def gen(self, name: str) -> HomogeneousElement:
        if name not in self.gen_degrees:
            raise InputDataError(f"unknown generator {name!r}")
        return HomogeneousElement.monomial(self.scalar_order, Monomial.gen(name))

    def mono(self, exps: Dict[str, int], coeff=None) -> HomogeneousElement:
        m = Monomial(exps)
        self._check_names(m)
        return HomogeneousElement.monomial(self.scalar_order, m, coeff)

    def _check_names(self, m: Monomial):
        for n in m.names():
            if n not in self.gen_degrees:
                raise InputDataError(f"unknown generator {n!r} in monomial {m.key()}")

    def _check_rule(self, r: RewriteRule):
        self._check_names(r.lhs)
        lhs_el = HomogeneousElement.monomial(self.scalar_order, r.lhs)
        d1 = self.degree_of(lhs_el)
        if not r.rhs.is_zero():
            d2 = self.degree_of(r.rhs)
            if not (d1 == d2):
                raise InputDataError(f"rule {r.key()} is not degree-preserving")

    # -- graded structure ---------------------------------------------------

    def _degree_coords(self, m: Monomial) -> tuple:
        """Ambient coordinates of m's degree: its generators' degree vectors,
        each times its exponent, summed."""
        self._check_names(m)
        if not m.pairs:
            return (0,) * self.grading_group.ambient_rank
        coords = self._gen_coords
        return tuple(map(sum, zip(*(coords[n] if e == 1 else [e * c for c in coords[n]]
                                    for n, e in m.pairs))))

    def monomial_degree(self, m: Monomial) -> GroupElement:
        return GroupElement(self.grading_group, self._degree_coords(m))

    def degree_of(self, e: HomogeneousElement) -> GroupElement:
        """Common degree of all terms; raises on mixed-degree term lists.
        Classes are compared only where two terms' coordinates differ."""
        if e.is_zero():
            raise NotHomogeneousError("zero element has no degree")
        first, *rest = (self._degree_coords(m) for _, m in e.terms)
        d = GroupElement(self.grading_group, first)
        for coords in rest:
            if coords != first and GroupElement(self.grading_group, coords) != d:
                raise NotHomogeneousError(f"element {e.key()} is not homogeneous")
        return d

    # -- rewriting ------------------------------------------------------------

    def _first_rule(self, m: Monomial) -> Optional[Tuple[RewriteRule, int]]:
        """The first rule in ``self.rules`` order whose lhs divides m, with
        the largest k such that lhs^k divides m (1 for lhs 1); None if none."""
        exps = dict(m.pairs)
        best, best_i = None, len(self.rules)
        for head in (*exps, None):
            for i, r in self._rules_by_head.get(head, ()):
                if i >= best_i:
                    break
                if all(exps.get(n, 0) >= k for n, k in r.lhs.pairs):
                    best, best_i = r, i
                    break
        if best is None:
            return None
        pairs = best.lhs.pairs
        if len(pairs) == 1:  # a root rule z^n -> s, the common case
            return best, exps[pairs[0][0]] // pairs[0][1]
        return best, min((exps[n] // k for n, k in pairs), default=1)

    def normal_form(self, e: HomogeneousElement) -> HomogeneousElement:
        """Apply rewrite rules to a fixpoint.

        Each step rewrites the reducible term m that comes first in
        ``Monomial.sort_key`` order with the first rule l -> r, in
        ``self.rules`` order, whose lhs divides it, and replaces m by
        r^k * m / l^k, with l^k the largest power of l that divides m.  A
        step is k one-step rewrites, so the result is a normal form in the
        usual sense; on a confluent ring (see ``nonjoinable_pair``) it is
        the unique one, and elements are equal exactly when their normal
        forms are.  Raises ``RewriteDivergedError`` after ``step_cap``
        steps, with the last ten steps as its trace.
        """
        return self._rewrite(e, self.step_cap)

    def _rewrite(self, e: HomogeneousElement, step_cap: int) -> HomogeneousElement:
        """``normal_form`` under the given step budget.

        A one-term element stays in locals (c, m and its first rule) for
        as long as each rule applied has a one-term right side, as a root
        rule z^n -> monomial has; the terms move into ``terms`` and the
        heap of reducible terms once a rewrite makes a second term (or
        none).  The steps are the same either way."""
        if not self.rules:
            return e
        first_rule = self._first_rule
        terms = heap = None
        if len(e.terms) == 1:
            (c, m), = e.terms
            hit = first_rule(m)
            if hit is None:
                return e
        else:
            terms = {m: c for c, m in e.terms}
            heap = []
            # a cancelled monomial can come back and be queued twice; seq
            # breaks that sort_key tie before the unordered Monomials are
            # compared
            seq = count()
            for m in terms:
                hit = first_rule(m)
                if hit is not None:
                    heap.append((m.sort_key(), next(seq), m, hit))
            if not heap:
                return e
            heapify(heap)
        steps = 0
        trace = deque(maxlen=10)
        while True:
            if terms is not None:
                if not heap:
                    break
                _, _, m, hit = heappop(heap)
                c = terms.pop(m, None)
                if c is None:
                    continue  # cancelled since it was queued
            r, k = hit
            steps += 1
            if steps > step_cap:
                raise RewriteDivergedError(
                    f"rewriting diverged after {step_cap} steps",
                    [f"{tm.key()} by {tr.key()}" for tm, tr in trace],
                )
            trace.append((m, r))
            lhs, rhs = r.power(k) if k > 1 else (r.lhs, r.rhs)
            cof = m.div(lhs)
            if terms is None:
                if len(rhs.terms) == 1:
                    (a, mr), = rhs.terms
                    c, m = c * a, mr * cof
                    hit = first_rule(m)
                    if hit is None:
                        return HomogeneousElement._of(((c, m),))
                    continue
                terms, heap, seq = {}, [], count()
            for a, mr in rhs.terms:
                nm = mr * cof
                ca = c * a
                old = terms.get(nm)
                if old is None:
                    terms[nm] = ca
                    hit = first_rule(nm)
                    if hit is not None:
                        heappush(heap, (nm.sort_key(), next(seq), nm, hit))
                else:
                    ca = old + ca
                    if ca.is_zero():
                        del terms[nm]
                    else:
                        terms[nm] = ca
        return HomogeneousElement((c, m) for m, c in terms.items())

    def nonjoinable_pair(self) -> Optional[Tuple[RewriteRule, RewriteRule, HomogeneousElement]]:
        """The first critical pair (r1, r2, rest) that does not join, or None.

        For rules l1 -> r1 and l2 -> r2 whose left sides share a generator,
        with L = lcm(l1, l2), the pair joins when r1 * L/l1 - r2 * L/l2
        normalizes to zero; ``rest`` is what it normalizes to.  Pairs with
        coprime left sides join by Buchberger's product criterion.  Every
        left side leads under any admissible refinement of the termination
        weights, so by Buchberger's criterion (equivalently, Newman's lemma)
        the rules are confluent exactly when every pair joins.  The
        criterion holds for any fixed reduction strategy, so the pairs are
        normalized by ``normal_form``'s whole-power steps.

        The pairs are normalized under ``DEFAULT_STEP_CAP`` steps, whatever
        this ring's own cap; a pair that exceeds that budget counts as not
        joining, and ``rest`` is then its unnormalized difference.
        """
        sharing = set()
        by_name: Dict[str, list] = {}
        for j, r in enumerate(self.rules):
            for n, _ in r.lhs.pairs:
                sharing.update((i, j) for i in by_name.get(n, ()))
                by_name.setdefault(n, []).append(j)
        for i, j in sorted(sharing):
            r1, r2 = self.rules[i], self.rules[j]
            l1 = dict(r1.lhs.pairs)
            lcm = Monomial({**l1, **{n: max(k, l1.get(n, 0)) for n, k in r2.lhs.pairs}})
            rest = (r1.rhs * HomogeneousElement.monomial(self.scalar_order, lcm.div(r1.lhs))
                    - r2.rhs * HomogeneousElement.monomial(self.scalar_order, lcm.div(r2.lhs)))
            try:
                rest = self._rewrite(rest, DEFAULT_STEP_CAP)
            except RewriteDivergedError:
                return r1, r2, rest
            if not rest.is_zero():
                return r1, r2, rest
        return None

    def elements_equal(self, a: HomogeneousElement, b: HomogeneousElement) -> bool:
        """Whether a = b in the ring, by one ``normal_form`` of a - b after
        its products are reduced power by power.

        A term c*m of a - b whose monomial has two or more powers z^k that
        a rule z^e -> ... on z alone reduces (k >= e) is replaced by acc,
        built from acc = c * (the rest of m) as acc = nf(acc * nf(z^k)),
        one power at a time; other terms are kept.  Normal forms of a whole
        product rewrite a monomial again whenever a new contribution to it
        arrives after it was taken, which grows about as 2^(number of
        rooted factors) on a product of chained roots.

        Hypothesis: the rules are confluent, as every ring the engine
        builds is and as rings read from documents are checked to be at
        parse.  Normal forms are then unique and respect products,
        nf(a*b) = nf(nf(a)*nf(b)) (Baader-Nipkow, Term Rewriting and All
        That, 1998, ch. 2 and 8), so the verdict is that of
        ``normal_form(a - b).is_zero()``.  Each normal form taken runs
        under ``step_cap`` on its own, so a comparison can succeed where
        one normal form of the whole difference would exceed the cap.
        """
        return self.normal_form(self._reduce_powers(a - b)).is_zero()

    def _reduce_powers(self, e: HomogeneousElement) -> HomogeneousElement:
        """e with each term of two or more reducible generator powers
        normalized power by power (see ``elements_equal``), each nf(z^k)
        taken once per ring."""
        heads = self._single_heads
        if not heads:
            return e
        terms, split = [], False
        for c, m in e.terms:
            if len(m.pairs) > 1:
                powers = [(n, k) for n, k in m.pairs if k >= heads.get(n, k + 1)]
                if len(powers) > 1:
                    acc = HomogeneousElement._of(((c, Monomial._of(
                        tuple(p for p in m.pairs if p not in powers))),))
                    for n, k in powers:
                        z = self._power_nfs.get((n, k))
                        if z is None:
                            z = self._power_nfs[n, k] = self.normal_form(
                                HomogeneousElement.monomial(self.scalar_order, Monomial.gen(n, k)))
                        acc = self.normal_form(acc * z)
                    terms.extend(acc.terms)
                    split = True
                    continue
            terms.append((c, m))
        return HomogeneousElement(terms) if split else e

    # -- factorization ----------------------------------------------------------

    def _declared_for(self, e: HomogeneousElement) -> Optional[Factorization]:
        return self.declared_factorizations.get(e.key())

    def h_factorize(self, e: HomogeneousElement) -> Factorization:
        """Factor into h-irreducibles via the backend cascade.

        Backends: declared factorizations, single-term splitting into
        generator powers, and univariate splitting by rational roots plus
        square-free parts (total degree at most 8).  Each factor is
        monic, its own normal form (declared factors are normalized when
        queued) and re-factors as 1 * f^1, since the lookups that settled
        it run again in the same order; the residual scalar is the unit.
        """
        e = self.normal_form(e)
        if e.is_zero():
            raise InputDataError("cannot factor zero")
        self.degree_of(e)
        lead_c, _ = e.leading()
        unit = lead_c
        core = e.scale(lead_c.inverse())
        factors: Dict[str, Tuple[HomogeneousElement, int]] = {}

        def settle(f, mult):
            key = f.key()
            if key in factors:
                g, k = factors[key]
                factors[key] = (g, k + mult)
            else:
                factors[key] = (f, mult)

        queue = [(core, 1)]
        guard = 0
        while queue:
            guard += 1
            if guard > 1000:
                raise InputDataError(
                    "factor refinement did not terminate; declared factorizations loop"
                )
            f, mult = queue.pop()
            if f.is_zero():
                raise InternalInvariantError("zero slipped into factor refinement")
            lc, _ = f.leading()
            if not (lc == CycScalar.one(self.scalar_order)):
                unit = unit * (lc ** mult)
                f = f.scale(lc.inverse())
            if len(f.terms) == 1 and f.terms[0][1].is_one():
                continue  # pure scalar, absorbed into the unit
            decl = self._declared_for(f)
            if decl is not None and not self._is_trivial_declaration(f, decl):
                unit = unit * (decl.unit ** mult)
                for g, k in decl.factors:
                    queue.append((self.normal_form(g), k * mult))
                continue
            if len(f.terms) == 1:
                _, m = f.terms[0]
                if len(m.pairs) == 1 and m.pairs[0][1] == 1:
                    settle(f, mult)
                    continue
                for name, exp in m.pairs:
                    queue.append((self.gen(name), exp * mult))
                continue
            support = f.support()
            if len(support) == 1 and max(m.total_degree() for _, m in f.terms) == 1:
                settle(f, mult)  # linear in one generator: irreducible
                continue
            split = self._univariate_split(f)
            if split is None:
                raise FactorizationOracleRequired(
                    f"factorization oracle required for {f.key()}"
                )
            u2, parts = split
            unit = unit * (u2 ** mult)
            for g, k in parts:
                queue.append((g, k * mult))
        fact = Factorization(unit, tuple(sorted(factors.values(), key=lambda t: t[0].key())))
        return fact

    def _is_trivial_declaration(self, f: HomogeneousElement, decl: Factorization) -> bool:
        # a declaration of f as itself must not loop the refinement
        return (
            len(decl.factors) == 1
            and decl.factors[0][1] == 1
            and decl.factors[0][0] == f
            and decl.unit == CycScalar.one(self.scalar_order)
        )

    def _poly_from_coeffs(self, name: str, coeffs) -> HomogeneousElement:
        terms = []
        for i, c in enumerate(coeffs):
            if not c.is_zero():
                terms.append((c, Monomial.gen(name, i) if i else Monomial.one()))
        return HomogeneousElement(terms)

    def _univariate_split(self, f: HomogeneousElement):
        """Split a polynomial in a single generator; None when out of scope."""
        names = f.support()
        if len(names) != 1:
            return None
        (name,) = names
        deg = max(m.total_degree() for _, m in f.terms)
        if deg > 8:
            return None
        coeffs = [CycScalar.zero(self.scalar_order) for _ in range(deg + 1)]
        for c, m in f.terms:
            coeffs[m.total_degree()] = c
        parts = []
        unit = one = CycScalar.one(self.scalar_order)
        # strip the monomial content first
        low = next(i for i, c in enumerate(coeffs) if not c.is_zero())
        if low:
            parts.append((self.gen(name), low))
            coeffs = coeffs[low:]
        while len(coeffs) > 2 and all(c.is_rational() for c in coeffs):
            # the rational-root theorem bounds the roots of an integer
            # polynomial, so clear the denominators first
            scale = CycScalar.from_rational(
                self.scalar_order, math.lcm(*(c.rational_value().denominator for c in coeffs)))
            root = self._rational_root([c * scale for c in coeffs])
            if root is None:
                break
            coeffs, rem = _pdivmod(coeffs, (-root, one))
            if rem:
                raise InternalInvariantError("deflation by a non-root")
            parts.append((self._poly_from_coeffs(name, (-root, one)), 1))
        if len(coeffs) == 2:
            lead = coeffs[1]
            unit = unit * lead
            parts.append((self._poly_from_coeffs(name, (coeffs[0] * lead.inverse(), one)), 1))
            return unit, parts
        # square-free split: gcd with the derivative peels repeated factors
        deriv = [
            CycScalar.from_rational(self.scalar_order, i) * coeffs[i]
            for i in range(1, len(coeffs))
        ]
        g = _pgcd(coeffs, deriv)
        if 1 < len(g) < len(coeffs):
            q, r = _pdivmod(coeffs, g)
            if r:
                raise InternalInvariantError("square-free division left a remainder")
            parts.append((self._poly_from_coeffs(name, g), 1))
            parts.append((self._poly_from_coeffs(name, q), 1))
            return unit, parts
        if parts and len(coeffs) > 2:
            # partial progress: keep the residual for declared-data lookup
            residual = self._poly_from_coeffs(name, coeffs)
            if self._declared_for(residual) is not None:
                parts.append((residual, 1))
                return unit, parts
        return None

    def _rational_root(self, coeffs):
        from fractions import Fraction

        lead = coeffs[-1].rational_value()
        # nonzero: ``_univariate_split`` strips the monomial content, and
        # deflating by t - r with r != 0 keeps the constant nonzero
        const = coeffs[0].rational_value()

        def divisors(n):
            """Positive divisors of n > 0, ascending, pairing each d <= sqrt(n) with n/d."""
            small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
            return small + [n // d for d in reversed(small) if d * d != n]

        sizes = [abs(c.numerator * c.denominator) for c in (lead, const)]
        if math.isqrt(max(sizes)) > _ROOT_SEARCH_BUDGET:
            raise FactorizationOracleRequired(
                f"factorization oracle required: the rational-root search over the "
                f"divisors of {max(sizes)} exceeds its budget"
            )
        values = [c.rational_value() for c in reversed(coeffs)]
        qs = divisors(sizes[0])
        for p in divisors(sizes[1]):
            for q in qs:
                for sign in (1, -1):
                    cand = Fraction(sign * p, q)
                    val = Fraction(0)
                    for c in values:
                        val = val * cand + c
                    if val == 0:
                        return CycScalar.from_rational(self.scalar_order, cand)
        return None

    def verify_factorization(self, e: HomogeneousElement, fact: Factorization):
        """Check that fact multiplies out to e, possibly only after p-th powers.

        The two sides match directly when their normal forms are equal.
        Otherwise the candidate powers p are 2 to 8 and the total degree of
        every rule's left side above 1, in increasing order; the first p
        at which the p-th powers agree modulo the rules is a match.  Powers
        are compared because the ring need not be a domain: in the scratch
        ring where declarations are checked, v^3 = (z1*z2)^3 holds in mu3,
        but v - zeta*z1*z2 reduces to 0 only once the declaration is a rule.
        Returns (ok, power, diagnostic); power records the exponent at which
        the two sides became comparable (1 for a direct match).
        """
        lhs = self.normal_form(e)
        rhs = self.normal_form(fact.expand())
        if lhs == rhs:
            return True, 1, "direct match"
        candidates = sorted(
            {r.lhs.total_degree() for r in self.rules if r.lhs.total_degree() > 1}
            | {2, 3, 4, 5, 6, 7, 8}
        )
        for p in candidates:
            if self.normal_form(lhs ** p - rhs ** p).is_zero():
                return True, p, f"matched after raising both sides to the power {p}"
        return False, 0, (
            f"product {rhs.key()} does not reproduce {lhs.key()}, even up to powers"
        )

    # -- extension builders -------------------------------------------------

    def with_data(
        self,
        generators=None,
        grading_group=None,
        rules=None,
        declared_factorizations=None,
    ) -> "GradedRing":
        """This ring with the given parts replaced, every rule checked to be
        degree-preserving, except those carried from this ring.

        The rules are carried when the new rule tuple begins with this
        ring's rules (the same objects), every generator of this ring keeps
        its name and its degree coordinates (zero-padded to the new ambient
        rank), and the new group's relation rows begin with this group's
        rows (zero-padded).  Padding then maps this group's relation lattice
        into the new one, so the coordinate inclusion is a homomorphism of
        the grading groups that sends each generator's degree to its degree
        in the new ring.  A rule of this ring, degree-preserving here and
        over this ring's generators, stays so in the new ring, and only the
        rules after them are checked.  Otherwise every rule is checked, as
        ``GradedRing(...)`` does.
        """
        generators = self.generators if generators is None else tuple(generators)
        group = self.grading_group if grading_group is None else grading_group
        rules = self.rules if rules is None else tuple(rules)
        return GradedRing(
            generators, group, self.scalar_order, rules,
            declared_factorizations
            if declared_factorizations is not None
            else self._declared,
            self.step_cap,
            _carried=len(self.rules) if self._carries(generators, group, rules) else 0,
        )

    def _carries(self, generators, group: FgAbelianGroup, rules) -> bool:
        """The carry condition of ``with_data``."""
        old = self.grading_group
        extra = group.ambient_rank - old.ambient_rank
        if extra < 0 or len(rules) < len(self.rules):
            return False
        if any(a is not b for a, b in zip(rules, self.rules)):
            return False
        pad = (0,) * extra
        if group is not old and (
                group.relations.rows < old.relations.rows
                or any(r + pad != n for r, n in zip(old.relations.entries,
                                                     group.relations.entries))):
            return False
        new = {str(n): d.coords for n, d in generators}
        return all(new.get(n) == c + pad for n, c in self._gen_coords.items())
