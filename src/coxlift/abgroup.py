"""Exact integer linear algebra and finitely generated abelian groups.

A group is presented by an ambient free group Z^n together with a matrix
whose rows are relations.  The Smith normal form of the relation matrix
canonicalizes the presentation: elements compare modulo the relation
lattice, and two groups are equal exactly when their canonical forms
(free rank plus invariant-factor chain) agree.

A ``Subgroup`` holds the Smith form of [generators; relations], computed
once, when its first query needs it.  Every membership test,
coefficient vector and relation lattice asked of that subgroup is a
back-substitution through this one form, so a lift step that asks many
questions about one subgroup factors its matrix once.  The quotient by
the subgroup keeps its own Smith form of [relations; generators], built
on first use: the V of that form fixes the quotient's canonical
generators, and through them which class the lift roots next, so
sharing one form between the two would change result documents.

Congruences M x = b over Z/n (n prime or composite) have one solver, an
echelon form of (M, -b) over Z/n with Howell's span property: the rows
from column j on span every consequence of the system that is zero
before column j.  With the unknowns in reverse order and the constant
column last, one pass gives consistency, the lexicographically smallest
solution and the number of homogeneous solutions.  Every entry stays
below n, and no Smith form is taken.

All arithmetic is arbitrary-precision; nothing here is approximate.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputDataError, InternalInvariantError


class IntMatrix:
    """Immutable rectangular matrix of Python ints."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: Optional[int] = None):
        rows = tuple(tuple(int(x) for x in r) for r in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise InputDataError("matrix rows have unequal lengths")
            if cols is not None and cols != ncols:
                raise InputDataError("explicit column count contradicts row data")
        else:
            if cols is None:
                raise InputDataError("empty matrix needs an explicit column count")
            ncols = cols
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _computed(cls, rows, cols: int) -> "IntMatrix":
        """A matrix of int rows that this module computed: no re-validation."""
        M = object.__new__(cls)
        object.__setattr__(M, "entries", tuple(map(tuple, rows)))
        object.__setattr__(M, "rows", len(rows))
        object.__setattr__(M, "cols", cols)
        return M

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("IntMatrix is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))!r}, cols={self.cols})"

    def vec_mul(self, vec: Sequence[int]) -> tuple:
        """Row vector times this matrix."""
        if len(vec) != self.rows:
            raise InputDataError("vector length mismatch")
        if not self.rows:
            return (0,) * self.cols
        return tuple(sum(map(operator.mul, vec, col)) for col in zip(*self.entries))

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def smith_normal_form_full(M: IntMatrix, track=("U", "V", "Vinv")):
    """Return (S, U, V, Vinv) with U*M*V = S in Smith normal form.

    S is diagonal with a divisibility chain d1 | d2 | ... ; U and V are
    unimodular, and the exact inverse of V is tracked alongside.  Only the
    transforms named in ``track`` are computed; an untracked one comes
    back as a matrix with no rows.  The elimination never reads a
    transform, so S and every tracked transform are the same whatever is
    tracked.  ``FgAbelianGroup`` reads V and Vinv, and ``Subgroup`` reads U
    and V.

    The pivot is the first entry of least absolute value in the trailing
    block, so its search stops at the first entry of absolute value 1, and
    a pivot 1 divides the whole block without a scan.
    """
    m, n = M.rows, M.cols
    A = [list(r) for r in M.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)] if "U" in track else []
    V = [[int(i == j) for j in range(n)] for i in range(n)] if "V" in track else []
    Vi = [[int(i == j) for j in range(n)] for i in range(n)] if "Vinv" in track else []

    def row_add(i, j, c):  # row i += c * row j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        if U:
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if U:
            U[i], U[j] = U[j], U[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        if U:
            U[i] = [-a for a in U[i]]

    def col_add(j, i, c):  # col j += c * col i
        for r in A:
            r[j] += c * r[i]
        for r in V:
            r[j] += c * r[i]
        if Vi:
            Vi[i] = [a - c * b for a, b in zip(Vi[i], Vi[j])]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        if Vi:
            Vi[i], Vi[j] = Vi[j], Vi[i]

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal absolute value in the trailing block
        piv, best = None, None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        if A[t][t] < 0:
            row_neg(t)
        while True:
            moved = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:  # 0 < remainder < pivot: the new pivot is positive
                        row_swap(t, i)
                        moved = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        moved = True
            if moved:
                continue
            if A[t][t] == 1:
                break
            # pivot must divide the whole trailing block for the chain
            bad = None
            for i in range(t + 1, m):
                if any(A[i][j] % A[t][t] for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1

    return (
        IntMatrix._computed(A, n),
        IntMatrix._computed(U, m),
        IntMatrix._computed(V, n),
        IntMatrix._computed(Vi, n),
    )


class FgAbelianGroup:
    """Finitely generated abelian group Z^n / (row span of relations)."""

    def __init__(self, ambient_rank: int, relations: Iterable[Sequence[int]] = ()):
        if ambient_rank < 0:
            raise InputDataError(f"ambient rank must be nonnegative, got {ambient_rank}")
        self.ambient_rank = int(ambient_rank)
        self.relations = IntMatrix(relations, cols=self.ambient_rank)
        S, _, V, Vi = smith_normal_form_full(self.relations, track=("V", "Vinv"))
        self._Vinv = Vi
        diag = S.diagonal()
        self.moduli = tuple(
            diag[j] if j < len(diag) else 0 for j in range(self.ambient_rank)
        )
        # (slot, column of V, modulus) for every slot whose modulus is not 1
        self._live_columns = tuple(
            (j, tuple(row[j] for row in V.entries), d)
            for j, d in enumerate(self.moduli)
            if d != 1
        )
        self.invariants = tuple(d for d in self.moduli if d not in (0, 1))
        self.free_rank = sum(1 for d in self.moduli if d == 0)

    # -- canonical data ------------------------------------------------

    @property
    def canonical_form(self):
        return (self.free_rank, self.invariants)

    def __eq__(self, other):
        return (
            isinstance(other, FgAbelianGroup)
            and self.canonical_form == other.canonical_form
        )

    def __hash__(self):
        return hash(self.canonical_form)

    def same_presentation(self, other: "FgAbelianGroup") -> bool:
        return self is other or (
            self.ambient_rank == other.ambient_rank
            and self.relations == other.relations
        )

    def __repr__(self):
        return f"FgAbelianGroup({self.describe()})"

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariants]
        return " x ".join(parts) if parts else "0"

    # -- elements ------------------------------------------------------

    def element(self, coords: Sequence[int]) -> "GroupElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ambient_rank:
            raise InputDataError(
                f"element has {len(coords)} coordinates, group ambient rank is {self.ambient_rank}"
            )
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.ambient_rank)

    def basis_element(self, i: int) -> "GroupElement":
        """Class of the i-th ambient basis vector."""
        return self.element(tuple(int(j == i) for j in range(self.ambient_rank)))

    def canonical_coords(self, coords: Sequence[int]) -> tuple:
        """coords * V with slot j reduced mod the j-th modulus (0: free).

        A slot of modulus 1 is always 0, so its column is not multiplied out.
        """
        if len(coords) != self.ambient_rank:
            raise InputDataError("vector length mismatch")
        y = [0] * self.ambient_rank
        for j, col, d in self._live_columns:
            v = sum(map(operator.mul, coords, col))
            y[j] = v % d if d else v
        return tuple(y)

    def from_canonical(self, ycoords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, self._Vinv.vec_mul(ycoords))

    def canonical_generator(self, slot: int) -> "GroupElement":
        y = [0] * self.ambient_rank
        y[slot] = 1
        return self.from_canonical(y)

    # -- global invariants ----------------------------------------------

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        if not self.is_finite():
            return None
        return math.prod(self.invariants) if self.invariants else 1

    def exponent(self) -> int:
        if not self.is_finite():
            raise InputDataError("exponent of an infinite group")
        return math.lcm(*self.invariants) if self.invariants else 1


class GroupElement:
    """Ambient coordinates interpreted modulo the group's relation lattice."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbelianGroup, coords: tuple):
        self.group = group
        self.coords = coords

    def _check(self, other: "GroupElement"):
        if not self.group.same_presentation(other.group):
            raise InputDataError("elements of differently presented groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __rmul__(self, k: int):
        return GroupElement(self.group, tuple(int(k) * a for a in self.coords))

    def canonical(self) -> tuple:
        return self.group.canonical_coords(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical())

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._check(other)
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"GroupElement{self.coords}"


def element_order(G: FgAbelianGroup, g: GroupElement) -> Optional[int]:
    """Least n >= 1 with n*g = 0, or None when g has infinite order."""
    y = g.canonical()
    n = 1
    for j, c in enumerate(y):
        d = G.moduli[j]
        if d == 0:
            if c != 0:
                return None
        elif c % d:
            n = math.lcm(n, d // math.gcd(d, c % d))
    return n


class GroupHomomorphism:
    """Homomorphism given by images of the domain's ambient generators.

    The images are kept as the columns of an integer matrix as well, so
    applying the map to ambient coordinates is one matrix-vector product.
    Construction fails unless every domain relation maps to zero, so a
    successfully built instance is well defined on the quotient.
    """

    def __init__(self, domain: FgAbelianGroup, codomain: FgAbelianGroup,
                 images: Sequence[GroupElement]):
        images = tuple(images)
        if len(images) != domain.ambient_rank:
            raise InputDataError("homomorphism needs one image per ambient generator")
        for img in images:
            if not img.group.same_presentation(codomain):
                raise InputDataError("homomorphism image lies in the wrong group")
        # column j: the j-th ambient coordinate of every image
        self._columns = tuple(tuple(img.coords[j] for img in images)
                              for j in range(codomain.ambient_rank))
        for row in domain.relations.entries:
            if any(codomain.canonical_coords(self._apply(row))):
                raise InputDataError(
                    f"relation {list(row)} does not map to zero; not a homomorphism"
                )
        self.domain = domain
        self.codomain = codomain
        self.images = images

    def _apply(self, coords: Sequence[int]) -> tuple:
        """Ambient coordinates of the image of the given domain coordinates."""
        return tuple(sum(map(operator.mul, coords, col)) for col in self._columns)

    def __call__(self, g: GroupElement) -> GroupElement:
        if not g.group.same_presentation(self.domain):
            raise InputDataError("element not in the homomorphism's domain")
        return GroupElement(self.codomain, self._apply(g.coords))


def coordinate_inclusion(A: FgAbelianGroup, B: FgAbelianGroup) -> GroupHomomorphism:
    """The map A -> B sending each ambient generator of A to the generator of
    B with the same index; B's extra ambient coordinates are set to zero.

    Construction checks that A's relations hold in B.
    """
    if B.ambient_rank < A.ambient_rank:
        raise InputDataError("coordinate inclusion into a smaller ambient rank")
    return GroupHomomorphism(A, B, [B.basis_element(i) for i in range(A.ambient_rank)])


# ---------------------------------------------------------------------------
# Integer linear solving


def _back_substitute(diag: Sequence[int], U: IntMatrix, V: IntMatrix,
                     target: Sequence[int]) -> Optional[list]:
    """x with x * M = target, from U * M * V = S (diagonal diag), or None.

    x * M = target iff y * S = target * V for y = x * U^-1; the free
    entries of y are set to 0.
    """
    c = V.vec_mul(target)
    y = [0] * U.rows
    for j, cj in enumerate(c):
        d = diag[j] if j < len(diag) else 0
        if d:
            if cj % d:
                return None
            y[j] = cj // d
        elif cj:
            return None
    return list(U.vec_mul(y))


def _kernel_rows(diag: Sequence[int], U: IntMatrix) -> list:
    """Rows of U that S = U * M * V sends to zero: a basis of the row kernel of M."""
    return [list(U.entries[j]) for j in range(U.rows) if j >= len(diag) or not diag[j]]


def relation_basis(vectors: Sequence[Sequence[int]]) -> list:
    """Sparse basis rows {i: a_i} of { a : sum_i a_i * vectors[i] = 0 }.

    The vectors are walked in order.  An echelon form (positive pivots,
    rising pivot columns) is kept of the set B of vectors that were not in
    the span of those before them, each echelon row with its coefficients
    over B.  A vector v is reduced by exact multiples of the echelon rows
    while its pivot entries divide; then v = sum_b x_b * vectors[b], and it
    gives the row e_v - x_v.  At the first entry that does not divide, v is
    outside the span and joins B: an extended-gcd step replaces the echelon
    row and v by two unimodular combinations of them, one leading with the
    gcd, and the other, zero there, is reduced further.  If that leaves it
    zero, its coefficients are a relation among B.

    Every step is unimodular on the coefficient vectors, so the echelon
    rows and the rows returned together form a basis of Z^len(vectors).
    The echelon rows are independent, so the rows returned span the
    relations: a relation a minus sum_v a_v (e_v - x_v) over the vectors
    in the span is a relation on B, and those are spanned by B's rows.
    Each row holds only nonzero entries, and the cost is one pass over the
    echelon form per vector, which has at most as many rows as the columns.
    """
    echelon = []  # [pivot column, vector, coefficients], by pivot column
    out = []
    for k, v in enumerate(vectors):
        vec, co, pos = list(v), {k: 1}, 0
        while True:
            lead = next((j for j, x in enumerate(vec) if x), None)
            if lead is None:
                out.append(co)
                break
            while pos < len(echelon) and echelon[pos][0] < lead:
                pos += 1
            if pos == len(echelon) or echelon[pos][0] > lead:
                if vec[lead] < 0:
                    vec, co = [-e for e in vec], {i: -c for i, c in co.items()}
                echelon.insert(pos, [lead, vec, co])
                break
            _, rvec, rco = echelon[pos]
            a, b = rvec[lead], vec[lead]
            if b % a:
                g, s, t = _xgcd(a, abs(b))
                t = t if b > 0 else -t
                echelon[pos][1:] = _combine(rvec, rco, s, vec, co, t)
                vec, co = _combine(vec, co, a // g, rvec, rco, -(b // g))
            else:
                vec, co = _combine(vec, co, 1, rvec, rco, -(b // a))
    return out


def _combine(vec, co, x, vec2, co2, y):
    """x * (vec, co) + y * (vec2, co2), without the coefficients that are 0."""
    out = {i: x * c for i, c in co.items()}
    for i, c in co2.items():
        out[i] = out.get(i, 0) + y * c
    return [x * e + y * f for e, f in zip(vec, vec2)], {i: c for i, c in out.items() if c}


def quotient_group(G: FgAbelianGroup, subgroup_gens: Sequence[GroupElement]):
    """Quotient of G by the subgroup the given elements generate."""
    rows = [list(r) for r in G.relations.entries] + [list(g.coords) for g in subgroup_gens]
    Q = FgAbelianGroup(G.ambient_rank, rows)
    return Q, coordinate_inclusion(G, Q)


class Subgroup:
    """The subgroup K of G generated by ``gens``, with its Smith data.

    The Smith form of M = [gens; G.relations] is computed once, when the
    first query needs it.  Coefficients (None for a non-member) and the
    relation lattice of the generators are then each one back-substitution
    through it.  The quotient G/K is built on first use by ``quotient_group``,
    which factors [G.relations; gens] itself (see the module docstring).
    """

    def __init__(self, G: FgAbelianGroup, gens: Sequence[GroupElement]):
        self.group = G
        self.gens = tuple(gens)
        self._quotient = None

    @cached_property
    def _smith(self):
        """(diagonal of S, U, V) with U * M * V = S."""
        rows = [g.coords for g in self.gens] + list(self.group.relations.entries)
        S, U, V, _ = smith_normal_form_full(IntMatrix(rows, cols=self.group.ambient_rank),
                                            track=("U", "V"))
        return S.diagonal(), U, V

    def express(self, target: GroupElement) -> Optional[list]:
        """Integer coefficients x with sum x_i * gens_i = target in G, or None."""
        sol = _back_substitute(*self._smith, target.coords)
        return None if sol is None else sol[: len(self.gens)]

    def relations(self) -> list:
        """Rows generating { c : sum c_i * gens_i = 0 in G }."""
        diag, U, _ = self._smith
        return [row[: len(self.gens)] for row in _kernel_rows(diag, U)]

    def abstract(self) -> FgAbelianGroup:
        """K presented on len(gens) generators, the i-th standing for gens[i]."""
        return FgAbelianGroup(len(self.gens), self.relations())

    def quotient(self):
        """(G/K, the projection G -> G/K), as ``quotient_group`` returns them."""
        if self._quotient is None:
            self._quotient = quotient_group(self.group, self.gens)
        return self._quotient


def pushout_root(A: FgAbelianGroup, a: GroupElement, n: int):
    """Adjoin an n-th root of a: A' = (A + Z) / Z*(a, -n).

    Returns (A', incl, delta) with incl : A -> A' the canonical map and
    delta the class of the new generator, so n*delta = incl(a).
    """
    if n < 1:
        raise InputDataError("root order must be positive")
    if not a.group.same_presentation(A):
        raise InputDataError("root class must lie in the given group")
    old = [list(r) + [0] for r in A.relations.entries]
    old.append(list(a.coords) + [-n])
    A2 = FgAbelianGroup(A.ambient_rank + 1, old)
    incl = coordinate_inclusion(A, A2)
    delta = A2.basis_element(A.ambient_rank)
    if not (n * delta == incl(a)):
        raise InternalInvariantError("pushout failed its defining identity")
    return A2, incl, delta


# ---------------------------------------------------------------------------
# Linear algebra over Z/n


def _xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _echelon_mod(rows, ncols: int, n: int) -> list:
    """Howell rows H[0..ncols-1] of the lattice spanned by ``rows`` and n*Z^ncols.

    H[j] is zero before column j, and H[j][j] divides n (it is n when the
    column has no pivot).  Column j folds every pending row into one row h
    leading with g = gcd(n, column j), reduces the others by h, and adds
    back (n/g)*h mod n, the part of n*e_j that the fold loses.  So H[j:]
    spans every lattice vector that is zero before column j.
    """
    pending = [[x % n for x in r] for r in rows]
    H = []
    for j in range(ncols):
        h, g = [0] * ncols, n
        for r in pending:
            if r[j]:
                g, s, t = _xgcd(g, r[j])
                h = [(s * a + t * b) % n for a, b in zip(h, r)]
        h[j] = g
        pending = [[(a - r[j] // g * b) % n for a, b in zip(r, h)] for r in pending]
        pending = [r for r in pending + [[n // g * b % n for b in h]] if any(r)]
        H.append(h)
    return H


def _solve_mod(rows, rhs, ncols: int, n: int):
    """(lex-min x in [0, n)^ncols with M x = rhs mod n, or None; #{x : M x = 0}).

    (M, -rhs) is echelonized with the unknowns in reverse order and the
    constant column last, so the rows from the one leading at x_i on hold
    every consequence of the system for x_0..x_i.  The system is
    consistent iff the constant column has no pivot.  Each x_i is then
    the least residue that satisfies its leading row, given x_0..x_(i-1).
    """
    H = _echelon_mod([list(r[::-1]) + [-b] for r, b in zip(rows, rhs)], ncols + 1, n)
    count = math.prod(H[j][j] for j in range(ncols))
    if H[ncols][ncols] != n:
        return None, count
    x = []
    for j in range(ncols - 1, -1, -1):  # column j holds x_(ncols-1-j)
        row, lead = H[j], H[j][j]
        r = -(row[ncols] + sum(row[k] * x[ncols - 1 - k] for k in range(j + 1, ncols)))
        x.append((r // lead) % (n // lead))
    return tuple(x), count


def solve_affine_mod_p(rows, rhs, ncols, p):
    """Lexicographically smallest solution of M x = rhs over Z/p, or None."""
    return _solve_mod(rows, rhs, ncols, p)[0]


def solve_affine_mod_n(rows, rhs, ncols, n):
    """Lex-min solution of M x = rhs over Z/n (n arbitrary >= 1), or None."""
    return _solve_mod(rows, rhs, ncols, n)[0]


def solve_linear_over_group(G: FgAbelianGroup, equations):
    """Element d of G with k*d = t for every (k, t) pair, or None.

    The canonical decomposition makes the solve slotwise; ties are broken
    by the lexicographically smallest canonical coordinate vector.
    """
    eqs = [(int(k), t.canonical()) for k, t in equations]
    ycoords = []
    for slot in range(G.ambient_rank):
        m = G.moduli[slot]
        if m == 1:
            ycoords.append(0)
            continue
        if m == 0:
            val = None
            for k, t in eqs:
                ts = t[slot]
                if k == 0:
                    if ts != 0:
                        return None
                else:
                    if ts % k:
                        return None
                    v = ts // k
                    if val is None:
                        val = v
                    elif val != v:
                        return None
            ycoords.append(0 if val is None else val)
        else:
            x = _solve_mod([[k] for k, _ in eqs], [t[slot] for _, t in eqs], 1, m)[0]
            if x is None:
                return None
            ycoords.append(x[0])
    return G.from_canonical(ycoords)
