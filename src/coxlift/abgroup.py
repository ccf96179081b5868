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

All arithmetic is arbitrary-precision; nothing here is approximate.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import product
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputDataError("matrix shape mismatch in product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)))
            out.append(row)
        return IntMatrix(out, cols=other.cols)

    def vec_mul(self, vec: Sequence[int]) -> tuple:
        """Row vector times this matrix."""
        if len(vec) != self.rows:
            raise InputDataError("vector length mismatch")
        return tuple(
            sum(vec[i] * self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def smith_normal_form_full(M: IntMatrix):
    """Return (S, U, V, Vinv) with U*M*V = S in Smith normal form.

    S is diagonal with a divisibility chain d1 | d2 | ... ; U and V are
    unimodular, and the exact inverse of V is tracked alongside.
    """
    m, n = M.rows, M.cols
    A = [list(r) for r in M.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vi = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i, j, c):  # row i += c * row j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def col_add(j, i, c):  # col j += c * col i
        for r in range(m):
            A[r][j] += c * A[r][i]
        for r in range(n):
            V[r][j] += c * V[r][i]
        Vi[i] = [a - c * b for a, b in zip(Vi[i], Vi[j])]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
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
                    if A[i][t]:
                        row_swap(t, i)
                        if A[t][t] < 0:  # pragma: no cover - remainders stay >= 0
                            row_neg(t)
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
        IntMatrix(A, cols=n),
        IntMatrix(U, cols=m),
        IntMatrix(V, cols=n),
        IntMatrix(Vi, cols=n),
    )


class FgAbelianGroup:
    """Finitely generated abelian group Z^n / (row span of relations)."""

    def __init__(self, ambient_rank: int, relations: Iterable[Sequence[int]] = ()):
        self.ambient_rank = int(ambient_rank)
        self.relations = IntMatrix(relations, cols=self.ambient_rank)
        S, _, V, Vi = smith_normal_form_full(self.relations)
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
        return (
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
        return self.element(self._Vinv.vec_mul(ycoords))

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

    def elements(self):
        """All elements of a finite group, via canonical coordinates."""
        if not self.is_finite():
            raise InputDataError("cannot enumerate an infinite group")
        ranges = [range(d) if d else range(1) for d in self.moduli]
        for y in product(*ranges):
            yield self.from_canonical(y)


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
        for row in domain.relations.entries:
            acc = codomain.zero()
            for c, img in zip(row, images):
                if c:
                    acc = acc + c * img
            if not acc.is_zero():
                raise InputDataError(
                    f"relation {list(row)} does not map to zero; not a homomorphism"
                )
        self.domain = domain
        self.codomain = codomain
        self.images = images

    def __call__(self, g: GroupElement) -> GroupElement:
        if not g.group.same_presentation(self.domain):
            raise InputDataError("element not in the homomorphism's domain")
        acc = self.codomain.zero()
        for c, img in zip(g.coords, self.images):
            if c:
                acc = acc + c * img
        return acc

    def compose(self, inner: "GroupHomomorphism") -> "GroupHomomorphism":
        """self o inner."""
        return GroupHomomorphism(
            inner.domain, self.codomain, [self(img) for img in inner.images]
        )

    @classmethod
    def identity(cls, G: FgAbelianGroup) -> "GroupHomomorphism":
        return coordinate_inclusion(G, G)


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


def solve_integer_system(rows: Sequence[Sequence[int]], ncols: int,
                         target: Sequence[int]) -> Optional[list]:
    """Solve x * M = target over Z for the matrix M with the given rows."""
    M = IntMatrix(rows, cols=ncols)
    if len(target) != ncols:
        raise InputDataError("target length mismatch")
    S, U, V, _ = smith_normal_form_full(M)
    return _back_substitute(S.diagonal(), U, V, target)


def row_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list:
    """Basis rows of { v : v * M = 0 } for the matrix M with the given rows."""
    S, U, _, _ = smith_normal_form_full(IntMatrix(rows, cols=ncols))
    return _kernel_rows(S.diagonal(), U)


def quotient_group(G: FgAbelianGroup, subgroup_gens: Sequence[GroupElement]):
    """Quotient of G by the subgroup the given elements generate."""
    rows = [list(r) for r in G.relations.entries] + [list(g.coords) for g in subgroup_gens]
    Q = FgAbelianGroup(G.ambient_rank, rows)
    return Q, coordinate_inclusion(G, Q)


class Subgroup:
    """The subgroup K of G generated by ``gens``, with its Smith data.

    The Smith form of M = [gens; G.relations] is computed once, when the
    first query needs it.  Membership, coefficients and the relation
    lattice of the generators are then each one back-substitution through
    it.  The quotient G/K is built on first use by ``quotient_group``,
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
        S, U, V, _ = smith_normal_form_full(IntMatrix(rows, cols=self.group.ambient_rank))
        return S.diagonal(), U, V

    def express(self, target: GroupElement) -> Optional[list]:
        """Integer coefficients x with sum x_i * gens_i = target in G, or None."""
        sol = _back_substitute(*self._smith, target.coords)
        return None if sol is None else sol[: len(self.gens)]

    def contains(self, target: GroupElement) -> bool:
        return self.express(target) is not None

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
# Linear algebra over Z/p and Z/n


def _rref_mod_p(rows, ncols, p):
    """Reduced row echelon form mod a prime; returns (rows, pivot columns)."""
    R = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [(x * inv) % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(a - f * b) % p for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R[:r], pivots


def nullspace_mod_p(rows, ncols, p):
    """Basis of the right kernel mod p, first nonzero entry normalized to 1."""
    R, pivots = _rref_mod_p(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i][f]) % p
        lead = next(x for x in v if x)
        inv = pow(lead, -1, p)
        basis.append(tuple((x * inv) % p for x in v))
    return basis


def kernel_basis_mod_p(classes: Sequence[int], p: int):
    """Basis of { c : sum c_j * classes_j = 0 mod p }.

    With at least one nonzero class the kernel has dimension n - 1.
    """
    m = [x % p for x in classes]
    if all(x == 0 for x in m):
        raise InputDataError("degenerate degree data: all residues vanish mod p")
    return nullspace_mod_p([m], len(m), p)


def rank_mod_p(rows, ncols, p) -> int:
    R, _ = _rref_mod_p(rows, ncols, p)
    return len(R)


def _consistent_mod_p(rows, rhs, ncols, p) -> bool:
    if not rows:
        return True
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    return rank_mod_p(rows, ncols, p) == rank_mod_p(aug, ncols + 1, p)


def solve_affine_mod_p(rows, rhs, ncols, p):
    """Lexicographically smallest solution of M x = rhs over Z/p, or None.

    Greedy per coordinate: fix the smallest residue that keeps the
    remaining system consistent.
    """
    rows = [[x % p for x in r] for r in rows]
    rhs = [b % p for b in rhs]
    if not _consistent_mod_p(rows, rhs, ncols, p):
        return None
    sol = []
    cur_rows, cur_rhs = rows, rhs
    for j in range(ncols):
        rest = ncols - j - 1
        for v in range(p):
            nrows = [r[1:] for r in cur_rows]
            nrhs = [(b - r[0] * v) % p for r, b in zip(cur_rows, cur_rhs)]
            if _consistent_mod_p(nrows, nrhs, rest, p):
                sol.append(v)
                cur_rows, cur_rhs = nrows, nrhs
                break
        else:  # pragma: no cover - guarded by the initial consistency check
            return None
    return tuple(sol)


def solution_count_mod_p(rows, ncols, p) -> int:
    return p ** (ncols - rank_mod_p(rows, ncols, p))


def solve_affine_mod_n(rows, rhs, ncols, n):
    """Lex-min solution of M x = rhs over Z/n (n arbitrary >= 1), or None."""
    if n == 1:
        return (0,) * ncols

    def consistent(rs, bs, k):
        if not rs:
            return True
        # columns of the system are the unknowns; append n*I for the modulus
        mat = [[rs[i][j] for i in range(len(rs))] for j in range(k)]
        for i in range(len(rs)):
            mod_row = [0] * len(rs)
            mod_row[i] = n
            mat.append(mod_row)
        return solve_integer_system(mat, len(rs), [b % n for b in bs]) is not None

    rows = [[x % n for x in r] for r in rows]
    rhs = [b % n for b in rhs]
    if not consistent(rows, rhs, ncols):
        return None
    sol = []
    cur_rows, cur_rhs = rows, rhs
    for j in range(ncols):
        rest = ncols - j - 1
        for v in range(n):
            nrows = [r[1:] for r in cur_rows]
            nrhs = [(b - r[0] * v) % n for r, b in zip(cur_rows, cur_rhs)]
            if consistent(nrows, nrhs, rest):
                sol.append(v)
                cur_rows, cur_rhs = nrows, nrhs
                break
        else:  # pragma: no cover
            return None
    return tuple(sol)


def _intersect_congruences(c1, c2):
    """Intersect x = r1 (mod m1) with x = r2 (mod m2); None when empty."""
    r1, m1 = c1
    r2, m2 = c2
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    lcm = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 // g > 1 else 0
    return ((r1 + m1 * t) % lcm, lcm)


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
            cls = (0, 1)
            for k, t in eqs:
                ts = t[slot] % m
                g = math.gcd(k % m, m) if k % m else m
                if ts % g:
                    return None
                if k % m == 0:
                    continue
                mm = m // g
                r = (ts // g * pow((k % m) // g, -1, mm)) % mm if mm > 1 else 0
                cls = _intersect_congruences(cls, (r, mm))
                if cls is None:
                    return None
            ycoords.append(cls[0] % m)
    return G.from_canonical(ycoords)
