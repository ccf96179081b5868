"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Scalars are residues modulo the N-th cyclotomic polynomial Phi_N with
rational coefficients.  A scalar stores its residue as an integer vector
``num`` over one positive denominator ``den`` with gcd(num, den) = 1, zero
as (0, ..., 0) / 1; this is the module's only representation.  It is
unique, so equality is a tuple comparison.  Phi_N is monic and integral, so
products stay in integers: the high terms of a product fold back through a
table of x^k mod Phi_N, kept once per N together with the N roots of unity.
The same table maps zeta to zeta^j, so the inverse of a nonzero scalar is
the product of its other Galois conjugates over its norm, a rational; a
rational multiple of a root of unity is inverted in closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputDataError

# Dense polynomials over Q(zeta_N) are tuples of CycScalar coefficients,
# lowest degree first, with no trailing zeros; Q itself is Q(zeta_1).


def _ptrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _pdivmod(a, b):
    """Quotient and remainder of a by b over Q(zeta_N)."""
    b = _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = b[-1].inverse()
    zero = b[-1] - b[-1]
    a = list(a)
    q = [zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        top = a.pop()  # the leading term cancels exactly, so it is not computed
        if top:
            coef = top * inv
            deg = len(a) + 1 - len(b)
            q[deg] = coef
            for i in range(len(b) - 1):
                a[deg + i] -= coef * b[i]
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b):
    """Monic gcd over Q(zeta_N); the gcd of two zero polynomials is ()."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return a
    inv = a[-1].inverse()
    return tuple(c * inv for c in a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple:
    """Coefficients of the N-th cyclotomic polynomial, lowest degree first.

    x^N - 1 divided by every Phi_d with d | N, d < N; each Phi_d is monic,
    so the long division stays in integers.
    """
    if N < 1:
        raise InputDataError("cyclotomic order must be positive")
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            phi = cyclotomic_polynomial(d)
            k = len(phi) - 1
            for i in range(len(num) - 1, k - 1, -1):
                c = num[i]
                if c:
                    for j in range(k):
                        num[i - k + j] -= c * phi[j]
            num = num[k:]
    return tuple(num)


MAX_CYCLOTOMIC_ORDER = 2000


class CycOrder:
    """The field Q(zeta_N), carrying N and the degree of Phi_N.

    N above ``MAX_CYCLOTOMIC_ORDER`` (2000) is an ``InputDataError``, raised
    before Phi_N is built: every scalar is a phi(N)-vector folded through an
    N x phi(N) power table of about 8*N*phi(N) bytes, some 30 MB at the
    prime 1999 and 800 MB at 10007.  The bound admits every order that the
    bundled problems, the benchmark and ``scripts/tower_sweep.py`` use
    (1500 at most).
    """

    __slots__ = ("N", "degree")

    def __init__(self, N: int):
        self.N = int(N)
        if self.N > MAX_CYCLOTOMIC_ORDER:
            raise InputDataError(
                f"cyclotomic order {self.N} exceeds the supported maximum {MAX_CYCLOTOMIC_ORDER}")
        self.degree = len(cyclotomic_polynomial(self.N)) - 1

    def __eq__(self, other):
        return isinstance(other, CycOrder) and self.N == other.N

    def __hash__(self):
        return hash(("CycOrder", self.N))

    def __repr__(self):
        return f"CycOrder({self.N})"


@lru_cache(maxsize=None)
def _power_table(N: int):
    """The N powers zeta_N^k as integer residue vectors, and each back to its k.

    Row k is x^k mod Phi_N, so it also folds a product's degree-k term
    (k >= degree) back below the degree, as row k mod N.  Phi_N is monic with
    integer coefficients, so every row is integral.  Keyed by N, not by the
    CycOrder instance: every parse builds new CycOrder objects.
    """
    phi = cyclotomic_polynomial(N)
    d = len(phi) - 1
    top = tuple(-c for c in phi[:-1])  # x^d mod Phi_N
    row = (1,) + (0,) * (d - 1)
    powers = []
    for _ in range(N):
        powers.append(row)
        t = row[-1]
        row = (0,) + row[:-1]
        if t:
            row = tuple(a + t * b for a, b in zip(row, top))
    # zeta_N is primitive, so the N rows are distinct
    return tuple(powers), {p: k for k, p in enumerate(powers)}


class CycScalar:
    """Element of Q(zeta_N): the residue ``num / den`` modulo Phi_N, with
    ``degree`` integers in ``num``, lowest power of zeta first."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: CycOrder, coeffs: Sequence[Fraction]):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > order.degree:
            raise InputDataError("residue degree exceeds the field degree")
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        num += [0] * (order.degree - len(num))
        self.order = order
        self.num, self.den = _reduced(num, den)

    @classmethod
    def _make(cls, order: CycOrder, num, den: int = 1) -> "CycScalar":
        """Scalar num/den with den > 0, reduced to lowest terms."""
        s = object.__new__(cls)
        s.order = order
        s.num, s.den = _reduced(num, den) if den != 1 else (tuple(num), 1)
        return s

    @property
    def coeffs(self) -> tuple:
        """The residue's coefficients as Fractions, lowest power first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, order: CycOrder, q) -> "CycScalar":
        q = Fraction(q)
        return cls._make(order, (q.numerator,) + (0,) * (order.degree - 1), q.denominator)

    @classmethod
    def zero(cls, order: CycOrder) -> "CycScalar":
        return cls._make(order, (0,) * order.degree)

    @classmethod
    def one(cls, order: CycOrder) -> "CycScalar":
        return cls._make(order, (1,) + (0,) * (order.degree - 1))

    @classmethod
    def zeta(cls, order: CycOrder, k: int = 1) -> "CycScalar":
        """zeta_N raised to the k-th power."""
        return cls._make(order, _power_table(order.N)[0][k % order.N])

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InputDataError("scalar is not rational")
        return Fraction(self.num[0], self.den)

    def _same(self, other):
        if not isinstance(other, CycScalar) or other.order != self.order:
            raise InputDataError("scalars from different cyclotomic orders")

    def __eq__(self, other):
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.order == other.order and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return f"CycScalar({self.order.N}, {self.as_string()})"

    def as_string(self) -> str:
        if self.is_rational():
            return str(self.rational_value())
        k = self.as_root_of_unity()
        if k is not None:
            return f"zeta{self.order.N}^{k}"
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._same(other)
        return self._combine(other, 1)

    def __sub__(self, other):
        self._same(other)
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other, by cross-multiplying the denominators."""
        da, db = self.den, other.den
        fb = sign * da
        return CycScalar._make(self.order, [a * db + fb * b for a, b in zip(self.num, other.num)],
                               da * db)

    def __neg__(self):
        return CycScalar._make(self.order, [-a for a in self.num], self.den)

    def __mul__(self, other):
        self._same(other)
        a, b = self.num, other.num
        if not any(b[1:]):
            return self._scaled(b[0], other.den)
        if not any(a[1:]):
            return other._scaled(a[0], self.den)
        d = len(a)
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        res = out[:d]
        N = self.order.N
        powers = _power_table(N)[0]
        for k in range(d, 2 * d - 1):
            t = out[k]
            if t:
                for i, r in enumerate(powers[k % N]):
                    if r:
                        res[i] += t * r
        return CycScalar._make(self.order, res, self.den * other.den)

    def _scaled(self, p: int, q: int) -> "CycScalar":
        """self * (p / q) for a reduced fraction p/q; self itself when p/q = 1."""
        if p == q:
            return self
        return CycScalar._make(self.order, [a * p for a in self.num], self.den * q)

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.is_rational():
            return CycScalar.from_rational(self.order, Fraction(self.den, self.num[0]))
        N, order = self.order.N, self.order
        # q * zeta^k, with q = +-g/den for the content g of num: the inverse
        # is q^-1 * zeta^-k (gcd(g, den) = 1, so den/g is reduced)
        powers, index = _power_table(N)
        g = math.gcd(*self.num)
        unit = tuple(a // g for a in self.num)
        for sign in (1, -1):
            k = index.get(unit if sign == 1 else tuple(-a for a in unit))
            if k is not None:
                return CycScalar._make(order, powers[-k % N])._scaled(sign * self.den, g)
        # a^-1 = rest / N(a) with rest the product of the conjugates sigma_j(a),
        # j != 1.  The conjugates of the numerator stay integral; N(num) is a
        # positive integer, as Q(zeta_N) with N >= 3 is totally complex.
        rest = CycScalar.one(order)
        for j in range(2, N):
            if math.gcd(j, N) == 1:
                rest = rest * CycScalar._make(order, _substituted(self.num, N, j))
        norm = (CycScalar._make(order, self.num) * rest).num[0]
        return rest._scaled(self.den, norm)

    def __truediv__(self, other):
        self._same(other)
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        acc = CycScalar.one(self.order)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    # -- roots of unity -----------------------------------------------------

    def as_root_of_unity(self) -> Optional[int]:
        """Exponent k with self = zeta_N^k, or None."""
        if self.den != 1:
            return None
        return _power_table(self.order.N)[1].get(self.num)

    def promote(self, new_order: CycOrder) -> "CycScalar":
        """Image under zeta_m -> zeta_N^(N/m); requires m | N."""
        m, N = self.order.N, new_order.N
        if N % m:
            raise InputDataError(f"cannot promote from order {m} to non-multiple {N}")
        return CycScalar._make(new_order, _substituted(self.num, N, N // m), self.den)


def _substituted(num, N: int, step: int) -> list:
    """The integer vector of sum_i num[i] * zeta_N^(i * step).

    With step = j coprime to N this is the Galois conjugate zeta -> zeta^j; with
    step = N/m it carries a residue of Q(zeta_m) into Q(zeta_N).
    """
    powers = _power_table(N)[0]
    out = [0] * len(powers[0])
    for i, c in enumerate(num):
        if c:
            for k, r in enumerate(powers[i * step % N]):
                if r:
                    out[k] += c * r
    return out


def _reduced(num, den: int):
    """(num, den) divided by gcd(num, den), as (tuple, int); den > 0."""
    g = math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(a // g for a in num), den // g


def root_of_unity_pth_root(s: CycScalar, p: int) -> Optional[CycScalar]:
    """A p-th root of a root of unity inside the same field, smallest exponent.

    Returns None when s is not a root of unity or no root exists in Q(zeta_N).
    """
    e = s.as_root_of_unity()
    if e is None:
        return None
    N = s.order.N
    g = math.gcd(p, N)
    if e % g:
        return None
    # solve p*f = e (mod N); smallest nonnegative f
    step = N // g
    f0 = (e // g * pow(p // g, -1, step)) % step if step > 1 else 0
    return CycScalar.zeta(s.order, f0)
