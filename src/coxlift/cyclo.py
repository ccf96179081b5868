"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Scalars are residues modulo the N-th cyclotomic polynomial Phi_N with
rational coefficients; every nonzero scalar is invertible (the modulus is
irreducible over Q).  A scalar stores its residue as an integer vector
``num`` over one positive denominator ``den`` with gcd(num, den) = 1, zero
as (0, ..., 0) / 1.  That representation is unique, so equality is a tuple
comparison.  Phi_N is monic and integral, so products stay in integers:
the high terms of a product fold back through a table of x^k mod Phi_N,
kept once per N together with the N roots of unity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputDataError

# Dense polynomials are tuples of field elements, lowest degree first, with
# no trailing zeros.  The field is Q (Fraction coefficients) or Q(zeta_N)
# (CycScalar coefficients); _padd and _pmul take Fractions only.


def _ptrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    """Quotient and remainder of a by b over Q or Q(zeta_N)."""
    b = _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = _recip(b[-1])
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
    """Monic gcd over Q or Q(zeta_N); the gcd of two zero polynomials is ()."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return a
    inv = _recip(a[-1])
    return tuple(c * inv for c in a)


def _recip(x):
    return x.inverse() if isinstance(x, CycScalar) else Fraction(1) / x


def _pxgcd(a, b):
    """Extended gcd over Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    return r0, s0, t0


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


class CycOrder:
    """The field Q(zeta_N), carrying N and its cyclotomic polynomial."""

    __slots__ = ("N", "poly", "degree")

    def __init__(self, N: int):
        self.N = int(N)
        self.poly = tuple(Fraction(c) for c in cyclotomic_polynomial(self.N))
        self.degree = len(self.poly) - 1

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
        g, s, _ = _pxgcd(_ptrim(self.coeffs), self.order.poly)
        if len(g) != 1:
            raise InputDataError("modulus is not coprime to the residue")
        inv = _pmul(s, (Fraction(1) / g[0],))
        _, rem = _pdivmod(inv, self.order.poly)
        return CycScalar(self.order, rem)

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
            base = base * base
            k >>= 1
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
        powers = _power_table(N)[0]
        step = N // m
        num = [0] * new_order.degree
        for i, c in enumerate(self.num):
            if c:
                for j, r in enumerate(powers[i * step % N]):
                    num[j] += c * r
        return CycScalar._make(new_order, num, self.den)


def _reduced(num, den: int):
    """(num, den) divided by gcd(num, den), as (tuple, int); den > 0."""
    g = math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(a // g for a in num), den // g


def cyc_arith(a: CycScalar, b: CycScalar, op: str) -> CycScalar:
    """Field arithmetic dispatch; division by zero raises."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise InputDataError(f"unknown operation {op!r}")


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
