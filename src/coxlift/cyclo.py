"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Scalars are residues modulo the N-th cyclotomic polynomial with rational
coefficients, so equality is a coefficientwise comparison and every
nonzero scalar is invertible (the modulus is irreducible over Q).
"""

from __future__ import annotations

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
    """Coefficients of the N-th cyclotomic polynomial, lowest degree first."""
    if N < 1:
        raise InputDataError("cyclotomic order must be positive")
    if N == 1:
        return (-1, 1)
    num = [Fraction(0)] * (N + 1)
    num[0], num[N] = Fraction(-1), Fraction(1)
    num = tuple(num)
    for d in range(1, N):
        if N % d == 0:
            phi_d = tuple(Fraction(c) for c in cyclotomic_polynomial(d))
            num, rem = _pdivmod(num, phi_d)
            if rem:
                raise InputDataError("cyclotomic division left a remainder")
    if any(c.denominator != 1 for c in num):
        raise InputDataError("cyclotomic polynomial is not integral")
    return tuple(int(c) for c in num)


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


class CycScalar:
    """Element of Q(zeta_N), stored as a residue modulo the cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: CycOrder, coeffs: Sequence[Fraction]):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > order.degree:
            raise InputDataError("residue degree exceeds the field degree")
        coeffs += [Fraction(0)] * (order.degree - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, order: CycOrder, q) -> "CycScalar":
        return cls(order, [Fraction(q)])

    @classmethod
    def zero(cls, order: CycOrder) -> "CycScalar":
        return cls(order, [])

    @classmethod
    def one(cls, order: CycOrder) -> "CycScalar":
        return cls(order, [Fraction(1)])

    @classmethod
    def zeta(cls, order: CycOrder, k: int = 1) -> "CycScalar":
        """zeta_N raised to the k-th power."""
        k %= order.N
        poly = [Fraction(0)] * k + [Fraction(1)]
        _, rem = _pdivmod(tuple(poly), order.poly)
        return cls(order, rem)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InputDataError("scalar is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def _same(self, other):
        if not isinstance(other, CycScalar) or other.order != self.order:
            raise InputDataError("scalars from different cyclotomic orders")

    def __eq__(self, other):
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

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
        return CycScalar(self.order, _padd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same(other)
        return CycScalar(self.order, _padd(self.coeffs, _pneg(other.coeffs)))

    def __neg__(self):
        return CycScalar(self.order, _pneg(self.coeffs))

    def __mul__(self, other):
        self._same(other)
        _, rem = _pdivmod(_pmul(self.coeffs, other.coeffs), self.order.poly)
        return CycScalar(self.order, rem)

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.is_rational():
            return CycScalar.from_rational(self.order, 1 / self.coeffs[0])
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
        for k in range(self.order.N):
            if self == CycScalar.zeta(self.order, k):
                return k
        return None

    def promote(self, new_order: CycOrder) -> "CycScalar":
        """Image under zeta_m -> zeta_N^(N/m); requires m | N."""
        m, N = self.order.N, new_order.N
        if N % m:
            raise InputDataError(f"cannot promote from order {m} to non-multiple {N}")
        step = CycScalar.zeta(new_order, N // m)
        acc = CycScalar.zero(new_order)
        power = CycScalar.one(new_order)
        for c in self.coeffs:
            if c:
                acc = acc + CycScalar.from_rational(new_order, c) * power
            power = power * step
        return acc


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
    import math

    g = math.gcd(p, N)
    if e % g:
        return None
    # solve p*f = e (mod N); smallest nonnegative f
    step = N // g
    f0 = (e // g * pow(p // g, -1, step)) % step if step > 1 else 0
    return CycScalar.zeta(s.order, f0)
