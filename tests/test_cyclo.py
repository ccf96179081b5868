import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlift.cyclo import (
    CycOrder,
    CycScalar,
    _pdivmod,
    _pgcd,
    _substituted,
    cyclotomic_polynomial,
    root_of_unity_pth_root,
)
from coxlift.errors import InputDataError


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.Symbol("x")
    for N in [*range(1, 61), 210, 420]:
        want = tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs()))
        assert cyclotomic_polynomial(N) == want, N


def test_zeta4_squares_to_minus_one():
    N = CycOrder(4)
    i = CycScalar.zeta(N)
    assert i * i == CycScalar.from_rational(N, -1)


def test_zeta3_plus_zeta3_squared_is_minus_one():
    N = CycOrder(3)
    z = CycScalar.zeta(N)
    assert z + z * z == CycScalar.from_rational(N, -1)


def test_mu2_sign_action():
    N = CycOrder(2)
    assert CycScalar.zeta(N) * CycScalar.one(N) == CycScalar.from_rational(N, -1)


def test_division_and_division_by_zero():
    N = CycOrder(5)
    a = CycScalar.zeta(N)
    b = CycScalar.from_rational(N, Fraction(3, 2))
    assert (a / b) * b == a
    assert a / a == CycScalar.one(N)
    with pytest.raises(ZeroDivisionError):
        a / CycScalar.zero(N)
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(N).inverse()


def test_as_root_of_unity():
    N = CycOrder(4)
    assert CycScalar.one(N).as_root_of_unity() == 0
    assert CycScalar.from_rational(N, -1).as_root_of_unity() == 2
    assert CycScalar.from_rational(N, 2).as_root_of_unity() is None
    for k in range(4):
        assert CycScalar.zeta(N, k).as_root_of_unity() == k


def test_zeta_powers_cycle():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        N = CycOrder(n)
        z = CycScalar.zeta(N)
        assert z ** n == CycScalar.one(N)
        for k in range(1, n):
            assert z ** k != CycScalar.one(N)


def test_promote_examples():
    z2 = CycScalar.zeta(CycOrder(2))
    N4 = CycOrder(4)
    assert z2.promote(N4) == CycScalar.zeta(N4, 2)
    z3 = CycScalar.zeta(CycOrder(3))
    N6 = CycOrder(6)
    assert z3.promote(N6) == CycScalar.zeta(N6, 2)
    one = CycScalar.one(CycOrder(3))
    assert one.promote(CycOrder(12)) == CycScalar.one(CycOrder(12))
    with pytest.raises(InputDataError):
        CycScalar.zeta(CycOrder(4)).promote(CycOrder(6))


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def scalars(order):
    return st.lists(
        small_rationals, min_size=order.degree, max_size=order.degree
    ).map(lambda cs: CycScalar(order, cs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda n: st.tuples(*([scalars(CycOrder(n))] * 3))
))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == CycScalar.one(a.order)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]).flatmap(
    lambda n: st.tuples(st.just(n), scalars(CycOrder(n)), scalars(CycOrder(n)))
))
def test_promote_is_a_ring_homomorphism(data):
    n, a, b = data
    big = CycOrder(2 * n)
    assert (a * b).promote(big) == a.promote(big) * b.promote(big)
    assert (a + b).promote(big) == a.promote(big) + b.promote(big)


def test_pth_root_of_unit():
    N = CycOrder(4)
    minus_one = CycScalar.from_rational(N, -1)
    r = root_of_unity_pth_root(minus_one, 2)
    assert r is not None and r ** 2 == minus_one
    assert r == CycScalar.zeta(N, 1)  # smallest exponent
    assert root_of_unity_pth_root(CycScalar.from_rational(N, 2), 2) is None


# -- dense polynomial helpers ---------------------------------------------------

small_q = st.fractions(min_value=-6, max_value=6, max_denominator=4)
X = sympy.Symbol("x")
Q = CycOrder(1)  # Q itself, as Q(zeta_1)


def _mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _add(a, b, zero):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero) for i in range(n)]
    while out and out[-1] == zero:
        out.pop()
    return tuple(out)


def _check_divmod(a, b, zero):
    """q*b + r == a and deg r < deg b; b has a nonzero leading coefficient."""
    q, r = _pdivmod(a, b)
    assert _add(_mul(q, b, zero), r, zero) == _add(a, (), zero)
    assert len(r) < len(b) and (not r or r[-1] != zero)


def _poly(coeffs):
    """Rational coefficients, lowest degree first, as a sympy QQ Poly in x."""
    rats = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, coeffs)]
    return sympy.Poly(list(reversed(rats)) or [0], X, domain=sympy.QQ)


def _over_q(coeffs):
    """Rational coefficients as scalars of Q(zeta_1)."""
    return tuple(CycScalar.from_rational(Q, c) for c in coeffs)


def _poly_over_q(scalars):
    return _poly([c.rational_value() for c in scalars])


@settings(max_examples=80, deadline=None)
@given(st.lists(small_q, max_size=7), st.lists(small_q, min_size=1, max_size=5))
def test_pdivmod_over_q(a, b):
    b = b[:-1] + [b[-1] or Fraction(1)]
    q, r = _pdivmod(_over_q(a), _over_q(b))
    want_q, want_r = _poly(a).div(_poly(b))
    assert _poly_over_q(q) == want_q and _poly_over_q(r) == want_r
    assert len(r) < len(b) and (not r or r[-1])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 12]),
    st.lists(st.tuples(small_q, st.integers(0, 11)), max_size=5),
    st.lists(st.tuples(small_q, st.integers(0, 11)), min_size=1, max_size=4),
)
def test_pdivmod_over_q_zeta(N, a, b):
    order = CycOrder(N)

    def scalar(c, k):
        return CycScalar.from_rational(order, c) * CycScalar.zeta(order, k)

    a = tuple(scalar(c, k) for c, k in a)
    b = tuple(scalar(c, k) for c, k in b[:-1]) + (CycScalar.zeta(order, b[-1][1]),)
    _check_divmod(a, b, CycScalar.zero(order))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_q, min_size=1, max_size=3),
    st.lists(small_q, max_size=4),
    st.lists(small_q, max_size=4),
)
def test_pgcd_matches_sympy_over_q(common, f, g):
    zero = Fraction(0)
    a = _add(_mul(tuple(common), tuple(f), zero), (), zero)
    b = _add(_mul(tuple(common), tuple(g), zero), (), zero)
    want = _poly(a).gcd(_poly(b))
    got = _pgcd(_over_q(a), _over_q(b))
    if want.is_zero:
        assert got == ()
    else:
        assert _poly_over_q(got) == want and got[-1] == CycScalar.one(Q)


@pytest.mark.parametrize("N", [3, 12, 60])
@pytest.mark.parametrize("q", [1, -1, 7, Fraction(-3, 4)])
def test_inverse_of_rational_scalar(N, q):
    order = CycOrder(N)
    a = CycScalar.from_rational(order, q)
    assert a.inverse() == CycScalar.from_rational(order, 1 / Fraction(q))
    assert a * a.inverse() == CycScalar.one(order)


def conjugate_product_inverse(a):
    """Oracle: a^-1 as the product of a's other Galois conjugates over its
    norm, as ``CycScalar.inverse`` computes it for a general scalar."""
    N, order = a.order.N, a.order
    rest = CycScalar.one(order)
    for j in range(2, N):
        if math.gcd(j, N) == 1:
            rest = rest * CycScalar._make(order, _substituted(a.num, N, j))
    norm = (CycScalar._make(order, a.num) * rest).rational_value()
    return rest * CycScalar.from_rational(order, Fraction(a.den) / norm)


_INVERSE_ORDERS = st.sampled_from([3, 4, 12, 15, 60, 105]).map(CycOrder)
_NONZERO_Q = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@given(_INVERSE_ORDERS, st.integers(0, 104), _NONZERO_Q)
@settings(max_examples=150, deadline=None)
def test_unit_times_rational_inverse_matches_the_conjugate_product(order, k, q):
    a = CycScalar.zeta(order, k) * CycScalar.from_rational(order, q)
    assert a.inverse() == conjugate_product_inverse(a)
    assert (-a).inverse() == conjugate_product_inverse(-a)


@given(_INVERSE_ORDERS, st.data())
@settings(max_examples=30, deadline=None)
def test_general_inverse_matches_the_conjugate_product(order, data):
    coeffs = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                min_size=order.degree, max_size=order.degree))
    a = CycScalar(order, coeffs)
    if a.is_zero():
        return
    assert a.inverse() == conjugate_product_inverse(a)


def test_unit_times_rational_inverts_at_order_1999_in_under_half_a_second():
    """The conjugate product takes minutes at this order, so the inverse
    is only checked by its product."""
    order = CycOrder(1999)
    start = time.perf_counter()
    for a in (CycScalar.zeta(order, 5) * CycScalar.from_rational(order, 3),
              -CycScalar.zeta(order, 7)):
        assert a * a.inverse() == CycScalar.one(order)
    assert time.perf_counter() - start < 0.5


# -- differential test against sympy's arithmetic in Q[x] / Phi_N -------------------


@lru_cache(maxsize=None)
def _phi(N):
    return sympy.Poly(sympy.cyclotomic_poly(N, X), X, domain=sympy.QQ)


@lru_cache(maxsize=None)
def _zeta_powers(N):
    return [FractionScalar(CycOrder(N), [0] * k + [1]).coeffs for k in range(N)]


class FractionScalar:
    """Oracle: a residue held as a sympy QQ Poly, reduced modulo sympy's
    cyclotomic_poly(N) and inverted by sympy.invert; ``coeffs`` reads it out
    as Fractions, lowest power first, padded to the degree of Phi_N."""

    def __init__(self, order, coeffs):
        self.order = order
        self.poly = _poly(coeffs).rem(_phi(order.N))

    def _new(self, poly, order=None):
        out = object.__new__(FractionScalar)
        out.order = order or self.order
        out.poly = poly.rem(_phi(out.order.N))
        return out

    @property
    def coeffs(self):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(self.poly.all_coeffs())]
        return tuple(cs + [Fraction(0)] * (_phi(self.order.N).degree() - len(cs)))

    @classmethod
    def zeta(cls, order, k=1):
        return cls(order, [0] * (k % order.N) + [1])

    def __add__(self, other):
        return self._new(self.poly + other.poly)

    def __sub__(self, other):
        return self._new(self.poly - other.poly)

    def __neg__(self):
        return self._new(-self.poly)

    def __mul__(self, other):
        return self._new(self.poly * other.poly)

    def inverse(self):
        return self._new(sympy.invert(self.poly, _phi(self.order.N)))

    def is_rational(self):
        return self.poly.degree() <= 0

    def as_root_of_unity(self):
        coeffs = self.coeffs
        return next((k for k, z in enumerate(_zeta_powers(self.order.N)) if z == coeffs), None)

    def promote(self, new_order):
        step = new_order.N // self.order.N
        return self._new(self.poly.compose(sympy.Poly(X**step, X, domain=sympy.QQ)), new_order)


def test_dense_inverse_at_210_matches_sympy_in_under_a_second():
    order = CycOrder(210)
    rng = random.Random(210)
    coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
              for _ in range(order.degree)]
    a = CycScalar(order, coeffs)
    start = time.perf_counter()
    inv = a.inverse()
    elapsed = time.perf_counter() - start
    assert_matches(inv, FractionScalar(order, coeffs).inverse())
    assert a * inv == CycScalar.one(order)
    assert elapsed < 1.0


ORACLE_ORDERS = [1, 2, 3, 4, 5, 12, 30, 60]


@st.composite
def oracle_coeffs(draw, order):
    """Coefficient lists of general, rational, unit, zero and root-of-unity
    scalars, the last ones also scaled by a rational."""
    d = order.degree
    kind = draw(st.sampled_from(["general", "rational", "unit", "zero", "root", "scaled root"]))
    if kind == "general":
        return draw(st.lists(small_rationals, min_size=d, max_size=d))
    if kind == "rational":
        return [draw(small_rationals)]
    if kind == "unit":
        return [draw(st.sampled_from([1, -1]))]
    if kind == "zero":
        return []
    root = list(FractionScalar.zeta(order, draw(st.integers(0, order.N - 1))).coeffs)
    if kind == "root":
        return root
    q = draw(small_rationals)
    return [q * c for c in root]


def assert_matches(got, want):
    """got (a CycScalar) has want's (a FractionScalar's) value, and its
    integer representation is the reduced one."""
    assert got.coeffs == want.coeffs
    assert len(got.num) == got.order.degree and got.den > 0
    assert math.gcd(got.den, *got.num) == 1
    assert got.is_rational() == want.is_rational()
    if want.is_rational():
        assert got.rational_value() == want.coeffs[0]


@st.composite
def oracle_pairs(draw):
    order = CycOrder(draw(st.sampled_from(ORACLE_ORDERS)))
    return order, draw(oracle_coeffs(order)), draw(oracle_coeffs(order))


@settings(max_examples=300, deadline=None)
@given(oracle_pairs())
def test_scalar_arithmetic_matches_fraction_oracle(case):
    order, ca, cb = case
    a, b = CycScalar(order, ca), CycScalar(order, cb)
    oa, ob = FractionScalar(order, ca), FractionScalar(order, cb)
    assert_matches(a, oa)
    assert_matches(a + b, oa + ob)
    assert_matches(a - b, oa - ob)
    assert_matches(-a, -oa)
    assert_matches(a * b, oa * ob)
    assert_matches(b * a, ob * oa)
    if any(cb):
        assert_matches(b.inverse(), ob.inverse())
    assert (a == b) == (oa.coeffs == ob.coeffs)
    # one value reached two ways: equal, with equal hashes
    for x, y in ((a * b, b * a), ((a + b) - b, a), (CycScalar(order, (a * b).coeffs), a * b)):
        assert x == y and hash(x) == hash(y)
    assert a.as_root_of_unity() == oa.as_root_of_unity()


@pytest.mark.parametrize("N", ORACLE_ORDERS)
def test_every_root_of_unity_matches_fraction_oracle(N):
    order = CycOrder(N)
    for k in range(-N, 2 * N):
        want = FractionScalar.zeta(order, k)
        z = CycScalar.zeta(order, k)
        assert_matches(z, want)
        assert z.as_root_of_unity() == k % N
        assert CycScalar(order, want.coeffs).as_root_of_unity() == k % N
        assert (z + z).as_root_of_unity() is None
        # -zeta^k is an N-th root of unity only for even N
        assert (-z).as_root_of_unity() == ((k + N // 2) % N if N % 2 == 0 else None)


PROMOTIONS = [(1, 2), (1, 60), (2, 4), (3, 12), (4, 12), (5, 30), (3, 30), (12, 60), (30, 60)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PROMOTIONS).flatmap(
    lambda mn: st.tuples(st.just(mn), oracle_coeffs(CycOrder(mn[0])))
))
def test_promote_matches_fraction_oracle(case):
    (m, n), coeffs = case
    small, big = CycOrder(m), CycOrder(n)
    assert_matches(CycScalar(small, coeffs).promote(big), FractionScalar(small, coeffs).promote(big))
