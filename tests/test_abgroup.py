import math
import signal
import time
from itertools import combinations, product

import pytest
import sympy
from helpers import elements
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form

from coxlift.abgroup import (
    FgAbelianGroup,
    GroupHomomorphism,
    IntMatrix,
    Subgroup,
    _solve_mod,
    element_order,
    pushout_root,
    quotient_group,
    relation_basis,
    smith_normal_form_full,
    solve_affine_mod_n,
    solve_affine_mod_p,
    solve_linear_over_group,
)
from coxlift.errors import InputDataError
from coxlift.lift import _coset_kernel_rows

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _product(*factors):
    """The product of IntMatrix factors, as a sympy matrix."""
    out = sympy.Matrix(factors[0].entries)
    for f in factors[1:]:
        out = out * sympy.Matrix(f.entries)
    return out


def test_snf_zero_relation_gives_free_group():
    S, U, V = smith_normal_form_full(IntMatrix([[0]]))[:3]
    assert S.entries == ((0,),)
    assert FgAbelianGroup(1, [[0]]).canonical_form == (1, ())


def test_snf_single_torsion_relation():
    S, _, _ = smith_normal_form_full(IntMatrix([[2]]))[:3]
    assert S.entries == ((2,),)
    assert FgAbelianGroup(1, [[2]]).describe() == "Z/2"


def test_snf_diag_2_3_normalizes_to_1_6():
    M = IntMatrix([[2, 0], [0, 3]])
    S, U, V = smith_normal_form_full(M)[:3]
    assert _product(U, M, V) == sympy.Matrix(S.entries)
    assert S.diagonal() == (1, 6)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_roundtrip_and_divisibility(rows):
    M = IntMatrix(rows)
    S, U, V, Vi = smith_normal_form_full(M)
    assert _product(U, M, V) == sympy.Matrix(S.entries)
    assert abs(sympy.Matrix(U.entries).det()) == 1
    assert _product(V, Vi) == sympy.eye(M.cols)
    diag = S.diagonal()
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # off-diagonal entries vanish
    for i, row in enumerate(S.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_element_order_examples():
    Z2 = FgAbelianGroup(1, [[2]])
    assert element_order(Z2, Z2.element([1])) == 2
    Z = FgAbelianGroup(1, [])
    assert element_order(Z, Z.element([0])) == 1
    assert element_order(Z, Z.element([3])) is None
    Z4 = FgAbelianGroup(1, [[4]])
    assert element_order(Z4, Z4.element([2])) == 2


def test_quotient_group_examples():
    Z2 = FgAbelianGroup(1, [[2]])
    Q, _ = quotient_group(Z2, [Z2.element([1])])
    assert Q.canonical_form == (0, ())

    Z4 = FgAbelianGroup(1, [[4]])
    Q, _ = quotient_group(Z4, [Z4.element([2])])
    assert Q.describe() == "Z/2"

    G = FgAbelianGroup(2, [[0, 2]])  # Z + Z/2
    Q, _ = quotient_group(G, [G.element([2, 0])])
    assert Q.canonical_form == (0, (2, 2))


def test_quotient_projection_kills_exactly_the_subgroup():
    G = FgAbelianGroup(2, [[4, 0], [0, 4]])
    gens = [G.element([2, 0]), G.element([0, 2])]
    Q, proj = quotient_group(G, gens)
    K = Subgroup(G, gens)
    subgroup = set()
    for a, b in product(range(2), repeat=2):
        subgroup.add((a * 2 % 4, b * 2 % 4))
    for g in elements(G):
        in_sub = K.express(g) is not None
        assert in_sub == proj(g).is_zero()
        assert in_sub == (tuple(c % 4 for c in g.canonical()) in subgroup)


@st.composite
def finite_groups_with_gens(draw):
    """A finite G of rank <= 3 and order <= 216 with 0-3 random generators."""
    rank = draw(st.integers(1, 3))
    diag = [draw(st.integers(1, 6)) for _ in range(rank)]
    off = st.integers(-4, 4)
    rel = [[diag[i] if i == j else (draw(off) if j > i else 0) for j in range(rank)]
           for i in range(rank)]
    G = FgAbelianGroup(rank, rel)
    vec = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)
    gens = [G.element(draw(vec)) for _ in range(draw(st.integers(0, 3)))]
    return G, gens


def _express_per_call(G, gens, target):
    """The per-query solve: a fresh Smith form U*M*V = S of M = [gens;
    relations] each time, and y*S = target*V solved slot by slot."""
    rows = [list(g.coords) for g in gens] + [list(r) for r in G.relations.entries]
    S, U, V, _ = smith_normal_form_full(IntMatrix(rows, cols=G.ambient_rank))
    diag = S.diagonal()
    y = [0] * U.rows
    for j, c in enumerate(V.vec_mul(target.coords)):
        d = diag[j] if j < len(diag) else 0
        if (c % d if d else c):
            return None
        y[j] = c // d if d else 0
    return list(U.vec_mul(y))[: len(gens)]


@settings(max_examples=80, deadline=None)
@given(finite_groups_with_gens())
def test_subgroup_matches_span_enumeration(data):
    G, gens = data
    K = Subgroup(G, gens)
    # brute-force span: close {0} under adding each generator
    span = {G.zero()}
    frontier = list(span)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                if h + g not in span:
                    span.add(h + g)
                    nxt.append(h + g)
        frontier = nxt
    for t in elements(G):
        x = K.express(t)
        assert (x is not None) == (t in span)
        assert x == _express_per_call(G, gens, t)
        if x is not None:
            acc = G.zero()
            for c, g in zip(x, gens):
                acc = acc + c * g
            assert acc == t
    for row in K.relations():
        assert len(row) == len(gens)
        acc = G.zero()
        for c, g in zip(row, gens):
            acc = acc + c * g
        assert acc.is_zero()
    Q, proj = K.quotient()
    assert K.abstract().order() == len(span)
    assert K.abstract().order() * Q.order() == G.order()
    assert all(proj(g).is_zero() for g in gens)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=r, max_size=r), max_size=r - 1),
    st.lists(st.lists(st.integers(-6, 6), min_size=r, max_size=r), max_size=3),
    st.lists(st.lists(st.integers(-6, 6), min_size=r, max_size=r), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)))
def test_subgroup_over_a_free_part(data):
    """G has a free part: a sum of generators is found, and every
    coefficient vector returned sums to its target."""
    rels, gen_rows, targets, combo = data
    G = FgAbelianGroup(len(targets[0]), rels)
    gens = [G.element(r) for r in gen_rows]
    K = Subgroup(G, gens)
    inside = G.zero()
    for c, g in zip(combo, gens):
        inside = inside + c * g
    assert K.express(inside) is not None
    for t in [inside] + [G.element(r) for r in targets]:
        x = K.express(t)
        if x is not None:
            acc = G.zero()
            for c, g in zip(x, gens):
                acc = acc + c * g
            assert acc == t


def test_pushout_examples():
    trivial = FgAbelianGroup(0, [])
    A2, incl, delta = pushout_root(trivial, trivial.zero(), 2)
    assert A2.describe() == "Z/2"
    assert element_order(A2, delta) == 2

    Z6 = FgAbelianGroup(1, [[6]])
    A2, incl, delta = pushout_root(Z6, Z6.element([5]), 1)
    assert A2.canonical_form == Z6.canonical_form
    assert delta == incl(Z6.element([5]))

    Z2 = FgAbelianGroup(1, [[2]])
    A2, incl, delta = pushout_root(Z2, Z2.element([1]), 2)
    assert A2.describe() == "Z/4"
    assert 2 * delta == incl(Z2.element([1]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 6]), min_size=0, max_size=2),
    st.integers(1, 4),
)
def test_pushout_order_one_is_isomorphic(invs, seed):
    rels = [[invs[i] if i == j else 0 for j in range(len(invs))] for i in range(len(invs))]
    A = FgAbelianGroup(len(invs), rels)
    elems = elements(A)
    a = elems[seed % len(elems)]
    A2, incl, delta = pushout_root(A, a, 1)
    assert A2.canonical_form == A.canonical_form
    assert delta == incl(a)


def test_group_order_matches_enumeration():
    for rels, rank in [([[2]], 1), ([[4, 0], [0, 6]], 2), ([[2, 1], [0, 3]], 2)]:
        G = FgAbelianGroup(rank, rels)
        if G.is_finite() and G.order() <= 256:
            assert len(set(elements(G))) == G.order()


def test_homomorphism_rejects_bad_images():
    Z2 = FgAbelianGroup(1, [[2]])
    Z = FgAbelianGroup(1, [])
    with pytest.raises(InputDataError):
        GroupHomomorphism(Z2, Z, [Z.element([1])])  # 2*1 != 0 in Z
    h = GroupHomomorphism(Z2, Z2, [Z2.element([1])])
    assert h(Z2.element([1])) == Z2.element([1])


def _image_sum(H, coeffs, images):
    """Oracle: sum c_i * images_i with GroupElement arithmetic."""
    acc = H.zero()
    for c, img in zip(coeffs, images):
        acc = acc + c * img
    return acc


@settings(max_examples=120, deadline=None)
@given(finite_groups_with_gens(), st.data())
def test_homomorphism_matches_group_element_arithmetic(codomain, data):
    """Built exactly when every domain relation's image sum is zero; then
    applying it gives the image sum, coordinate for coordinate."""
    H, _ = codomain
    n = data.draw(st.integers(0, 4))
    vec = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    images = [H.element(data.draw(st.lists(st.integers(-6, 6), min_size=H.ambient_rank,
                                            max_size=H.ambient_rank))) for _ in range(n)]
    # a row scaled by H's exponent always maps to zero
    rows = [[data.draw(st.sampled_from([1, H.exponent()])) * c for c in data.draw(vec)]
            for _ in range(data.draw(st.integers(0, 3)))]
    G = FgAbelianGroup(n, rows)
    if any(not _image_sum(H, r, images).is_zero() for r in rows):
        with pytest.raises(InputDataError, match="does not map to zero"):
            GroupHomomorphism(G, H, images)
        return
    h = GroupHomomorphism(G, H, images)
    for v in [[0] * n] + [data.draw(vec) for _ in range(3)]:
        got = h(G.element(v))
        assert got.group is H
        assert got.coords == _image_sum(H, v, images).coords


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_partial_smith_forms_match_the_full_form(rows):
    """Tracking fewer transforms changes neither S nor a tracked transform;
    an untracked one has no rows."""
    M = IntMatrix(rows)
    full = smith_normal_form_full(M)
    names = ("U", "V", "Vinv")
    for k in range(len(names) + 1):
        for track in combinations(names, k):
            S, *transforms = smith_normal_form_full(M, track=track)
            assert S == full[0]
            for name, T, F in zip(names, transforms, full[1:]):
                assert T == (F if name in track else IntMatrix([], cols=F.cols))


def _reference_smith_form(M):
    """``smith_normal_form_full`` before its pivot shortcuts, as an oracle:
    (S, U, V, Vinv) as lists of rows, every transform tracked."""
    m, n = M.rows, M.cols
    A = [list(r) for r in M.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vi = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i, j, c):
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def col_add(j, i, c):
        for r in A + V:
            r[j] += c * r[i]
        Vi[i] = [a - c * b for a, b in zip(Vi[i], Vi[j])]

    def col_swap(i, j):
        for r in A + V:
            r[i], r[j] = r[j], r[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    t = 0
    while t < min(m, n):
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
                    row_add(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        row_swap(t, i)
                        if A[t][t] < 0:
                            row_neg(t)
                        moved = True
            for j in range(t + 1, n):
                if A[t][j]:
                    col_add(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        col_swap(t, j)
                        moved = True
            if moved:
                continue
            bad = next((i for i in range(t + 1, m)
                        if any(A[i][j] % A[t][t] for j in range(t + 1, n))), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1
    return A, U, V, Vi


small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, -6, 9]), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, small_matrices))
def test_smith_form_matches_the_loop_without_pivot_shortcuts(rows):
    """Stopping the pivot search at an entry of absolute value 1, and the
    divisibility scan under a pivot 1, leave S and every transform as they were."""
    M = IntMatrix(rows)
    got = [list(map(list, T.entries)) for T in smith_normal_form_full(M)]
    assert got == list(_reference_smith_form(M))


def _smith_relation_lattice(rows, ncols):
    """The rows of U that U * M * V = S sends to zero: the relation lattice
    as it was read off ``smith_normal_form_full`` before ``relation_basis``."""
    S, U, _, _ = smith_normal_form_full(IntMatrix(rows, cols=ncols), track=("U",))
    diag = S.diagonal()
    return [list(U.entries[j]) for j in range(U.rows) if j >= len(diag) or not diag[j]]


key_matrices = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=8),
        st.lists(st.integers(0, 7), max_size=3),  # rows to repeat
        st.integers(0, 2),  # zero rows to add
    )
)


@settings(max_examples=150, deadline=None)
@given(key_matrices)
@example((1, [[2], [3]], [], 0))
@example((2, [[2, 0], [3, 0], [0, 4], [0, 6], [1, 1]], [1], 1))
@example((3, [[1, 2, 3]], [0, 0], 2))
def test_relation_basis_spans_the_smith_relation_lattice(data):
    """The sparse basis and the kernel rows of the Smith form's U span one
    lattice (equal Hermite forms); every row is a relation with only
    nonzero entries.  Keys such as (2), (3) put more keys in the echelon
    set than the rank."""
    n, rows, repeat, zeros = data
    rows = rows + [rows[i % len(rows)] for i in repeat] + [[0] * n] * zeros
    basis = relation_basis(rows)
    for a in basis:
        assert a and all(a.values())
        assert all(sum(c * rows[i][j] for i, c in a.items()) == 0 for j in range(n))
    dense = [[a.get(i, 0) for i in range(len(rows))] for a in basis]
    want = _smith_relation_lattice(rows, n)
    assert len(dense) == len(want)
    if want:
        assert (hermite_normal_form(sympy.Matrix(dense).T)
                == hermite_normal_form(sympy.Matrix(want).T))


def test_relation_basis_examples():
    assert relation_basis([[2], [3]]) == [{1: 2, 0: -3}]
    assert relation_basis([[1, 1], [0, 0], [1, 1]]) == [{1: 1}, {2: 1, 0: -1}]
    assert relation_basis([[1, 0], [0, 1]]) == []


def test_solve_affine_examples():
    assert solve_affine_mod_p([[1, 1]], [0], 2, 3) == (0, 0)
    assert _solve_mod([[1, 1]], [0], 2, 3)[1] == 3
    assert solve_affine_mod_p([], [], 2, 2) == (0, 0)
    assert solve_affine_mod_p([[1], [1]], [0, 1], 1, 2) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=m,
                max_size=m,
            ),
            st.lists(st.integers(0, 4), min_size=m, max_size=m),
        )
    ),
    st.sampled_from([2, 3, 5]),
)
def test_solve_affine_lex_minimality_by_enumeration(data, p):
    rows, rhs = data
    got = solve_affine_mod_p(rows, rhs, 3, p)
    sols = [
        v
        for v in product(range(p), repeat=3)
        if all(
            sum(r * x for r, x in zip(row, v)) % p == b % p
            for row, b in zip(rows, rhs)
        )
    ]
    if not sols:
        assert got is None
    else:
        assert got == min(sols)
        assert len(sols) == _solve_mod(rows, [0] * len(rows), 3, p)[1]


def test_solve_affine_mod_n_composite():
    assert solve_affine_mod_n([[2]], [2], 1, 4) in ((1,), (3,))
    assert solve_affine_mod_n([[2]], [2], 1, 4) == (1,)
    assert solve_affine_mod_n([[2]], [1], 1, 4) is None


def test_solve_linear_over_group_examples():
    Z2 = FgAbelianGroup(1, [[2]])
    d = solve_linear_over_group(
        Z2, [(2, Z2.zero()), (1, Z2.element([1]))]
    )
    assert d == Z2.element([1])

    Z = FgAbelianGroup(1, [])
    d = solve_linear_over_group(Z, [(1, Z.element([7]))])
    assert d == Z.element([7])

    Z4 = FgAbelianGroup(1, [[4]])
    d = solve_linear_over_group(Z4, [(2, Z4.element([2]))])
    sols = [g for g in elements(Z4) if 2 * g == Z4.element([2])]
    assert d in sols
    assert d.canonical() == min(s.canonical() for s in sols)


def test_solve_linear_over_group_inconsistent():
    Z4 = FgAbelianGroup(1, [[4]])
    assert solve_linear_over_group(Z4, [(2, Z4.element([1]))]) is None


@pytest.mark.parametrize("eqs, want", [
    ([(0, [1])], None),  # 0*d = 1
    ([(2, [3])], None),  # 3 is not a multiple of 2
    ([(1, [1]), (1, [2])], None),  # d = 1 and d = 2
    ([(0, [0]), (2, [-4]), (-1, [2])], [-2]),
    ([], [0]),  # no equation: d = 0 on the free slot
])
def test_solve_linear_over_group_on_a_free_slot(eqs, want):
    """Each of the free slot's three ways to have no solution, and the
    solution when there is one, on Z and on Z + Z/4."""
    Z = FgAbelianGroup(1, [])
    got = solve_linear_over_group(Z, [(k, Z.element(t)) for k, t in eqs])
    assert got == (None if want is None else Z.element(want))
    G = FgAbelianGroup(2, [[0, 4]])
    got = solve_linear_over_group(G, [(k, G.element(t + [2 * k])) for k, t in eqs])
    if want is None:
        assert got is None
    else:
        assert all(k * got == G.element(t + [2 * k]) for k, t in eqs)
        assert got.canonical()[G.moduli.index(0)] == want[0]


def _solutions_mod(rows, rhs, ncols, n):
    return [
        v for v in product(range(n), repeat=ncols)
        if all(sum(a * x for a, x in zip(row, v)) % n == b % n for row, b in zip(rows, rhs))
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 4, 6, 8, 9, 12]), st.integers(0, 3), st.data())
def test_solve_affine_mod_n_matches_enumeration(n, ncols, data):
    nrows = data.draw(st.integers(0, 3))
    entry = st.integers(-2 * n - 3, 2 * n + 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    rhs = data.draw(st.lists(entry, min_size=nrows, max_size=nrows))
    sols = _solutions_mod(rows, rhs, ncols, n)
    assert solve_affine_mod_n(rows, rhs, ncols, n) == (min(sols) if sols else None)
    assert _solve_mod(rows, [0] * nrows, ncols, n)[1] == len(
        _solutions_mod(rows, [0] * nrows, ncols, n))


# a dense system on which a Smith-form consistency test, one SNF of
# [M^T; 210*I], runs for more than a minute through entry growth
DENSE_210_ROWS = [[159, 65, 189, 91, 203, 176], [189, 166, 135, 7, 119, 198],
                  [63, 166, 13, 40, 28, 95], [120, 63, 97, 139, 26, 146]]
DENSE_210_RHS = [168, 209, 65, 193]


def test_solve_affine_mod_n_is_bounded_on_a_dense_system():
    def give_up(*_):
        raise TimeoutError("solve_affine_mod_n ran for more than 5 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        x = solve_affine_mod_n(DENSE_210_ROWS, DENSE_210_RHS, 6, 210)
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    assert x is not None and all(0 <= v < 210 for v in x)
    for row, b in zip(DENSE_210_ROWS, DENSE_210_RHS):
        assert sum(a * v for a, v in zip(row, x)) % 210 == b


@settings(max_examples=150, deadline=None)
@given(finite_groups_with_gens(), st.data())
def test_solve_linear_over_group_matches_enumeration(group, data):
    """Each t is a random element or k*d0 for one hidden d0, so solvable
    and unsolvable systems are both drawn.  The exact coordinates are
    compared, because they are emitted as a step's delta."""
    G, targets = group
    members = elements(G)
    d0 = data.draw(st.sampled_from(members))
    eqs = []
    for t in targets:
        k = data.draw(st.integers(-6, 6))
        eqs.append((k, k * d0 if data.draw(st.booleans()) else t))
    # elements(G) runs through the canonical coordinates in lex order
    found = [g for g in members if all(k * g == t for k, t in eqs)]
    got = solve_linear_over_group(G, eqs)
    if not found:
        assert got is None
    else:
        assert got.coords == found[0].coords


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.data())
def test_kernel_rows_count_their_solutions_in_closed_form(p, n, data):
    # a divisor step's coset classes lie in 1..p-1; the lift engine's kernel
    # rows are e_0 + t_f*e_f and it reads the lex-min solution of
    # rows * x = r off them as x_0 = 0, x_f = r_f / t_f, one of p
    cosets = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    rows = _coset_kernel_rows(cosets, p)
    kernel = {v for v in product(range(p), repeat=n)
              if sum(c * x for c, x in zip(cosets, v)) % p == 0}
    span = {tuple(sum(c * v[i] for c, v in zip(cs, rows)) % p for i in range(n))
            for cs in product(range(p), repeat=len(rows))}
    assert len(rows) == n - 1 and span == kernel
    rhs = data.draw(st.lists(st.integers(0, p - 1), min_size=n - 1, max_size=n - 1))
    closed = (0,) + tuple(r * pow(row[f], -1, p) % p
                          for f, (row, r) in enumerate(zip(rows, rhs), 1))
    assert _solve_mod(rows, rhs, n, p) == (closed, p)


def _dense_canonical_coords(G, v):
    """Oracle: all of v * V, then each slot reduced by its modulus."""
    _, _, V, _ = smith_normal_form_full(G.relations)
    return tuple(y % d if d else y for y, d in zip(V.vec_mul(v), G.moduli))


def test_canonical_coords_over_unit_torsion_and_free_slots():
    G = FgAbelianGroup(3, [[3, 1, 0], [0, 4, 0]])
    assert G.moduli == (1, 12, 0)
    for v in product(range(-3, 4), repeat=3):
        assert G.canonical_coords(v) == _dense_canonical_coords(G, v)
    for bad in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(InputDataError):
            G.canonical_coords(bad)


@settings(max_examples=120, deadline=None)
@given(matrices, st.integers(0, 1), st.data())
def test_canonical_coords_matches_dense_product(rows, free, data):
    # an appended zero column gives the presentation a free slot
    G = FgAbelianGroup(len(rows[0]) + free, [r + [0] * free for r in rows])
    v = data.draw(st.lists(st.integers(-50, 50), min_size=G.ambient_rank,
                           max_size=G.ambient_rank))
    assert G.canonical_coords(v) == _dense_canonical_coords(G, v)
    with pytest.raises(InputDataError):
        G.canonical_coords(v + [0])
