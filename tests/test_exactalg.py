from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
import row_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank2chev.exactalg import (
    EXPONENT_BOUND,
    DenominatorVanishes,
    ExponentOverflow,
    PolyFp,
    PolyMatrix,
    PrimeField,
    field_ratio,
    is_ppower,
    nullspace,
    primitive_triple,
    rows_additive,
)

F2, F3, F5, F7 = map(PrimeField, (2, 3, 5, 7))
# characteristic 0: the prime ring Z, where the derivations run
Z = PrimeField(0)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_zero_is_the_integers():
    assert Z.reduce(-7) == -7 and Z.reduce(2003) == 2003
    assert F5.reduce(-7) == 3
    assert PolyFp.const(Z, -7).constant_value() == -7
    assert PolyFp.const(F5, -7).constant_value() == 3


def test_field_ratio_examples():
    assert field_ratio(-1, 2, F3) == 1
    assert field_ratio(-1, 10, F7) == 2
    with pytest.raises(DenominatorVanishes):
        field_ratio(1, 3, F3)
    with pytest.raises(ZeroDivisionError):
        field_ratio(1, 0, F5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_ppower(p):
    assert is_ppower(1, p)
    for k in range(1, 6):
        assert is_ppower(p**k, p)
        assert not is_ppower((p + 1) * p**k, p)
    assert not is_ppower(0, p)
    assert not is_ppower(-p, p)
    assert not is_ppower(p + 1, p)
    assert not is_ppower(6, p)


def test_poly_basic_identities():
    a, b = PolyFp.monomial(F3, 1, {"a": 1}), PolyFp.monomial(F3, 1, {"b": 1})
    assert (a + b) ** 3 - a**3 - b**3 == 0
    assert (a + b) ** 2 - a**2 - b**2 == 2 * a * b
    assert (a + b) ** 9 == a**9 + b**9


def test_poly_over_z_keeps_every_coefficient():
    # the binomial coefficients of (a+b)^5 exceed 2, 3 and 5, so no small
    # characteristic would keep them all
    a, b = PolyFp.monomial(Z, 1, {"a": 1}), PolyFp.monomial(Z, 1, {"b": 1})
    mixed = (a + b) ** 5 - a**5 - b**5
    assert [c for _, c in mixed.monomials()] == [5, 10, 10, 5]
    assert mixed == 5 * a * b**4 + 10 * a**2 * b**3 + 10 * a**3 * b**2 + 5 * a**4 * b
    assert list((-mixed).monomials())[1] == ({"a": 2, "b": 3}, -10)
    assert (a - b) * (a + b) == a**2 - b**2
    assert (a + b) ** 5 != a**5 + b**5
    for field in (F2, F3, F5):
        x, y = PolyFp.monomial(field, 1, {"a": 1}), PolyFp.monomial(field, 1, {"b": 1})
        assert ((x + y) ** 5 - x**5 - y**5).terms != mixed.terms


def test_poly_canonical_form_drops_unused_vars():
    a, b = PolyFp.monomial(F5, 1, {"a": 1}), PolyFp.monomial(F5, 1, {"b": 1})
    p = a + b - b
    assert p.vars == ("a",)
    assert p == a


def test_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        PolyFp.monomial(F5, 1, {"x": 10**7})


def test_coefficient_lookup():
    a, b = PolyFp.monomial(F5, 1, {"a": 1}), PolyFp.monomial(F5, 1, {"b": 1})
    p = 3 * a * b**2 + 4
    assert list(p.monomials()) == [({}, 4), ({"a": 1, "b": 2}, 3)]


_polyvars = ("a", "b", "x")


def _coefficients(field):
    """Coefficients in [0, p) over F_p; small signed ints over Z."""
    if field.p:
        return st.integers(min_value=0, max_value=field.p - 1)
    return st.integers(min_value=-9, max_value=9)


def _random_poly(field):
    return st.lists(
        st.tuples(
            _coefficients(field),
            st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
        ),
        max_size=5,
    ).map(
        lambda terms: sum(
            (
                PolyFp.monomial(field, c, dict(zip(_polyvars, e)))
                for c, e in terms
            ),
            PolyFp.zero(field),
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((F5, Z)).flatmap(lambda f: st.tuples(*[_random_poly(f)] * 3)))
def test_ring_axioms(polys):
    p, q, r = polys
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_frobenius(p, data):
    field = PrimeField(p)
    u = data.draw(_random_poly(field))
    v = data.draw(_random_poly(field))
    assert (u + v) ** p == u**p + v**p


def _random_int_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@settings(max_examples=25, deadline=None)
@given(
    _random_int_matrix(2, 3), _random_int_matrix(3, 2), _random_int_matrix(2, 2)
)
def test_matrix_multiplication_associative(a, b, c):
    ma, mb, mc = (
        PolyMatrix(F5, [[PolyFp.const(F5, x) for x in row] for row in m])
        for m in (a, b, c)
    )
    assert (ma * mb) * mc == ma * (mb * mc)


# variable sets of the random matrix entries: constants, x, a, b and mixes
_ENTRY_VARS = ((), ("x",), ("a",), ("b",), ("a", "b"), ("a", "b", "x"))


def _random_entry(field):
    term = st.tuples(
        _coefficients(field),
        st.sampled_from(_ENTRY_VARS),
        st.tuples(*[st.integers(min_value=1, max_value=3)] * 3),
    )
    return st.lists(term, max_size=3).map(
        lambda terms: sum(
            (PolyFp.monomial(field, c, dict(zip(vs, e))) for c, vs, e in terms),
            PolyFp.zero(field),
        )
    )


def _naive_product(m, n):
    """Entry by entry sum(a * b) through PolyFp, the reference product."""
    zero = PolyFp.zero(m.field)
    return [
        [sum((a * b for a, b in zip(row, col)), zero) for col in zip(*n.entries)]
        for row in m.entries
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_matrix_product_matches_naive_sum(p, data):
    field = PrimeField(p)
    rows, inner, cols = data.draw(st.tuples(*[st.integers(1, 3)] * 3))

    def matrix(r, c):
        entry = _random_entry(field)
        return PolyMatrix(
            field, [[data.draw(entry) for _ in range(c)] for _ in range(r)]
        )

    m, n = matrix(rows, inner), matrix(inner, cols)
    product = m * n
    expected = _naive_product(m, n)
    assert product.entries == expected
    # canonical form: no unused variable and no zero coefficient survives
    for entry in (e for row in product.entries for e in row):
        assert all(entry.terms.values())
        assert all(any(e[i] for e in entry.terms) for i in range(len(entry.vars)))


def test_matrix_product_exponent_overflow():
    x = PolyFp.monomial(F5, 1, {"x": 1})
    big, rest = x ** (EXPONENT_BOUND - 10), x**11
    m = PolyMatrix(F5, [[big]])
    with pytest.raises(ExponentOverflow):
        _ = m * PolyMatrix(F5, [[rest]])
    # an overflowing term that cancels in the sum still raises
    row = PolyMatrix(F5, [[big, big]])
    col = PolyMatrix(F5, [[rest], [-rest]])
    with pytest.raises(ExponentOverflow):
        _ = row * col
    assert (m * PolyMatrix(F5, [[x**10]])).entries == [[x**EXPONENT_BOUND]]


def test_matrix_shape_errors():
    m = PolyMatrix.identity(F5, 3)
    n = PolyMatrix.identity(F5, 2)
    with pytest.raises(ValueError):
        _ = m * n


def test_primitive_triple():
    assert primitive_triple((4, 6, 2)) == (2, 3, 1)
    assert primitive_triple((-2, 2, -2)) == (1, -1, 1)
    assert primitive_triple((0, -3, 3)) == (0, -1, 1)


def _reference_nullspace_q(rows, ncols):
    """Gauss-Jordan in Fraction; each basis vector scaled to a primitive
    integer vector, positive at its free column."""
    pivots = {}
    for row in rows:
        r = list(map(Fraction, row))
        for col, prow in pivots.items():
            f = r[col]
            r = [a - f * b for a, b in zip(r, prow)]
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is None:
            continue
        r = [a / r[lead] for a in r]
        for col, prow in pivots.items():
            f = prow[lead]
            pivots[col] = [a - f * b for a, b in zip(prow, r)]
        pivots[lead] = r
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [Fraction(int(i == j)) for i in range(ncols)]
        for col, prow in pivots.items():
            vec[col] = -prow[j]
        scale = lcm(*(f.denominator for f in vec))
        ints = [int(f * scale) for f in vec]
        g = gcd(*ints)
        basis.append([a // g for a in ints])
    return basis


@st.composite
def _int_rows(draw):
    """(rows, ncols): 0-5 rows drawn from a few distinct rows and the zero
    row, so zero and duplicate rows occur."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-30, max_value=30)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    distinct = draw(st.lists(row, min_size=1, max_size=5))
    pool = distinct + [[0] * ncols]
    rows = draw(st.lists(st.sampled_from(pool), max_size=5))
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(_int_rows(), st.sampled_from([0, 2, 3, 5, 7]))
def test_nullspace_matches_reference(case, p):
    rows, ncols = case
    basis = nullspace(rows, ncols, p)
    if p == 0:
        assert basis == _reference_nullspace_q(rows, ncols)
        return
    kernel = [
        v
        for v in product(range(p), repeat=ncols)
        if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)
    ]
    assert len(kernel) == p ** len(basis)
    assert all(tuple(vec) in kernel for vec in basis)
    # the free columns of the reduced echelon form are the last nonzero
    # positions of the kernel vectors
    free = sorted({max(j for j, a in enumerate(v) if a) for v in kernel if any(v)})
    assert len(free) == len(basis)
    for vec, j in zip(basis, free):
        assert [vec[k] for k in free] == [int(k == j) for k in free]


@st.composite
def _coefficient_rows(draw):
    """n x n coefficient rows over F_p.  Entries mix constants, p-powers
    and other exponents; a diagonal entry may be other than 1, and an
    upper unitriangular draw makes additive rows common."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 4))
    exps = st.sampled_from((0, 1, 2, 3, p, p + 1, 2 * p, p * p))
    entry = st.dictionaries(exps, st.integers(1, p - 1), max_size=3)
    upper = draw(st.booleans())
    rows = []
    for r in range(n):
        row = []
        for s in range(n):
            if upper and r > s:
                row.append({})
            elif upper and r == s and draw(st.booleans()):
                row.append({0: 1})
            else:
                row.append(draw(entry))
        rows.append(row)
    return rows, p


@settings(max_examples=300, deadline=None)
@given(_coefficient_rows())
@example(([[{0: 2}]], 3))  # a diagonal constant other than 1
@example(([[{0: 1, 2: 1}]], 2))  # a diagonal entry with an x-term
@example(([[{0: 1}, {0: 2}], [{}, {0: 1}]], 3))  # a constant off the diagonal
@example(([[{0: 1}, {3: 2}], [{}, {0: 1}]], 3))  # u(x) = 1 + 2x^3 E_01
@example(([[{0: 1}, {2: 1}], [{}, {0: 1}]], 3))  # x^2 is not additive
@example(([[{}, {}], [{}, {}]], 5))  # the zero matrix
def test_rows_additive_matches_the_term_by_term_loop(case):
    rows, p = case
    assert rows_additive(rows, p) == row_reference.rows_additive(rows, p)
