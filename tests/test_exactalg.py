import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chev.exactalg import (
    DenominatorVanishes,
    ExponentOverflow,
    PolyFp,
    PolyMatrix,
    PrimeField,
    field_ratio,
    is_ppower,
    primitive_triple,
)

F2, F3, F5, F7 = map(PrimeField, (2, 3, 5, 7))


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


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
    a, b = PolyFp.var(F3, "a"), PolyFp.var(F3, "b")
    assert ((a + b) ** 3 - a**3 - b**3).is_zero()
    assert (a + b) ** 2 - a**2 - b**2 == 2 * a * b
    assert (a + b) ** 9 == a**9 + b**9


def test_poly_canonical_form_drops_unused_vars():
    a, b = PolyFp.var(F5, "a"), PolyFp.var(F5, "b")
    p = a + b - b
    assert p.vars == ("a",)
    assert p == a


def test_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        PolyFp.monomial(F5, 1, {"x": 10**7})


def test_coefficient_lookup():
    a, b = PolyFp.var(F5, "a"), PolyFp.var(F5, "b")
    p = 3 * a * b**2 + 4
    assert p.coefficient({"a": 1, "b": 2}) == 3
    assert p.coefficient({}) == 4
    assert p.coefficient({"a": 2}) == 0


_polyvars = ("a", "b", "x")


def _random_poly(field):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=field.p - 1),
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
@given(_random_poly(F5), _random_poly(F5), _random_poly(F5))
def test_ring_axioms(p, q, r):
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
    ma = PolyMatrix.from_int_entries(F5, a)
    mb = PolyMatrix.from_int_entries(F5, b)
    mc = PolyMatrix.from_int_entries(F5, c)
    assert (ma * mb) * mc == ma * (mb * mc)


def test_matrix_shape_errors():
    m = PolyMatrix.identity(F5, 3)
    n = PolyMatrix.zeros(F5, 2, 2)
    with pytest.raises(ValueError):
        _ = m * n


def test_determinant_of_unitriangular():
    x = PolyFp.var(F5, "x")
    m = PolyMatrix.identity(F5, 3)
    m.entries[0][1] = x
    m.entries[1][2] = x**2
    m.entries[0][2] = 3 * x
    assert m.det() == 1


def test_determinant_general():
    m = PolyMatrix.from_int_entries(F7, [[1, 2], [3, 4]])
    assert m.det() == PolyFp.const(F7, -2)


def test_primitive_triple():
    assert primitive_triple((4, 6, 2)) == (2, 3, 1)
    assert primitive_triple((-2, 2, -2)) == (1, -1, 1)
    assert primitive_triple((0, -3, 3)) == (0, -1, 1)
