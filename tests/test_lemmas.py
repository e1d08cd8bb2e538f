from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lemma_reference
from rank2chev import lemmas
from rank2chev.exactalg import binomial_coeffs_modp, ppowers


def _lhs_terms(z, p):
    """(a+b)^z - a^z - b^z as {(k, z-k): C(z, k) mod p}, nonzero terms only."""
    return {(k, z - k): comb(z, k) % p for k in range(1, z) if comb(z, k) % p}


def test_case1_p3_unit_exponents():
    # exact solution set at q1 = q2 = 1: z = 2, c = c1/2
    r = lemmas.check_poly_lemma(1, 3, z_max=30)
    assert r.ok
    # reconstruct the q1 = q2 = 1 slice by brute force and compare
    found = set()
    for z in range(1, 31):
        for c in (1, 2):
            for c1 in (1, 2):
                lhs = {k: c * v % 3 for k, v in _lhs_terms(z, 3).items()}
                lhs = {k: v for k, v in lhs.items() if v}
                if lhs == {(1, 1): c1}:
                    found.add((z, c, c1))
    assert found == {(2, 2, 1), (2, 1, 2)}  # c = c1 * inverse(2) = 2*c1


def test_case1_p2_no_solutions():
    r = lemmas.check_poly_lemma(1, 2, z_max=60)
    assert r.ok and r.solutions == 0


def test_case2_p5_unique():
    # q1 = 1: z = 3 and c = c1/3 uniquely (exhaustive scan)
    r = lemmas.check_poly_lemma(2, 5, z_max=200)
    assert r.ok
    inv3 = pow(3, 3, 5)
    for z in range(1, 201):
        for c in range(1, 5):
            for c1 in range(1, 5):
                lhs = {k: c * v % 5 for k, v in _lhs_terms(z, 5).items()}
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {(1, 2): c1, (2, 1): c1}
                if lhs == rhs:
                    assert z == 3 and c == c1 * inv3 % 5


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_poly_lemma_set_equality(case, p):
    """Set equality holds, with the same solutions, extra and missing
    tuples as the loop over every z in range, every item, each solved by
    expansion_units (cases 3 and 4 are vacuous at p = 2)."""
    r = lemmas.check_poly_lemma(case, p, z_max=120)
    if not r.note:
        assert (r.solutions, set(r.extra), set(r.missing)) == lemma_reference.check(
            case, p, 120
        )
    assert r.ok, (r.extra[:3], r.missing[:3])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_admissible_z_is_the_first_test_of_expansion_units(p):
    # a z is dropped exactly when a right side of `width` terms, whatever
    # its values, has too few terms for expansion_units
    for width in range(5):
        kept = lemmas.admissible_z(p, 120, width)
        for z in range(1, 121):
            rhs = {(k, z - k): 1 for k in range(1, width + 1)}
            if z not in kept:
                assert len(binomial_coeffs_modp(z, p)) > width
                assert lemmas.expansion_units(z, rhs, p) == ()
            else:
                assert len(binomial_coeffs_modp(z, p)) <= width
    # Lucas: no middle term exactly at the p-powers
    assert lemmas.admissible_z(p, 120, 0) == tuple(ppowers(p, 120))


def test_case6_trichotomy_has_cancelling_solutions():
    r = lemmas.check_poly_lemma(6, 3, z_max=40)
    assert r.ok and r.solutions > 0


class _CountedReads:
    """An item's parameter tuples, counting the passes made over them."""

    def __init__(self, tuples):
        self.tuples, self.reads = tuples, 0

    def __iter__(self):
        self.reads += 1
        return iter(self.tuples)


def test_each_items_tuples_are_read_once(monkeypatch):
    # case 6 at p = 3: the cancelling item's tuples are a generator and its
    # right side solves at every p-power z, yet one pass serves them all
    case, counted = lemmas._POLY_CASES[6], []

    def counted_items(items):
        for zs, rhs, tuples in items:
            counted.append(_CountedReads(tuples))
            yield zs, rhs, counted[-1]

    def counting(p, z_max):
        items, conclusion, stated = case(p, z_max)
        return counted_items(items), conclusion, stated

    want = lemmas.check_poly_lemma(6, 3)
    monkeypatch.setitem(lemmas._POLY_CASES, 6, counting)
    assert lemmas.check_poly_lemma(6, 3) == want
    assert counted and [c.reads for c in counted] == [1] * len(counted)


def test_ppower_examples():
    assert (2 ** (2 + 2) - 1) // 3 == 5  # f = 2: not a power of 2
    r = lemmas.check_ppower_lemma(1, 2, f_max=20)
    assert r.ok
    r = lemmas.check_ppower_lemma(3, 3, f_max=20)
    assert r.ok and r.solutions == 20  # (3^f+1)/2 is always integral
    assert (3 * 5 + 1) // 2 == 8
    r = lemmas.check_ppower_lemma(5, 5, f_max=20)
    assert r.ok


@pytest.mark.parametrize("expr", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ppower_lemma_all(expr, p):
    r = lemmas.check_ppower_lemma(expr, p, f_max=20, m_max=64)
    assert r.ok, r.extra


def test_ppower_non_integral_values_skipped():
    # (p^f + 1)/2 is never integral at p = 2
    r = lemmas.check_ppower_lemma(3, 2, f_max=20)
    assert r.ok and r.solutions == 0


def _units_by_definition(z, rhs, p):
    """The units c with c((a+b)^z - a^z - b^z) = rhs, by trying each: the
    scaled lhs with zeros dropped equals the rhs reduced mod p with zeros
    dropped."""
    want = {key: v % p for key, v in rhs.items() if v % p}
    return tuple(
        c
        for c in range(1, p)
        if {key: c * v % p for key, v in _lhs_terms(z, p).items() if c * v % p}
        == want
    )


@pytest.mark.parametrize(
    "p,z,rhs,units",
    [
        (3, 9, {}, (1, 2)),  # p-power z, empty rhs: every unit
        (3, 9, {(4, 5): 3, (0, 1): -6}, (1, 2)),  # rhs vanishing mod p
        (3, 6, {}, ()),  # z with middle terms, empty rhs
        (5, 3, {(1, 2): 3, (2, 1): 3}, (1,)),
        (5, 3, {(1, 2): 8, (2, 1): -2}, (1,)),  # not reduced mod p
        (5, 3, {(1, 2): 3, (2, 1): 1}, ()),  # the ratio at (1, 2) fails at (2, 1)
        (5, 3, {(1, 2): 3, (2, 1): 3, (0, 7): 5}, (1,)),  # off-diagonal zero
        (5, 3, {(1, 2): 3, (2, 1): 3, (4, 0): 1}, ()),  # off-diagonal term
        (5, 3, {(1, 2): 3, (2, 1): 3, (2, 2): 3}, ()),
        (5, 3, {(1, 2): 3}, ()),  # a term missing
        (7, 14, {(7, 7): 4}, (2,)),  # one Lucas term: C(14, 7) = 2 mod 7
        (2, 6, {(2, 4): 1, (4, 2): 1}, (1,)),
    ],
)
def test_expansion_units_cases(p, z, rhs, units):
    assert lemmas.expansion_units(z, rhs, p) == units
    assert _units_by_definition(z, rhs, p) == units


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    # p-powers of every sampled p, and any z
    z=st.one_of(st.sampled_from([1, 4, 8, 9, 25, 27, 49, 125]), st.integers(1, 200)),
    c=st.integers(0, 12),
    data=st.data(),
)
def test_identity_holds_matches_definition(p, z, c, data):
    """expansion_units against the units satisfying the literal identity,
    on right sides near c times the lhs: coefficients shifted by multiples
    of p, then a few keys overwritten on or off the diagonal i + j = z with
    coefficients that may vanish mod p (c = 0 mod p gives an empty or
    vanishing rhs)."""
    rhs = {
        key: c * v + p * data.draw(st.integers(-2, 2))
        for key, v in _lhs_terms(z, p).items()
    }
    keys = st.one_of(
        st.integers(0, z).map(lambda i: (i, z - i)),
        st.tuples(st.integers(0, 210), st.integers(0, 210)),
    )
    noise = st.dictionaries(keys, st.integers(-2 * p, 2 * p), max_size=3)
    rhs.update(data.draw(noise))
    before = dict(rhs)
    assert lemmas.expansion_units(z, rhs, p) == _units_by_definition(z, rhs, p)
    assert rhs == before  # the caller's rhs is shared across z


def _identity_holds_by_definition(c, z, rhs, p):
    """c((a+b)^z - a^z - b^z) = rhs over F_p, zeros dropped on both sides."""
    return {key: c * v % p for key, v in _lhs_terms(z, p).items() if c * v % p} == {
        key: v % p for key, v in rhs.items() if v % p
    }


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), z=st.integers(1, 60), data=st.data())
def test_solutions_match_loop_over_units(p, z, data):
    """Solving each right side with expansion_units, as check_poly_lemma
    does, gives the solutions of the loop it replaces: every unit c outside,
    every item inside, each pair tested against the literal identity."""
    lhs = _lhs_terms(z, p)
    # c times the lhs (zero for c = 0), sometimes with a few terms overwritten
    scaled = st.integers(0, p - 1).map(lambda c: {k: c * v for k, v in lhs.items()})
    noise = st.dictionaries(
        st.integers(0, z).map(lambda i: (i, z - i)), st.integers(-2 * p, 2 * p), max_size=2
    )
    rhss = data.draw(
        st.lists(
            st.tuples(scaled, noise, st.booleans()).map(
                lambda t: {**t[0], **t[1]} if t[2] else t[0]
            ),
            max_size=6,
        )
    )
    solved = [
        (c, i) for i, rhs in enumerate(rhss) for c in lemmas.expansion_units(z, rhs, p)
    ]
    looped = [
        (c, i)
        for c in range(1, p)
        for i, rhs in enumerate(rhss)
        if _identity_holds_by_definition(c, z, rhs, p)
    ]
    assert sorted(solved) == looped
