import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chev import chevrep, existence
from rank2chev.exactalg import PrimeField
from rank2chev.rootdata import GroupId

F2, F3, F5 = map(PrimeField, (2, 3, 5))


def test_spec_validation():
    with pytest.raises(ValueError):
        existence.DiagonalA1Spec(GroupId.SL3, F3, 3)
    with pytest.raises(ValueError):
        existence.DiagonalA1Spec(GroupId.SP4, F3, 1)
    with pytest.raises(ValueError):
        existence.DiagonalA1Spec(GroupId.SP4, F3, 6)
    # q = 0 is divisible by every power of p; it must be rejected, not loop
    with pytest.raises(ValueError):
        existence.DiagonalA1Spec(GroupId.SP4, F2, 0)


def test_sp4_torus_coordinates():
    spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 3)
    # a1v(l^{1+q}) a2v(l^{q}); the companion pairing is q + 1
    assert spec.torus() == (4, 3)
    spec2 = existence.DiagonalA1Spec(GroupId.SP4, F2, 2)
    rec = existence.check_h_torus(spec2)
    assert rec["status"] == "pass"
    assert "a1(h)=2" in rec["detail"] and "a2(h)=1" in rec["detail"]
    assert "companion weight 3" in rec["detail"]


def test_g2_torus_coordinates():
    spec = existence.DiagonalA1Spec(GroupId.G2, F5, 5)
    # a1v(l^{1+q}) a2v(l^{2q}) for G2; companion weight q + 3
    assert spec.torus() == (6, 10)
    rec = existence.check_h_torus(spec)
    assert rec["status"] == "pass" and "companion weight 8" in rec["detail"]


@pytest.mark.parametrize("group", [GroupId.SP4, GroupId.G2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_normalization_and_summands(group, p):
    spec = existence.DiagonalA1Spec(group, PrimeField(p), p)
    assert existence.check_normalization(spec)["status"] == "pass"
    assert existence.check_a_summands(spec)["status"] == "pass"


def test_rows_are_built_once_per_spec(monkeypatch):
    # u+(x) and u-(x) are two root factors each and u_c(x) one: five root
    # elements for all the checks of a spec, and again for a new spec
    built = []
    root_rows = chevrep.Representation.root_rows

    def counted(rep, *args):
        built.append(args)
        return root_rows(rep, *args)

    monkeypatch.setattr(chevrep.Representation, "root_rows", counted)
    for expected in (5, 10):
        spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 3)
        existence.check_normalization(spec)
        existence.check_a_summands(spec)
        existence.check_burnside(spec)
        assert len(built) == expected


def test_normalization_with_larger_twist():
    spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 9)
    assert existence.check_normalization(spec)["status"] == "pass"


@pytest.mark.parametrize("group,weight", [(GroupId.SP4, 2), (GroupId.G2, 0)])
def test_normalization_fails_for_a_wrong_companion(monkeypatch, group, weight):
    # the simple root a2 is not centralized by u+(x), and h scales it by
    # its own pairing
    monkeypatch.setattr(existence.DiagonalA1Spec, "companion", 2)
    rec = existence.check_normalization(existence.DiagonalA1Spec(group, F3, 3))
    assert (rec["status"], rec["detail"]) == (
        "fail", f"centralized=False, torus scales by weight {weight}"
    )


@pytest.mark.parametrize("group,spans", [
    (GroupId.SP4, ((0, 1), (2, 3))),
    (GroupId.G2, ((0, 1, 2, 3), (4, 5, 6))),
])
def test_summands_fail_for_wrong_subspaces(monkeypatch, group, spans):
    # subspaces that are not the A-isotypic ones are not A-stable, and the
    # companion keeps the first inside itself
    monkeypatch.setitem(existence._SUMMANDS, group, spans)
    rec = existence.check_a_summands(existence.DiagonalA1Spec(group, F5, 5))
    assert (rec["status"], rec["detail"]) == (
        "fail", "stable=False, leaks=[False, True]"
    )


def test_burnside_rank1_natural_module():
    # the 2-dim natural module over GF(4): u+(1), u-(1) span all of M_2
    up = ((1, 1), (0, 1))
    um = ((1, 0), (1, 1))
    full, dim = existence.burnside_irreducible([up, um], 2)
    assert full and dim == 4
    # the identity alone spans one dimension
    ident = ((1, 0), (0, 1))
    full, dim = existence.burnside_irreducible([ident], 2)
    assert not full and dim == 1


def test_burnside_monotone_in_generators():
    spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 3)
    from rank2chev import chevrep

    rep = chevrep.faithful_rep(GroupId.SP4, F3)
    gens = existence.y_generators(spec, rep)
    _, dim_all = existence.burnside_irreducible(gens, 3)
    _, dim_some = existence.burnside_irreducible(gens[:2], 3)
    assert dim_some <= dim_all == 16


@pytest.mark.parametrize("p", [3, 5])
def test_burnside_sp4_full(p):
    spec = existence.DiagonalA1Spec(GroupId.SP4, PrimeField(p), p)
    recs = existence.check_burnside(spec)
    assert recs[0]["status"] == "pass"
    assert "16 of 16" in recs[0]["detail"]


def test_burnside_g2_p3_full():
    spec = existence.DiagonalA1Spec(GroupId.G2, F3, 3)
    recs = existence.check_burnside(spec)
    assert recs[0]["status"] == "pass" and "49 of 49" in recs[0]["detail"]


def test_burnside_g2_p2_ambiguity_reported():
    spec = existence.DiagonalA1Spec(GroupId.G2, F2, 2)
    recs = existence.check_burnside(spec)
    assert recs[0]["status"] == "discrepant"
    assert "7-dim" in recs[0]["detail"] and "6-dim" in recs[0]["detail"]
    assert "36 of 36" in recs[0]["detail"]


# -- GF(p^2) tables and the span ---------------------------------------------


def _digits(n, p):
    """The coefficient pair (lowest first) of the encoded element n."""
    return (n % p, n // p)


# the ids name (p, extension degree); the degree is always 2
@pytest.mark.parametrize("p", [2, 3, 5, 7], ids=lambda p: f"{p}-2")
def test_gf_tables_are_the_tuple_arithmetic(p):
    q = p * p
    modulus = existence.find_irreducible(p)
    add, mul, neg, inv = existence.gf_tables(p)
    assert existence.gf_tables(p) is existence.gf_tables(p)
    for a, b in itertools.product(range(q), repeat=2):
        da, db = _digits(a, p), _digits(b, p)
        assert _digits(add[a][b], p) == tuple((x + y) % p for x, y in zip(da, db))
        assert _digits(mul[a][b], p) == existence.poly_mulmod(da, db, modulus, p)
    for a in range(q):
        assert add[a][neg[a]] == 0
    assert inv[0] is None
    for a in range(1, q):
        assert mul[a][inv[a]] == 1
    # F_p sits in GF(p^2) as 0..p-1
    for a, b in itertools.product(range(p), repeat=2):
        assert mul[a][b] == a * b % p and add[a][b] == (a + b) % p
    # the product is associative and distributes over the sum
    elems = range(q) if q <= 9 else range(0, q, 5)
    for a, b, c in itertools.product(elems, repeat=3):
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def _reference_inserts(vectors, p):
    """Insert results and rank by Gaussian elimination on coefficient tuples.

    The rows are kept in insertion order; each is reduced against the
    earlier ones, so it is zero in their lead columns and a new vector can
    be reduced row by row in that order.
    """
    modulus = existence.find_irreducible(p)
    zero, one = (0, 0), (1, 0)

    def mul(a, b):
        return existence.poly_mulmod(a, b, modulus, p)

    def sub_multiple(x, f, y):  # x - f y
        return tuple((xi - ci) % p for xi, ci in zip(x, mul(f, y)))

    elems = list(itertools.product(range(p), repeat=2))
    rows = []
    results = []
    for vec in vectors:
        v = [_digits(x, p) for x in vec]
        for lead, row in rows:
            f = v[lead]
            if f != zero:
                v = [sub_multiple(x, f, y) for x, y in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if x != zero), None)
        results.append(lead is not None)
        if lead is not None:
            s = next(b for b in elems if mul(v[lead], b) == one)
            rows.append((lead, [mul(s, x) for x in v]))
    return results, len(rows)


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_ext_span_matches_reference_elimination(p, data):
    q = p * p
    width = data.draw(st.integers(1, 5))
    # at most `width` inserts succeed, so most lists end in dependent vectors
    vectors = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
            max_size=12,
        )
    )
    span = existence._ExtSpan(p)
    got = [span.insert(v) for v in vectors]
    want, rank = _reference_inserts(vectors, p)
    assert got == want
    assert span.dim == rank
    # the pivot rows are in reduced echelon form
    for lead, row in span.pivots.items():
        assert row[lead] == 1
        assert all(o[lead] == 0 for c, o in span.pivots.items() if c != lead)


def _assert_sparse_echelon(span, width):
    """Each stored index list is the nonzero columns of its row, and the
    rows are in reduced echelon form: each starts at its pivot with a 1,
    and every pivot column is zero in the other rows."""
    assert span.support.keys() == span.pivots.keys()
    for lead, row in span.pivots.items():
        assert len(row) == width
        assert span.support[lead] == [j for j, x in enumerate(row) if x]
        assert span.support[lead][0] == lead and row[lead] == 1
        assert all(o[lead] == 0 for c, o in span.pivots.items() if c != lead)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    width=st.integers(1, 49),
    rnd=st.randoms(use_true_random=False),
)
def test_ext_span_sparse_rows_near_full_dimension(p, width, rnd):
    """Enough vectors to fill the span, some sparse, some dense, with
    combinations of earlier vectors mixed in, so the pivot rows go from
    dense to sparse as the dimension nears the width."""
    q = p * p
    add, mul = existence.gf_tables(p)[:2]
    vectors = []
    for _ in range(width + 12):
        if vectors and rnd.random() < 0.3:
            # a combination of up to three earlier vectors: dependent
            v = [0] * width
            for u in rnd.sample(vectors, min(3, len(vectors))):
                f = rnd.randrange(q)
                v = [add[x][mul[f][y]] for x, y in zip(v, u)]
        else:
            density = rnd.choice((0.05, 0.3, 1.0))
            v = [rnd.randrange(1, q) if rnd.random() < density else 0 for _ in range(width)]
        vectors.append(v)
    span = existence._ExtSpan(p)
    got = []
    for v in vectors:
        got.append(span.insert(v))
        _assert_sparse_echelon(span, width)
    want, rank = _reference_inserts(vectors, p)
    assert got == want
    assert span.dim == rank


# (full, dim) of the Burnside span of every generator set of
# existence_records((2, 3, 5, 7)), and of G2's 6-dim quotient at p = 2
_BURNSIDE_SPANS = {
    (GroupId.SP4, 2): (True, 16),
    (GroupId.SP4, 3): (True, 16),
    (GroupId.SP4, 5): (True, 16),
    (GroupId.SP4, 7): (True, 16),
    (GroupId.G2, 2): (False, 43),
    (GroupId.G2, 3): (True, 49),
    (GroupId.G2, 5): (True, 49),
    (GroupId.G2, 7): (True, 49),
}


@pytest.mark.parametrize("group,p", sorted(_BURNSIDE_SPANS, key=str), ids=str)
def test_burnside_spans_of_existence_generators(group, p):
    spec = existence.DiagonalA1Spec(group, PrimeField(p), p)
    rep = chevrep.faithful_rep(group, spec.field)
    gens = existence.y_generators(spec, rep)
    assert existence.burnside_irreducible(gens, p) == _BURNSIDE_SPANS[group, p]
    if (group, p) == (GroupId.G2, 2):
        assert existence._g2_char2_quotient_dim(gens, rep) == "span 36 of 36 (full)"
