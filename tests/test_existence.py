import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chev import chevrep, existence, report
from rank2chev.exactalg import FpSpan, PrimeField
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
    # u+(x), u-(x) and u_c(x): three builds for all the checks of a spec,
    # and again for a new spec
    built = []
    u_rows = chevrep.Representation.u_rows

    def counted(rep, factors):
        built.append(factors)
        return u_rows(rep, factors)

    monkeypatch.setattr(chevrep.Representation, "u_rows", counted)
    for expected in (3, 6):
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
    # the 2-dim natural module over F_2: u+(1), u-(1) span all of M_2
    up = [[{0: 1}, {0: 1}], [{}, {0: 1}]]
    um = [[{0: 1}, {}], [{0: 1}, {0: 1}]]
    full, dim = existence.burnside_irreducible([up, um], 2)
    assert full and dim == 4
    # the identity alone spans one dimension
    ident = [[{0: 1}, {}], [{}, {0: 1}]]
    full, dim = existence.burnside_irreducible([ident], 2)
    assert not full and dim == 1


def test_burnside_monotone_in_generators():
    spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 3)
    gens = existence.y_generators(spec)
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


@pytest.mark.parametrize("quotient,text", [
    ((False, 35), "span 35 of 36"),
    (None, "weight-0 vector is not Y-invariant; quotient undefined"),
])
def test_burnside_g2_p2_unexpected_quotient_span_is_a_fail_record(
    monkeypatch, quotient, text
):
    monkeypatch.setattr(existence, "_g2_char2_quotient_span", lambda gens, rep: quotient)
    spec = existence.DiagonalA1Spec(GroupId.G2, F2, 2)
    (rec,) = existence.check_burnside(spec)
    assert rec["status"] == "fail"
    assert rec["detail"] == (
        f"ambiguous module at p=2: span 43 of 49 on the 7-dim lattice, {text} "
        "on the 6-dim quotient; expected 43 of 49 and 36 of 36 (full)"
    )


def test_burnside_g2_p2_unexpected_lattice_span_is_a_fail_record(monkeypatch):
    real = existence.burnside_irreducible

    def short(gens, p):
        full, dim = real(gens, p)
        return full, dim - 1 if len(gens[0]) == 7 else dim

    monkeypatch.setattr(existence, "burnside_irreducible", short)
    spec = existence.DiagonalA1Spec(GroupId.G2, F2, 2)
    (rec,) = existence.check_burnside(spec)
    assert rec["status"] == "fail"
    assert rec["detail"].startswith("ambiguous module at p=2: span 42 of 49 ")


# -- the span ---------------------------------------------------------------


def _reference_inserts(vectors, p):
    """Insert results and rank by Gaussian elimination over F_p.

    The rows are kept in insertion order; each is reduced against the
    earlier ones, so it is zero in their lead columns and a new vector can
    be reduced row by row in that order.
    """
    rows = []
    results = []
    for vec in vectors:
        v = list(vec)
        for lead, row in rows:
            f = v[lead]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if x), None)
        results.append(lead is not None)
        if lead is not None:
            s = next(b for b in range(1, p) if v[lead] * b % p == 1)
            rows.append((lead, [s * x % p for x in v]))
    return results, len(rows)


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_ext_span_matches_reference_elimination(p, data):
    width = data.draw(st.integers(1, 5))
    # at most `width` inserts succeed, so most lists end in dependent vectors
    vectors = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=width, max_size=width),
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
    vectors = []
    for _ in range(width + 12):
        if vectors and rnd.random() < 0.3:
            # a combination of up to three earlier vectors: dependent
            v = [0] * width
            for u in rnd.sample(vectors, min(3, len(vectors))):
                f = rnd.randrange(p)
                v = [(x + f * y) % p for x, y in zip(v, u)]
        else:
            density = rnd.choice((0.05, 0.3, 1.0))
            v = [rnd.randrange(1, p) if rnd.random() < density else 0 for _ in range(width)]
        vectors.append(v)
    span = existence._ExtSpan(p)
    got = []
    for v in vectors:
        got.append(span.insert(v))
        _assert_sparse_echelon(span, width)
    want, rank = _reference_inserts(vectors, p)
    assert got == want
    assert span.dim == rank


def test_counted_span_inserts_are_the_burnside_spans_only(monkeypatch):
    # perfbench's tracer wraps the insert of existence._ExtSpan to count
    # the Burnside span's inserts: at primes 2, 3, 5 they are 978, 225 of
    # them useful.  The witness kernels insert into a plain FpSpan, so the
    # witnesses suite, which solves such kernels, adds none to that count.
    counts = {}

    def count(cls):
        insert = vars(cls)["insert"]
        calls = counts[cls] = [0, 0]

        def wrapper(self, vec):
            useful = insert(self, vec)
            calls[0] += 1
            calls[1] += useful
            return useful

        monkeypatch.setattr(cls, "insert", wrapper)

    count(existence._ExtSpan)
    count(FpSpan)
    existence.existence_records((2, 3, 5))
    assert counts == {existence._ExtSpan: [978, 225], FpSpan: [0, 0]}
    report.run_suite(report.RunConfig(suites=("witnesses",)))
    assert counts[existence._ExtSpan] == [978, 225]
    assert counts[FpSpan][0] > 0


# (full, dim) of the Burnside span of every generator set of
# existence_records((2, 3, 5, 7, 11, 13)), and of G2's 6-dim quotient at p = 2
_BURNSIDE_SPANS = {
    (GroupId.SP4, 2): (True, 16),
    (GroupId.SP4, 3): (True, 16),
    (GroupId.SP4, 5): (True, 16),
    (GroupId.SP4, 7): (True, 16),
    (GroupId.SP4, 11): (True, 16),
    (GroupId.SP4, 13): (True, 16),
    (GroupId.G2, 2): (False, 43),
    (GroupId.G2, 3): (True, 49),
    (GroupId.G2, 5): (True, 49),
    (GroupId.G2, 7): (True, 49),
    (GroupId.G2, 11): (True, 49),
    (GroupId.G2, 13): (True, 49),
}


@pytest.mark.parametrize("group,p", sorted(_BURNSIDE_SPANS, key=str), ids=str)
def test_burnside_spans_of_existence_generators(group, p):
    spec = existence.DiagonalA1Spec(group, PrimeField(p), p)
    rep = chevrep.faithful_rep(group, spec.field)
    gens = existence.y_generators(spec)
    assert existence.burnside_irreducible(gens, p) == _BURNSIDE_SPANS[group, p]
    # generators already in the span are skipped; the order does not matter
    assert existence.burnside_irreducible(gens[::-1], p) == _BURNSIDE_SPANS[group, p]
    if (group, p) == (GroupId.G2, 2):
        assert existence._g2_char2_quotient_span(gens, rep) == (True, 36)


def test_existence_memory_does_not_grow_with_p_squared():
    # the span works over F_p on the slices of u(x), so nothing it keeps
    # grows with p
    tracemalloc.start()
    try:
        records = existence.existence_records((23,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r["status"] for r in records] == ["pass"] * 8
    assert peak < 2 * 2**20
