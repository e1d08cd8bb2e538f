import pytest

from rank2chev import existence
from rank2chev.exactalg import PrimeField
from rank2chev.rootdata import GroupId
from rank2chev.existence import ExtField

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


def test_normalization_with_larger_twist():
    spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 9)
    assert existence.check_normalization(spec)["status"] == "pass"


def test_burnside_rank1_natural_module():
    # the 2-dim natural module over GF(2): u+(1), u-(1) span all of M_2
    ext = ExtField(2, 1)
    one = ext.one()
    zero = ext.zero()
    up = ((one, one), (zero, one))
    um = ((one, zero), (one, one))
    full, dim = existence.burnside_irreducible([up, um], ext)
    assert full and dim == 4
    # the identity alone spans one dimension
    ident = ((one, zero), (zero, one))
    full, dim = existence.burnside_irreducible([ident], ext)
    assert not full and dim == 1


def test_burnside_monotone_in_generators():
    spec = existence.DiagonalA1Spec(GroupId.SP4, F3, 3)
    from rank2chev import chevrep

    rep = chevrep.faithful_rep(GroupId.SP4, F3)
    ext = ExtField(3, 2)
    gens = existence.y_generators(spec, rep, ext)
    _, dim_all = existence.burnside_irreducible(gens, ext)
    _, dim_some = existence.burnside_irreducible(gens[:2], ext)
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
