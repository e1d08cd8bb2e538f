import pytest

from rank2chev import chevrep
from rank2chev.chevrep import Ext, Leaf, Sym, Tensor, UnknownModule
from rank2chev.exactalg import PolyFp, PrimeField
from rank2chev.rootdata import GroupId

F2, F3, F5, F7 = map(PrimeField, (2, 3, 5, 7))


def test_unknown_module():
    with pytest.raises(UnknownModule):
        chevrep.build_rep(GroupId.SL3, "V2", F3)


def test_g2_printed_matrices():
    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    x = PolyFp.var(F5, "x")
    u2 = rep.u(2, x)
    # I + x(-E23 + E56)
    assert u2.entries[1][2] == -x
    assert u2.entries[4][5] == x
    nonzero = {
        (r, c)
        for r in range(7)
        for c in range(7)
        if r != c and u2.entries[r][c].terms
    }
    assert nonzero == {(1, 2), (4, 5)}
    u1 = rep.u(1, x)
    assert u1.entries[2][4] == x**2  # the x^2 E35 term
    assert u1.entries[2][3] == 2 * x
    u4 = rep.u(4, x)
    assert u4.entries[0][6] == -(x**2)


def test_sl3_matrices():
    rep = chevrep.build_rep(GroupId.SL3, "natural", F5)
    x = PolyFp.var(F5, "x")
    u3 = rep.u(3, x)
    assert u3.entries[0][2] == x
    assert sum(1 for r in range(3) for c in range(3) if r != c and u3.entries[r][c].terms) == 1


def test_sp4_v1_dimension_and_weights():
    rep = chevrep.build_rep(GroupId.SP4, "V1", F3)
    assert rep.dim == 5
    # omega1, omega1-a1, omega1-a1-a2, omega1-a1-2a2, omega1-2a1-2a2
    assert rep.weights == ((1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0))


@pytest.mark.parametrize("group,module", [
    (GroupId.SL3, "natural"),
    (GroupId.SP4, "V2"),
    (GroupId.SP4, "V1"),
    (GroupId.G2, "V"),
])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_validate_rep_all_modules(group, module, p):
    report = chevrep.validate_rep(chevrep.build_rep(group, module, PrimeField(p)))
    assert report.ok, report.failures()


def test_sl2_triples():
    # [e_a, f_a] must act as the coroot pairing on every weight vector
    for group, module in [
        (GroupId.SL3, "natural"),
        (GroupId.SP4, "V2"),
        (GroupId.SP4, "V1"),
        (GroupId.G2, "V"),
    ]:
        rep = chevrep.build_rep(group, module, PrimeField(101))
        datum = rep.datum
        for i in range(1, datum.num_positive + 1):
            e = dict(rep.divided_powers(i))[1]
            f = dict(rep.divided_powers(-i))[1]

            def mul(a, b):
                out = {}
                for (r, k), v in a.items():
                    for (k2, c), w in b.items():
                        if k == k2:
                            out[(r, c)] = out.get((r, c), 0) + v * w
                return out

            ef, fe = mul(e, f), mul(f, e)
            coroot = datum.coroot_coords(datum.positive_roots[i - 1])
            for r in range(rep.dim):
                wt = rep.weights[r]
                h = wt[0] * coroot[0] + wt[1] * coroot[1]
                assert ef.get((r, r), 0) - fe.get((r, r), 0) == h
            offdiag = {
                k: ef.get(k, 0) - fe.get(k, 0)
                for k in set(ef) | set(fe)
                if k[0] != k[1]
            }
            assert not any(offdiag.values())


def test_cocharacter_weights_examples():
    from rank2chev.subgrp import TSpec

    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    q = 1
    assert chevrep.cocharacter_weights(rep, TSpec(2 * q, 3 * q, 1)) == (
        2 * q, q, q, 0, -q, -q, -2 * q,
    )
    assert chevrep.cocharacter_weights(rep, TSpec(q, q, 1)) == (
        q, 0, q, 0, -q, 0, -q,
    )
    with pytest.raises(ValueError):
        TSpec(0, 0, 1)


def test_ext2_of_sl3_action():
    rep = chevrep.build_rep(GroupId.SL3, "natural", F5)
    expr = Ext(2, Leaf(rep))
    f = chevrep.apply_functor(expr)
    assert f.dim == 3
    x = PolyFp.var(F5, "x")
    m = f.u(1, x)  # u_{a1}(x)
    labels = f.labels
    i13 = labels.index((0, 2))
    i23 = labels.index((1, 2))
    # e1^e3 is fixed; e2^e3 -> e2^e3 + x e1^e3 (hand 2-minor expansion)
    assert m.entries[i13][i13] == 1
    assert all(
        not m.entries[r][i13].terms for r in range(3) if r != i13
    )
    assert m.entries[i23][i23] == 1
    assert m.entries[i13][i23] == x


def test_sym1_is_identity_functor():
    rep = chevrep.build_rep(GroupId.SP4, "V2", F3)
    f = chevrep.apply_functor(Sym(1, Leaf(rep)))
    x = PolyFp.var(F3, "x")
    for root in (1, 2, 3, 4):
        assert f.u(root, x).entries == rep.u(root, x).entries


def test_ext3_g2_wedge_action_has_2e34_term():
    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    expr = Ext(3, Leaf(rep))
    f = chevrep.apply_functor(expr)
    assert f.dim == 35
    x = PolyFp.var(F5, "x")
    u1 = rep.u(1, x)
    # v4 slot image contains 2x v3 per the printed 2E34 term
    assert u1.entries[2][3] == 2 * x
    # on w = (v2 - v3) ^ v4 ^ v6 the same term surfaces as 2x (v2^v3^v6)
    w = {(1, 3, 5): 1, (2, 3, 5): -1}
    img = chevrep.act_on_vector(expr, u1, w)
    assert img[(1, 2, 5)] == 2 * x
    assert img[(0, 3, 5)] == x  # the E12 slot contributes x (v1^v4^v6)


def test_cocharacter_weights_zero_cocharacter():
    from types import SimpleNamespace

    rep = chevrep.build_rep(GroupId.G2, "V", F3)
    zero = SimpleNamespace(m1=0, m2=0)
    assert chevrep.cocharacter_weights(rep, zero) == (0,) * 7


def test_functor_weights_are_sums():
    rep = chevrep.build_rep(GroupId.G2, "V", F3)
    f = chevrep.apply_functor(Ext(3, Leaf(rep)))
    for label, wt in zip(f.labels, f.weights):
        parts = [rep.weights[i] for i in label]
        assert len(set(label)) == 3
        assert wt == (sum(w[0] for w in parts), sum(w[1] for w in parts))
    t = chevrep.apply_functor(Tensor((Leaf(rep), Leaf(rep))))
    for label, wt in zip(t.labels, t.weights):
        parts = [rep.weights[i] for i in label]
        assert wt == (sum(w[0] for w in parts), sum(w[1] for w in parts))


def test_leaf_names_and_bare_matrix_action():
    v2 = Leaf(chevrep.build_rep(GroupId.SP4, "V2", F3))
    v1 = Leaf(chevrep.build_rep(GroupId.SP4, "V1", F3))
    assert chevrep.leaf_names(Sym(2, Ext(2, v2))) == {"V2"}
    mixed = Tensor((Sym(2, v2), v1))
    assert chevrep.leaf_names(mixed) == {"V1", "V2"}
    # a bare matrix is accepted only when one leaf module occurs
    u = v2.rep.u(1, PolyFp.var(F3, "x"))
    assert chevrep.act_on_vector(Sym(1, v2), u, {(0,): 1})
    with pytest.raises(ValueError):
        chevrep.act_on_vector(mixed, u, {((0, 0), 0): 1})


def test_dimension_overflow_cap():
    rep = chevrep.build_rep(GroupId.G2, "V", F2)
    with pytest.raises(chevrep.DimensionOverflow):
        chevrep.apply_functor(Sym(40, Leaf(rep)), dim_cap=1000)


def test_root_element_determinants():
    x = PolyFp.var(F3, "x")
    for group in GroupId:
        rep = chevrep.faithful_rep(group, F3)
        for i in range(1, rep.datum.num_positive + 1):
            assert rep.u(i, x).det() == 1
            assert rep.u(-i, x).det() == 1
