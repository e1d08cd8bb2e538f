import pytest

from rank2chev import chevrep, subgrp, witness
from rank2chev.exactalg import PolyFp, PrimeField
from rank2chev.rootdata import GroupId
from rank2chev.subgrp import USpec, u_matrix

F2, F3, F5 = map(PrimeField, (2, 3, 5))


def _wrow(group, case, guard="-"):
    for wr in witness.load_witness_rows():
        if wr.group is group and wr.case == case and wr.guard.describe() == guard:
            return wr
    raise KeyError((group, case, guard))


def test_g2_case2_printed_computations():
    # u(x)(v2 - v3) = v2 - v3, u(x)v4 = v4 + 2x^q (v3 - v2),
    # u(x)v6 = v6 - x^q v4 + x^{2q} (v2 - v3)
    rows = {r.case: r for r in subgrp.rows_for_group(GroupId.G2)}
    spec, t = subgrp.instantiate_case(rows["2"], 5, {"q1": 0}, 1)
    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    m = u_matrix(spec, rep)
    x = PolyFp.var(F5, "x")

    def col(j):
        return [m.entries[r][j] for r in range(7)]

    v2mv3 = [a - b for a, b in zip(col(1), col(2))]
    expect = [PolyFp.zero(F5)] * 7
    expect[1] = PolyFp.const(F5, 1)
    expect[2] = PolyFp.const(F5, -1)
    assert v2mv3 == expect
    c4 = col(3)
    assert c4[3] == 1 and c4[2] == 2 * x and c4[1] == -2 * x
    c6 = col(5)
    assert c6[5] == 1 and c6[3] == -x and c6[1] == x**2 and c6[2] == -(x**2)


def test_g2_case2_witness_passes():
    recs = witness.verify_witness(_wrow(GroupId.G2, "2"))
    assert all(r["status"] == "pass" for r in recs)


def test_sp4_case5_fallback_finds_v22_minus_v23():
    recs = witness.verify_witness(_wrow(GroupId.SP4, "5"))
    assert len(recs) == 1
    rec = recs[0]
    assert rec["status"] == "discrepant"
    assert "fallback witness" in rec["detail"]
    # the fixed space is spanned by v22 - v23 (as 2*(v22 + 2 v23) mod 3)
    assert "[1]" in rec["detail"] and "[2]" in rec["detail"]


def test_highest_weight_vector_is_not_a_witness():
    # u(x)-fixed but of nonzero T_H-weight: rejected by check (ii)
    rows = {r.case: r for r in subgrp.rows_for_group(GroupId.SP4)}
    spec, t = subgrp.instantiate_case(rows["5"], 3, {"q2": 0}, 1)
    expr = chevrep.Leaf(chevrep.build_rep(GroupId.SP4, "V2", F3))
    w = {0: 1}  # v21
    mats = {"V2": u_matrix(spec, chevrep.build_rep(GroupId.SP4, "V2", F3))}
    assert witness._acts_trivially(expr, mats, w, F3)
    assert not witness._th_weight_zero(expr, w, t)


def test_witness_invariants_on_passing_rows():
    # for every verified witness: fixed, weight 0, and not T-concentrated
    for wr in witness.load_witness_rows():
        recs = witness.verify_witness(wr)
        for rec in recs:
            assert rec["status"] in ("pass", "discrepant")


def test_guard_instantiations():
    rows = {r.case: r for r in subgrp.rows_for_group(GroupId.SL3)}
    g = witness._parse_guard("q1>2q3")
    p, assign = witness.guard_instantiation(rows["2"], g)
    assert p == 2 and 2 ** assign["q1"] > 2 * 2 ** assign["q3"]
    g = witness._parse_guard("q1=2q3")
    p, assign = witness.guard_instantiation(rows["2"], g)
    assert p == 2 and 2 ** assign["q1"] == 2 * 2 ** assign["q3"]
    g = witness._parse_guard("q1=q3")
    p, assign = witness.guard_instantiation(rows["2"], g)
    assert p == 2 and assign["q1"] == assign["q3"]


def test_sl3_prose_witness_q1_gt_2q3_big_module():
    recs = witness.verify_witness(_wrow(GroupId.SL3, "2", "q1>2q3"))
    assert all(r["status"] == "pass" for r in recs)


def test_weight_rows_all_cases():
    for case in ("2", "3", "4", "5", "6", "8", "10", "11", "12", "13", "14",
                 "15", "16", "17", "18", "19"):
        crow = witness._case_row(GroupId.G2, case)
        p = next(p for p in (2, 3, 5, 7) if crow.allows_p(p))
        rec = witness.verify_weight_row(case, p, {s: 0 for s in crow.q_symbols})
        assert rec["status"] == "pass", rec


def test_weight_row_case7_branches():
    rec = witness.verify_weight_row("7", 2, {"q1": 0, "q5": 0})
    assert rec["status"] == "pass"
    rec = witness.verify_weight_row("7", 2, {"q1": 0, "q5": 2})
    assert rec["status"] == "pass"
    rec = witness.verify_weight_row("7", 3, {"q1": 1, "q5": 0})
    assert rec["status"] == "pass"


def test_principal_a1_g2_printed_gamma():
    rec = witness.check_principal_a1(GroupId.G2, 7, 0)
    assert rec["status"] == "pass"
    gamma = tuple(g % 7 for g in (1, 1, -2, -3, -12, -60, -360))
    assert str(gamma) in rec["detail"]


def test_principal_a1_twisted():
    rec = witness.check_principal_a1(GroupId.G2, 7, 1)
    assert rec["status"] == "pass"


def test_principal_a1_sl3_sp4():
    rec = witness.check_principal_a1(GroupId.SL3, 3, 0)
    assert rec["status"] == "discrepant"  # wording: 2-dim vs 3-dim module
    assert "3-dimensional" in rec["detail"]
    rec = witness.check_principal_a1(GroupId.SP4, 5, 0)
    assert rec["status"] == "pass"


def test_principal_a1_characteristic_guard():
    with pytest.raises(subgrp.CharacteristicExcluded):
        witness.check_principal_a1(GroupId.G2, 5, 0)


def test_membership_checks():
    for group, case in witness.membership_cases():
        rec = witness.check_membership(group, case)
        assert rec["status"] == "pass", rec


def test_rank1_model_matrix():
    m = witness._rank1_unipotent(F5, 2, 1)
    x = PolyFp.var(F5, "x")
    assert m.entries[0][1] == x
    assert m.entries[0][2] == x**2
    assert m.entries[1][2] == 2 * x
    assert m.entries[2][2] == 1


def test_fallback_space_contains_passing_printed_witness():
    # consistency of the two paths: when check (i) passes, the printed
    # vector lies in the kernel the fallback machinery computes
    wr = _wrow(GroupId.G2, "2")
    crow = witness._case_row(GroupId.G2, "2")
    p, f_assign = witness.guard_instantiation(crow, wr.guard)
    field = PrimeField(p)
    spec, t = subgrp.instantiate_case(crow, p, f_assign, 1, {})
    q_env = {s: p**f for s, f in f_assign.items()}
    expr = witness.parse_module_expr(wr.module_src, GroupId.G2, field, q_env)
    w = witness.parse_vector(wr.vector_src, expr, GroupId.G2, field, {}, q_env)
    mats = {
        name: u_matrix(spec, chevrep.build_rep(GroupId.G2, name, field))
        for name in chevrep.leaf_names(expr)
    }
    assert witness._acts_trivially(expr, mats, w, field)
    rep = chevrep.apply_functor(expr, dim_cap=witness.FALLBACK_DIM_CAP)
    umat = rep.transform(mats)
    # every graded slice of u(x) - 1 kills the printed vector
    for r in range(rep.dim):
        acc = {}
        for label, coeff in w.items():
            c = rep.index[label]
            for mono, v in umat.entries[r][c].monomials():
                k = mono.get("x", 0)
                if k == 0:
                    v = v - (1 if r == c else 0)
                acc[k] = (acc.get(k, 0) + v * coeff) % field.p
        for k, v in acc.items():
            if k == 0:
                continue
            assert v % field.p == 0


def test_corrupt_data_file(tmp_path):
    bad = tmp_path / "w.txt"
    bad.write_text("G2 | 2 | - | wedge3(V)\n")
    with pytest.raises(subgrp.DataFileCorrupt):
        witness.load_witness_rows(str(bad))
    bad2 = tmp_path / "t.txt"
    bad2.write_text("XX | 1 | q1 | 1 | q1,q1 | any\n")
    with pytest.raises(subgrp.DataFileCorrupt):
        subgrp.load_case_rows(str(bad2))


def test_vector_parser_rejects_garbage():
    field = F3
    expr = witness.parse_module_expr("V", GroupId.G2, field)
    with pytest.raises(subgrp.DataFileCorrupt):
        witness.parse_vector("v1 + bogus", expr, GroupId.G2, field, {}, {})
    with pytest.raises((subgrp.DataFileCorrupt, chevrep.UnknownModule)):
        witness.parse_module_expr("wedge4(V)", GroupId.G2, field)


def test_module_expr_shapes():
    field = F2
    expr = witness.parse_module_expr(
        "T(S(2,V2), S(3,V1))", GroupId.SP4, field, {}
    )
    assert chevrep.expr_dim(expr) == 10 * 35
