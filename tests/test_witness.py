from importlib import resources

import pytest

from rank2chev import chevrep, subgrp, witness
from rank2chev.exactalg import PolyFp, PrimeField
from rank2chev.rootdata import GroupId
from rank2chev.subgrp import USpec, u_matrix

F2, F3, F5 = map(PrimeField, (2, 3, 5))

# the witnesses.txt row of SL3 case 2's guard branch q1 = 2q3
_SL3_Q1_2Q3 = "SL3 | 2 | q1=2q3 |"


def _wrow(group, case, guard="-"):
    for wr in witness.load_witness_rows():
        if wr.group is group and wr.case == case and wr.guard == guard:
            return wr
    raise KeyError((group, case, guard))


def test_g2_case2_printed_computations():
    # u(x)(v2 - v3) = v2 - v3, u(x)v4 = v4 + 2x^q (v3 - v2),
    # u(x)v6 = v6 - x^q v4 + x^{2q} (v2 - v3)
    rows = {r.case: r for r in subgrp.rows_for_group(GroupId.G2)}
    spec, t = subgrp.instantiate_case(rows["2"], 5, {"q1": 0})
    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    m = u_matrix(spec, rep)
    x = PolyFp.monomial(F5, 1, {"x": 1})

    def col(j):
        return [m.entries[r][j] for r in range(7)]

    v2mv3 = [a + -b for a, b in zip(col(1), col(2))]
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
    spec, t = subgrp.instantiate_case(rows["5"], 3, {"q2": 0})
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
    p, assign = witness.guard_instantiation(rows["2"], "q1>2q3")
    assert p == 2 and 2 ** assign["q1"] > 2 * 2 ** assign["q3"]
    p, assign = witness.guard_instantiation(rows["2"], "q1=2q3")
    assert p == 2 and 2 ** assign["q1"] == 2 * 2 ** assign["q3"]
    p, assign = witness.guard_instantiation(rows["2"], "q1=q3")
    assert p == 2 and assign["q1"] == assign["q3"]
    # the least sum of p-powers: q1 = q3 = 1, not q1 = 2
    assert witness.guard_instantiation(rows["2"], "q1>=q3") == (2, {"q1": 0, "q3": 0})


def test_guard_sides_swapped_verify_the_same_branch(tmp_path):
    text = (resources.files("rank2chev") / "data" / "witnesses.txt").read_text()
    assert _SL3_Q1_2Q3 in text
    swapped = tmp_path / "witnesses.txt"
    swapped.write_text(text.replace(_SL3_Q1_2Q3, "SL3 | 2 | 2q3=q1 |"))
    rows = witness.load_witness_rows(str(swapped))
    (row,) = [r for r in rows if r.guard == "2q3=q1"]
    recs = witness.verify_witness(row)
    assert [(r["case"], r["status"]) for r in recs] == [("SL3/case2[2q3=q1]", "pass")]
    assert [r["instantiation"] for r in recs] == [
        r["instantiation"]
        for r in witness.verify_witness(_wrow(GroupId.SL3, "2", "q1=2q3"))
    ]
    assert recs[0]["instantiation"] == "p=2,f[q1]=1,f[q3]=0"


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
    assert witness._rank1_unipotent(F5, 2, 1) == [
        [{0: 1}, {1: 1}, {2: 1}],
        [{}, {0: 1}, {1: 2}],
        [{}, {}, {0: 1}],
    ]
    # binomials vanishing mod p leave the entry empty: C(3, 1) = 0 mod 3
    assert witness._rank1_unipotent(F3, 3, 3)[0][3] == {9: 1}
    assert witness._rank1_unipotent(F3, 3, 3)[2][3] == {}


def test_rescaling_rows_are_the_conjugation_identity():
    # case = Gamma model Gamma^-1 entry by entry: for gamma = (1, 2) over F_5
    # the model x^q above the diagonal becomes 2^-1 x^q = 3 x^q
    model = witness._rank1_unipotent(F5, 1, 1)
    case = [[{0: 1}, {1: 3}], [{}, {0: 1}]]
    rows = witness._rescaling_rows(case, model)
    assert all(sum(a * g for a, g in zip(row, (1, 2))) % 5 == 0 for row in rows)
    assert witness._rescaling_gamma(rows, 2, 5) == [1, 2]


def test_rescaling_gamma_scales_to_gamma0_one():
    # the kernel of x0 - 2 x1 over F_5 is spanned by (2, 1); scaled, (1, 3)
    assert witness._rescaling_gamma([[1, -2]], 2, 5) == [1, 3]


@pytest.mark.parametrize(
    "rows,n",
    [
        ([], 2),  # 2-dimensional kernel
        ([[1, -1, 0]], 3),  # 2-dimensional kernel
        ([[1, 0]], 2),  # kernel vector (0, 1) has a zero entry
        ([[1, 0], [0, 1]], 2),  # trivial kernel
    ],
)
def test_rescaling_gamma_rejects(rows, n):
    with pytest.raises(witness.RescalingUnsolvable):
        witness._rescaling_gamma(rows, n, 5)


def test_principal_a1_g2_wrong_gamma_fails(monkeypatch):
    n, gamma = witness._PRINCIPAL_DATA[GroupId.G2]
    for i in range(len(gamma)):
        bad = list(gamma)
        bad[i] += 1
        monkeypatch.setitem(witness._PRINCIPAL_DATA, GroupId.G2, (n, tuple(bad)))
        rec = witness.check_principal_a1(GroupId.G2)
        assert rec["status"] == "fail"
        assert rec["detail"] == (
            "G2: printed rescaling does not match the rank-1 model"
        )


@pytest.mark.parametrize("group", [GroupId.SL3, GroupId.SP4])
def test_principal_a1_changed_model_coefficient_fails(monkeypatch, group):
    original = witness._rank1_unipotent

    def changed(field, n, q):
        rows = original(field, n, q)
        rows[0][1] = {e: 2 * c % field.p for e, c in rows[0][1].items()}
        return rows

    monkeypatch.setattr(witness, "_rank1_unipotent", changed)
    rec = witness.check_principal_a1(group)
    assert rec["status"] == "fail"
    assert rec["detail"] == f"{group}: rescaling kernel has dimension 0"


def test_fallback_space_contains_passing_printed_witness():
    # consistency of the two paths: when check (i) passes, the printed
    # vector lies in the kernel the fallback machinery computes
    wr = _wrow(GroupId.G2, "2")
    crow = witness._case_row(GroupId.G2, "2")
    p, f_assign = witness.guard_instantiation(crow, wr.guard)
    field = PrimeField(p)
    spec, t = subgrp.instantiate_case(crow, p, f_assign, {})
    q_env = {s: p**f for s, f in f_assign.items()}
    expr = witness.parse_module_expr(wr.module_src, GroupId.G2, field, q_env)
    w = witness.parse_vector(wr.vector_src, expr, field, {}, q_env)
    mats = {
        name: u_matrix(spec, chevrep.build_rep(GroupId.G2, name, field))
        for name in chevrep.leaf_names(expr)
    }
    assert witness._acts_trivially(expr, mats, w, field)
    # every graded slice of u(x) - 1, built column by column from the
    # basis-vector images, kills the printed vector
    acc = {}
    for label, coeff in w.items():
        image = chevrep.act_on_vector(expr, mats, {label: 1})
        for image_label, poly in image.items():
            for mono, v in poly.monomials():
                k = mono.get("x", 0)
                if k == 0:
                    v = v - (1 if image_label == label else 0)
                key = (image_label, k)
                acc[key] = (acc.get(key, 0) + v * coeff) % field.p
    assert acc
    assert all(v == 0 for v in acc.values())


def test_fallback_witness_dimension_cap():
    # S^4(T(V, V)) over G2 has dimension C(52, 4), far above the cap; the
    # fallback declines before building anything
    rep = chevrep.build_rep(GroupId.G2, "V", F2)
    expr = chevrep.Sym(4, chevrep.Tensor((chevrep.Leaf(rep), chevrep.Leaf(rep))))
    dim = chevrep.expr_dim(expr)
    assert dim > witness.FALLBACK_DIM_CAP
    t = subgrp.TSpec(1, 0, 1)
    assert witness._fallback_witness(expr, {}, t, F2) == (
        None,
        f"module dimension {dim} above fallback cap",
    )


def test_corrupt_data_file(tmp_path):
    bad = tmp_path / "w.txt"
    bad.write_text("G2 | 2 | - | wedge3(V)\n")
    with pytest.raises(subgrp.DataFileCorrupt):
        witness.load_witness_rows(str(bad))
    bad2 = tmp_path / "t.txt"
    bad2.write_text("XX | 1 | q1 | 1 | q1,q1 | any\n")
    with pytest.raises(subgrp.DataFileCorrupt):
        subgrp.load_case_rows(str(bad2))


def _verify_witness_rows(path):
    for row in witness.load_witness_rows(path):
        witness.verify_witness(row)


@pytest.mark.parametrize(
    "name,old,new,loader",
    [
        # a c-pattern symexpr cannot parse
        ("case_tables.txt", "| 1,1,-1/2 ", "| 1,1,-1/*2 ", subgrp.load_case_rows),
        # a p-constraint whose bound is not a number
        (
            "case_tables.txt",
            "| q1,q1            | >=3",
            "| q1,q1            | >=x",
            subgrp.load_case_rows,
        ),
        # a p-guard whose bound is an unknown symbol, found when the row is
        # verified
        ("witnesses.txt", "| p>2    |", "| p>=x |", _verify_witness_rows),
        # q-guards naming a symbol that the case row does not have
        ("witnesses.txt", _SL3_Q1_2Q3, "SL3 | 2 | q9=2q3 |", _verify_witness_rows),
        ("witnesses.txt", _SL3_Q1_2Q3, "SL3 | 2 | q1=2q3x |", _verify_witness_rows),
        # a guard that does not parse is found when the file is read
        ("witnesses.txt", _SL3_Q1_2Q3, "SL3 | 2 | q1=>2q3 |", witness.load_witness_rows),
        # a sixth field other than the discrepant flag
        ("witnesses.txt", "| v22 | discrepant", "| v22 | pass", witness.load_witness_rows),
    ],
    ids=[
        "c-pattern",
        "p-constraint",
        "p-guard",
        "q-guard-symbol",
        "q-guard-suffix",
        "guard-syntax",
        "witness-flag",
    ],
)
def test_malformed_data_line_is_corrupt_naming_the_line(
    tmp_path, name, old, new, loader
):
    text = (resources.files("rank2chev") / "data" / name).read_text()
    lines = text.splitlines(keepends=True)
    (lineno,) = [i for i, line in enumerate(lines, start=1) if old in line]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    bad = tmp_path / name
    bad.write_text("".join(lines))
    with pytest.raises(subgrp.DataFileCorrupt, match=rf"line {lineno}: "):
        loader(str(bad))


def test_malformed_witness_coefficient_is_corrupt(tmp_path):
    # the bracketed coefficients are read when the file is read
    text = (resources.files("rank2chev") / "data" / "witnesses.txt").read_text()
    assert "[c4*(c4-3)]*v3" in text
    bad = tmp_path / "witnesses.txt"
    bad.write_text(text.replace("[c4*(c4-3)]*v3", "[c4*/(c4-3)]*v3"))
    with pytest.raises(
        subgrp.DataFileCorrupt, match=r"^line 49: witness G2/case12\[p>2\]: "
    ):
        witness.load_witness_rows(str(bad))


def test_rows_for_group_cached_and_bad_paths_still_raise(tmp_path):
    rows = subgrp.rows_for_group(GroupId.G2)
    assert subgrp.rows_for_group(GroupId.G2) is rows
    assert rows == tuple(
        r for r in subgrp.load_case_rows() if r.group is GroupId.G2
    )
    assert witness._case_row(GroupId.G2, "2") in rows
    # with the cache warm, a corrupt file given by path is still rejected
    test_corrupt_data_file(tmp_path)


def test_vector_parser_rejects_garbage():
    field = F3
    expr = witness.parse_module_expr("V", GroupId.G2, field)
    with pytest.raises(subgrp.DataFileCorrupt, match="'bogus' is not .* of V$"):
        witness.parse_vector("v1 + bogus", expr, field, {}, {})
    # a label of Sp4's other module
    expr = witness.parse_module_expr("V2", GroupId.SP4, field)
    with pytest.raises(subgrp.DataFileCorrupt, match="'v11' is not .* of V2$"):
        witness.parse_vector("v21 + v11", expr, field, {}, {})
    with pytest.raises((subgrp.DataFileCorrupt, chevrep.UnknownModule)):
        witness.parse_module_expr("wedge4(V)", GroupId.G2, field)
    # a tensor vector with more legs than the module has factors
    expr = witness.parse_module_expr("T(V,V)", GroupId.SL3, field)
    with pytest.raises(subgrp.DataFileCorrupt, match="tensor arity"):
        witness.parse_vector("t(e1, e2, e3)", expr, field, {}, {})


def test_module_expr_shapes():
    field = F2
    expr = witness.parse_module_expr(
        "T(S(2,V2), S(3,V1))", GroupId.SP4, field, {}
    )
    assert chevrep.expr_dim(expr) == 10 * 35
