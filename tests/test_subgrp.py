import itertools

import pytest

from rank2chev import chevrep, subgrp
from rank2chev.exactalg import PolyFp, PrimeField
from rank2chev.existence import ExtField
from rank2chev.rootdata import GroupId

F2, F3, F5 = map(PrimeField, (2, 3, 5))


# -- normal form -------------------------------------------------------------


def test_normal_form_sl3_examples():
    rep = chevrep.faithful_rep(GroupId.SL3, F5)
    a, b = PolyFp.var(F5, "a"), PolyFp.var(F5, "b")
    s = subgrp.normal_form_factorize(rep.u(1, a) * rep.u(2, b), rep)
    assert s == [a, b, PolyFp.zero(F5)]
    s = subgrp.normal_form_factorize(rep.u(2, b) * rep.u(1, a), rep)
    assert s == [a, b, -(a * b)]
    s = subgrp.normal_form_factorize(rep.u(1, 0) * rep.u(2, 0), rep)
    assert all(x.is_zero() for x in s)


def test_normal_form_roundtrip_g2():
    rep = chevrep.faithful_rep(GroupId.G2, F3)
    a, b = PolyFp.var(F3, "a"), PolyFp.var(F3, "b")
    g = rep.u(2, a) * rep.u(1, b) * rep.u(4, a * b) * rep.u(6, a + b)
    coords = subgrp.normal_form_factorize(g, rep)
    redone = chevrep.PolyMatrix.identity(F3, rep.dim)
    for i, s in enumerate(coords, start=1):
        redone = redone * rep.u(i, s)
    assert redone == g


def test_normal_form_rejects_non_unipotent():
    rep = chevrep.faithful_rep(GroupId.SL3, F5)
    bad = rep.u(-1, PolyFp.var(F5, "a"))
    with pytest.raises(subgrp.NotUnipotent):
        subgrp.normal_form_factorize(bad, rep)


def test_normal_form_representation_independent():
    a, b = PolyFp.var(F3, "a"), PolyFp.var(F3, "b")
    coords = []
    for module in ("V2", "V1"):
        rep = chevrep.build_rep(GroupId.SP4, module, F3)
        g = rep.u(2, a) * rep.u(1, b) * rep.u(3, a)
        coords.append(subgrp.normal_form_factorize(g, rep))
    assert coords[0] == coords[1]


# -- derived systems ----------------------------------------------------------


def test_derived_system_matches_reference():
    assert subgrp.system_diffs(GroupId.SP4) == []
    assert subgrp.system_diffs(GroupId.G2) == []
    assert subgrp.system_diffs(GroupId.SL3) == list(
        subgrp.KNOWN_SYSTEM_DISCREPANCIES[GroupId.SL3]
    )


def test_verify_system_statuses():
    assert subgrp.verify_system(GroupId.SP4)["status"] == "pass"
    assert subgrp.verify_system(GroupId.G2)["status"] == "pass"
    assert subgrp.verify_system(GroupId.SL3)["status"] == "discrepant"


def test_derivation_module_independent():
    # the collection constants are intrinsic: factorizing u(a)u(b) in the
    # 5-dim module yields the same system as the 4-dim one
    field = PrimeField(1009)
    rep = chevrep.build_rep(GroupId.SP4, "V1", field)
    ua = chevrep.PolyMatrix.identity(field, rep.dim)
    ub = chevrep.PolyMatrix.identity(field, rep.dim)
    for i in range(1, 5):
        ua = ua * rep.u(i, PolyFp.monomial(field, 1, {f"c{i}": 1, f"A{i}": 1}))
        ub = ub * rep.u(i, PolyFp.monomial(field, 1, {f"c{i}": 1, f"B{i}": 1}))
    coords = subgrp.normal_form_factorize(ua * ub, rep)
    half = 1009 // 2
    derived = []
    for s in coords:
        eq = {}
        for mono, coef in s.monomials():
            cvec, avec, bvec = [0] * 4, [0] * 4, [0] * 4
            for var, e in mono.items():
                kind, idx = var[0], int(var[1:])
                (cvec if kind == "c" else avec if kind == "A" else bvec)[idx - 1] = e
            eq[(tuple(cvec), tuple(avec), tuple(bvec))] = (
                coef if coef <= half else coef - 1009
            )
        derived.append(eq)
    assert tuple(derived) == subgrp.derive_additivity_system(GroupId.SP4)


def test_specific_printed_terms():
    derived = subgrp.derive_additivity_system(GroupId.SP4)
    # eq 4 contains +2 c2 c3 a^{q3} b^{q2}
    key = ((0, 1, 1, 0), (0, 0, 1, 0), (0, 1, 0, 0))
    assert derived[3][key] == 2
    derived = subgrp.derive_additivity_system(GroupId.G2)
    # eq 6 contains -3 c4 c3 a^{q4} b^{q3}
    key = ((0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0))
    assert derived[5][key] == -3
    # eq 3 cross in the SL3 derivation is -c1c2 a^{q2} b^{q1}
    derived = subgrp.derive_additivity_system(GroupId.SL3)
    assert derived[2][((1, 1, 0), (0, 1, 0), (1, 0, 0))] == -1


# -- additivity and torus ------------------------------------------------------


def test_check_additive_examples():
    assert subgrp.check_additive(subgrp.USpec(GroupId.SL3, F3, (1, 1, 1), (1, 1, 2)))
    assert not subgrp.check_additive(
        subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), (1, 1, 1))
    )
    # a single root group with a p-power exponent is trivially additive
    assert subgrp.check_additive(subgrp.USpec(GroupId.SL3, F5, (1, 0, 0), (5, 0, 0)))
    assert not subgrp.check_additive(subgrp.USpec(GroupId.SL3, F5, (1, 0, 0), (3, 0, 0)))


def test_solve_torus_examples():
    t = subgrp.solve_torus(subgrp.USpec(GroupId.SL3, F3, (1, 1, 1), (1, 1, 2)))
    assert t is not None and t.ray() == (1, 1, 1)
    # case 2 pattern at q1 = q3 = 1: m1/m = 2/3, m2/m = 1/3
    t = subgrp.solve_torus(subgrp.USpec(GroupId.SL3, F5, (1, 0, 1), (1, 0, 1)))
    assert t is not None and t.ray() == (2, 1, 3)
    assert (
        subgrp.solve_torus(subgrp.USpec(GroupId.SL3, F5, (1, 0, 1), (1, 0, 5)))
        is not None
    )
    # incompatible pattern: equal exponents on all three SL3 roots force
    # the scaling weight m to vanish, so no ray exists
    assert (
        subgrp.solve_torus(subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), (1, 1, 1)))
        is None
    )


def test_solve_torus_abelian_incompatible():
    # support {a2, a3} of SL3 with equal exponents has a ray; a skewed one
    # may not admit m != 0
    spec = subgrp.USpec(GroupId.SL3, F2, (0, 1, 1), (0, 1, 1))
    assert subgrp.solve_torus(spec) is not None


def test_binomial_expand_matches_naive():
    for p in (2, 3, 5):
        field = PrimeField(p)
        a, b = PolyFp.var(field, "a"), PolyFp.var(field, "b")
        for z in (1, 2, 3, 6, 12):
            assert subgrp.binomial_expand(field, z) == (a + b) ** z


# -- extension fields ----------------------------------------------------------


def test_ext_field_arithmetic():
    ext = ExtField(3, 2)
    assert ext.order == 9
    elems = list(itertools.product(range(3), repeat=2))
    units = [a for a in elems if a != ext.zero()]
    for a in units:
        assert ext.mul(a, ext.inv(a)) == ext.one()
    # multiplication is closed and the units form a group of order 8
    assert {ext.mul(a, b) for a in units for b in units} == set(units)
    # c5^2 = 2 is solvable in GF(9) but not in F_3
    assert any(ext.mul(a, a) == ext.embed(2) for a in units)
    assert all(a * a % 3 != 2 for a in range(1, 3))
    with pytest.raises(ValueError):
        ExtField(3, 4)


# -- case rows -----------------------------------------------------------------


def test_load_case_rows_counts():
    rows = subgrp.load_case_rows()
    by_group = {}
    for r in rows:
        by_group.setdefault(r.group, []).append(r)
    assert len(by_group[GroupId.SL3]) == 2
    assert len(by_group[GroupId.SP4]) == 5
    assert len(by_group[GroupId.G2]) == 21


def test_instantiate_case_examples():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    spec, t = subgrp.instantiate_case(rows[(GroupId.SP4, "1")], 5, {"q1": 0}, 1)
    assert spec.exps == (1, 1, 2, 3)
    # c = (1, 1, -1/2, -2/3) = (1, 1, 2, 1) in F5
    assert spec.coeffs == (1, 1, 2, 1)
    assert t.ray() == (4, 3, 2)  # (2q1, (3/2)q1) projectively
    with pytest.raises(subgrp.CharacteristicExcluded):
        subgrp.instantiate_case(rows[(GroupId.SP4, "1")], 3, {"q1": 0}, 1)
    spec, _ = subgrp.instantiate_case(
        rows[(GroupId.G2, "15")], 2, {"q2": 0}, 1, {"c6": 1}
    )
    assert spec.coeffs == (0, 1, 1, 0, 0, 1)
    assert spec.exps == (0, 1, 1, 0, 0, 2)


def test_instantiate_case_degenerate_coefficient():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    # case 13: c6 = (c5 - 3c4)/2 vanishes when c5 = 3c4
    row = rows[(GroupId.G2, "13")]
    with pytest.raises(subgrp.DegenerateInstantiation):
        subgrp.instantiate_case(row, 5, {"q2": 0}, 1, {"c4": 1, "c5": 3})


def test_verify_case_statuses():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    recs = subgrp.verify_case(rows[(GroupId.SL3, "1")], primes=(3, 5), f_max=1)
    assert len(recs) >= 2 and all(r["status"] == "pass" for r in recs)
    recs = subgrp.verify_case(rows[(GroupId.SL3, "2")], primes=(2, 3), f_max=1)
    assert recs and all(r["status"] == "discrepant" for r in recs)
    recs = subgrp.verify_case(rows[(GroupId.G2, "3")], primes=(2,), f_max=1)
    assert recs and all(r["status"] == "pass" for r in recs)


def test_constrained_rows_get_two_instantiations_beyond_config():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    recs = subgrp.verify_case(rows[(GroupId.G2, "1")], primes=(2, 3, 5), f_max=1)
    assert len(recs) >= 2  # p >= 7 row still checked twice
    assert all(r["status"] == "pass" for r in recs)


# -- search and matching --------------------------------------------------------


def test_search_trivial_bounds():
    assert subgrp.search_solutions(GroupId.SL3, 3, 0) == []


def test_search_sl3_p3_matches_tables():
    hits = subgrp.search_solutions(GroupId.SL3, 3, 9)
    assert hits
    for sol in hits:
        assert subgrp.match_to_table(sol) is not None


def test_search_hits_have_ppower_simple_exponents():
    for spec, _t in subgrp.search_solutions(GroupId.SL3, 2, 4):
        for i in (1, 2):
            if spec.coeffs[i - 1]:
                q = spec.exps[i - 1]
                while q % 2 == 0:
                    q //= 2
                assert q == 1


def test_match_identity_on_table_instance():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    spec, t = subgrp.instantiate_case(rows[(GroupId.SP4, "3")], 3, {"q1": 0}, 1, {"c4": 2})
    label, transform = subgrp.match_to_table((spec, t))
    assert label == "SP4/case3"
    assert transform == "identity"


def test_torus_conjugate_matches_sl3_relation():
    # the SL3 pairing rows satisfy row1 + row2 - row3 = 0, so a target is a
    # torus conjugate exactly when rho1 * rho2 / rho3 = 1 for the ratios
    spec = subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), (1, 1, 2))
    assert subgrp.torus_conjugate_matches(spec, (2, 4, 3))  # 2 * 4 = 3 mod 5
    assert subgrp.torus_conjugate_matches(spec, (3, 3, 4))
    assert not subgrp.torus_conjugate_matches(spec, (2, 2, 1))
    assert not subgrp.torus_conjugate_matches(spec, (1, 1, 0))  # support


def test_match_sp4_case4_conjugate():
    # the {a2, a1+2a2}-supported pattern matches case 4 via a Weyl move
    spec = subgrp.USpec(GroupId.SP4, F3, (0, 1, 0, 1), (0, 1, 0, 1))
    assert subgrp.check_additive(spec)
    t = subgrp.solve_torus(spec)
    m = subgrp.match_to_table((spec, t))
    assert m is not None and m[0] == "SP4/case4" and "weyl" in m[1]


def test_match_sp4_isogeny_swap():
    # p=2 pattern on the short side matches case 2 via the isogeny swap
    spec = subgrp.USpec(GroupId.SP4, F2, (0, 1, 1, 0), (0, 1, 1, 0))
    assert subgrp.check_additive(spec)
    t = subgrp.solve_torus(spec)
    m = subgrp.match_to_table((spec, t))
    assert m is not None and m[0] == "SP4/case2" and "isogeny" in m[1]


def test_isogeny_preserves_additivity():
    for group, p in ((GroupId.SP4, 2), (GroupId.G2, 3)):
        field = PrimeField(p)
        for spec, _t in subgrp.search_solutions(group, p, p):
            image = subgrp.isogeny_transform(spec)
            assert image is not None
            assert subgrp.check_additive(image), (spec, image)


def test_duality_transform_swaps_sl3_sides():
    spec = subgrp.USpec(GroupId.SL3, F3, (0, 1, 1), (0, 1, 1))
    assert subgrp.check_additive(spec)
    dual = subgrp.duality_transform(spec)
    assert dual is not None
    assert dual.support == (1, 3)
    assert subgrp.check_additive(dual)
    assert subgrp.duality_transform(subgrp.USpec(GroupId.SP4, F3, (1, 0, 0, 0), (1, 0, 0, 0))) is None


def test_budget_exceeded():
    with pytest.raises(subgrp.BudgetExceeded):
        subgrp.search_solutions(GroupId.G2, 3, 9, budget_seconds=1e-9)


def _brute_force_hits(group, p, q_max):
    """Independent search oracle: every (c, q) tuple, matrix additivity only."""
    from itertools import product

    field = PrimeField(p)
    n = len(subgrp.root_datum(group).positive_roots)
    hits = set()
    for coeffs in product(range(p), repeat=n):
        if sum(1 for c in coeffs if c) < 2:
            continue
        exp_choices = [range(1, q_max + 1) if c else (0,) for c in coeffs]
        for exps in product(*exp_choices):
            spec = subgrp.USpec(group, field, coeffs, exps)
            if subgrp.check_additive(spec) and subgrp.solve_torus(spec):
                hits.add((coeffs, exps))
    return hits


@pytest.mark.parametrize("group,p,q_max", [
    (GroupId.SL3, 2, 4),
    (GroupId.SL3, 3, 3),
    (GroupId.SP4, 2, 2),
])
def test_search_agrees_with_brute_force(group, p, q_max):
    pruned = {
        (s.coeffs, s.exps) for s, _t in subgrp.search_solutions(group, p, q_max)
    }
    assert pruned == _brute_force_hits(group, p, q_max)


def test_check_additive_representation_independent():
    # every module of the group must agree on additivity, pass or fail
    from itertools import product

    field = PrimeField(3)
    reps = [chevrep.build_rep(GroupId.SP4, m, field) for m in ("V2", "V1")]
    for coeffs in [(1, 1, 1, 1), (1, 0, 1, 2), (0, 1, 1, 1), (2, 1, 2, 1)]:
        for exps in [(1, 1, 1, 1), (1, 1, 2, 3), (3, 1, 1, 1)]:
            spec = subgrp.USpec(GroupId.SP4, field, coeffs, exps)
            results = {subgrp.check_additive(spec, r) for r in reps}
            assert len(results) == 1, (coeffs, exps)


def test_solve_torus_matrix_identity():
    # the returned ray satisfies t(l) u(x) t(l)^-1 = u(l^m x): every nonzero
    # x^k slot of every supported root element sits in the right weight
    spec = subgrp.USpec(GroupId.G2, PrimeField(5), (1, 0, 1, 1, 1, 3), (1, 0, 1, 2, 3, 3))
    t = subgrp.solve_torus(spec)
    assert t is not None
    rep = chevrep.faithful_rep(GroupId.G2, spec.field)
    for i in spec.support:
        q = spec.exps[i - 1]
        for k, mat in rep.divided_powers(i):
            for (r, c), v in mat.items():
                if v % 5 == 0:
                    continue
                wr, wc = rep.weight(r), rep.weight(c)
                lam = (wr[0] - wc[0]) * t.m1 + (wr[1] - wc[1]) * t.m2
                assert lam == t.m * k * q
