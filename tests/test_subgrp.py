import json
from functools import cache, partial
from importlib import resources
from itertools import product

import formula_golden
import pytest
import row_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_exactalg import _reference_nullspace_q, minors_gcd

from rank2chev import chevrep, cli, subgrp
from rank2chev.exactalg import (
    EXPONENT_BOUND,
    ExponentOverflow,
    PolyFp,
    PrimeField,
    integer_kernel,
    rows_additive,
)
from rank2chev.rootdata import GroupId

F2, F3, F5 = map(PrimeField, (2, 3, 5))


# -- normal form -------------------------------------------------------------


def test_normal_form_sl3_examples():
    rep = chevrep.faithful_rep(GroupId.SL3, F5)
    a, b = PolyFp.monomial(F5, 1, {"a": 1}), PolyFp.monomial(F5, 1, {"b": 1})
    s = subgrp.normal_form_factorize(rep.u(1, a) * rep.u(2, b), rep)
    assert s == [a, b, PolyFp.zero(F5)]
    s = subgrp.normal_form_factorize(rep.u(2, b) * rep.u(1, a), rep)
    assert s == [a, b, -(a * b)]
    s = subgrp.normal_form_factorize(rep.u(1, 0) * rep.u(2, 0), rep)
    assert all(x == 0 for x in s)


def test_normal_form_roundtrip_g2():
    rep = chevrep.faithful_rep(GroupId.G2, F3)
    a, b = PolyFp.monomial(F3, 1, {"a": 1}), PolyFp.monomial(F3, 1, {"b": 1})
    g = rep.u(2, a) * rep.u(1, b) * rep.u(4, a * b) * rep.u(6, a + b)
    coords = subgrp.normal_form_factorize(g, rep)
    redone = chevrep.PolyMatrix.identity(F3, rep.dim)
    for i, s in enumerate(coords, start=1):
        redone = redone * rep.u(i, s)
    assert redone.entries == g.entries


def test_normal_form_rejects_non_unipotent():
    rep = chevrep.faithful_rep(GroupId.SL3, F5)
    bad = rep.u(-1, PolyFp.monomial(F5, 1, {"a": 1}))
    with pytest.raises(subgrp.NotUnipotent):
        subgrp.normal_form_factorize(bad, rep)


def test_normal_form_representation_independent():
    a, b = PolyFp.monomial(F3, 1, {"a": 1}), PolyFp.monomial(F3, 1, {"b": 1})
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
    # 5-dim module over Z yields the same system as the 4-dim one
    field = PrimeField(0)
    rep = chevrep.build_rep(GroupId.SP4, "V1", field)
    ua = chevrep.PolyMatrix.identity(field, rep.dim)
    ub = chevrep.PolyMatrix.identity(field, rep.dim)
    for i in range(1, 5):
        ua = ua * rep.u(i, PolyFp.monomial(field, 1, {f"c{i}": 1, f"A{i}": 1}))
        ub = ub * rep.u(i, PolyFp.monomial(field, 1, {f"c{i}": 1, f"B{i}": 1}))
    coords = subgrp.normal_form_factorize(ua * ub, rep)
    derived = []
    for s in coords:
        eq = {}
        for mono, coef in s.monomials():
            cvec, avec, bvec = [0] * 4, [0] * 4, [0] * 4
            for var, e in mono.items():
                kind, idx = var[0], int(var[1:])
                (cvec if kind == "c" else avec if kind == "A" else bvec)[idx - 1] = e
            eq[(tuple(cvec), tuple(avec), tuple(bvec))] = coef
        derived.append(eq)
    assert tuple(derived) == subgrp.derive_additivity_system(GroupId.SP4)


def test_derivations_match_the_golden_formulas():
    # the fixture was written where each derivation ran at the primes 1009
    # and 2003 and every coefficient was lifted to (-p/2, p/2]; the exact
    # derivation gives the same integers
    assert formula_golden.formulas() == json.loads(formula_golden.FIXTURE.read_text())


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


def _faithful_additive(spec) -> bool:
    return subgrp.check_additive(spec, chevrep.faithful_rep(spec.group, spec.field))


def test_check_additive_examples():
    assert _faithful_additive(subgrp.USpec(GroupId.SL3, F3, (1, 1, 1), (1, 1, 2)))
    assert not _faithful_additive(
        subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), (1, 1, 1))
    )
    # a single root group with a p-power exponent is trivially additive
    assert _faithful_additive(subgrp.USpec(GroupId.SL3, F5, (1, 0, 0), (5, 0, 0)))
    assert not _faithful_additive(subgrp.USpec(GroupId.SL3, F5, (1, 0, 0), (3, 0, 0)))


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


def _root_element(rep, root, param):
    """u_root(param) summed term by term: 1 + sum_k param^k M_k."""
    m = chevrep.PolyMatrix.identity(rep.field, rep.dim)
    for k, mat in rep.divided_powers(root):
        for (r, c), v in mat.items():
            m.entries[r][c] = m.entries[r][c] + param**k * v
    return m


def _u_by_factors(spec, rep, var):
    """u(var) as the PolyMatrix product of its root factors."""
    m = chevrep.PolyMatrix.identity(spec.field, rep.dim)
    for i, (c, q) in enumerate(zip(spec.coeffs, spec.exps), start=1):
        if c:
            m = m * rep.u(i, PolyFp.monomial(spec.field, c, {var: q}))
    return m


def _additive_by_matrices(spec, rep):
    """u(a) u(b) == prod_i u_i(c_i (a+b)^{q_i}), (a+b)^q expanded naively."""
    field = spec.field
    a, b = PolyFp.monomial(field, 1, {"a": 1}), PolyFp.monomial(field, 1, {"b": 1})
    uab = chevrep.PolyMatrix.identity(field, rep.dim)
    for i, (c, q) in enumerate(zip(spec.coeffs, spec.exps), start=1):
        if c:
            uab = uab * rep.u(i, (a + b) ** q * c)
    u_a, u_b = _u_by_factors(spec, rep, "a"), _u_by_factors(spec, rep, "b")
    return (u_a * u_b).entries == uab.entries


@st.composite
def _specs(draw):
    group = draw(st.sampled_from(list(GroupId)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    module = draw(st.sampled_from(chevrep.all_modules(group)))
    n = subgrp.root_datum(group).num_positive
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    coeffs[draw(st.integers(0, n - 1))] = draw(st.integers(1, p - 1))
    # p-powers make additive specs common; other exponents make them fail
    ppowers = [q for q in (1, p, p * p, p**3) if q <= 40]
    exps = draw(
        st.lists(
            st.one_of(st.sampled_from(ppowers), st.integers(1, 40)),
            min_size=n,
            max_size=n,
        )
    )
    return subgrp.USpec(group, PrimeField(p), tuple(coeffs), tuple(exps)), module


@settings(max_examples=60, deadline=None)
@given(_specs())
@example((subgrp.USpec(GroupId.SL3, F5, (2, 3, 2), (1, 1, 2)), "natural"))
@example((subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), (1, 1, 1)), "natural"))
@example((subgrp.USpec(GroupId.SP4, F3, (0, 1, 0, 1), (0, 1, 0, 1)), "V1"))
@example((subgrp.USpec(GroupId.SL3, F2, (1, 0, 0), (1, 1, 1)), "natural"))
def test_check_additive_matches_matrix_identity(spec_module):
    spec, module = spec_module
    rep = chevrep.build_rep(spec.group, module, spec.field)
    assert subgrp.check_additive(spec, rep) == _additive_by_matrices(spec, rep)
    assert subgrp.u_matrix(spec, rep).entries == _u_by_factors(spec, rep, "x").entries
    x = PolyFp.monomial(spec.field, 1, {"x": 1})
    y = PolyFp.monomial(spec.field, 1, {"y": 1})
    for param in (PolyFp.zero(spec.field), x**3 * 2, x + y * 3 + 1, -(x * y) + y**2):
        for i in spec.support:
            assert rep.u(i, param).entries == _root_element(rep, i, param).entries
            assert rep.u(-i, param).entries == _root_element(rep, -i, param).entries


def test_u_matrix_exponent_bound():
    # x^{q1+q2}, a product term of the corner entry, is held to the bound
    # before reduction, as x^{q3} is
    bound = EXPONENT_BOUND
    rep = chevrep.faithful_rep(GroupId.SL3, F5)
    for exps, overflows in [
        ((bound // 2, bound // 2, 1), False),
        ((bound // 2, bound // 2 + 1, 1), True),
        ((bound, 1, 1), True),
        ((1, 1, bound), False),
        ((1, 1, bound + 1), True),
    ]:
        spec = subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), exps)
        if overflows:
            with pytest.raises(ExponentOverflow):
                subgrp.u_matrix(spec, rep)
            with pytest.raises(ExponentOverflow):
                subgrp.check_additive(spec, rep)
        else:
            subgrp.u_matrix(spec, rep)
            assert not subgrp.check_additive(spec, rep)


_MODULES = [(g, m) for g in GroupId for m in chevrep.all_modules(g)]


@st.composite
def _module_specs(draw, group, p):
    """Specs of the group over F_p: any coefficients, p-powers mixed with
    other exponents, so that additive and non-additive specs both occur."""
    n = subgrp.root_datum(group).num_positive
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    coeffs[draw(st.integers(0, n - 1))] = draw(st.integers(1, p - 1))
    ppowers = [q for q in (1, p, p * p, p**3) if q <= 60]
    exps = draw(
        st.lists(
            st.one_of(st.sampled_from(ppowers), st.integers(1, 60)),
            min_size=n,
            max_size=n,
        )
    )
    return subgrp.USpec(group, PrimeField(p), tuple(coeffs), tuple(exps))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("group,module", _MODULES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_u_rows_matches_the_product_of_root_factors(group, module, p, data):
    # root monomials multiplied into running rows against the rows_product
    # fold of the reference's root factors; the additivity kernel against
    # the term-by-term loop
    spec = data.draw(_module_specs(group, p))
    rep = chevrep.build_rep(group, module, spec.field)
    rows = rep.u_rows(spec.factors)
    assert rows == row_reference.u_rows(rep, spec.factors)
    assert all(c in range(1, p) for row in rows for x in row for c in x.values())
    assert subgrp.check_additive(spec, rep) == row_reference.rows_additive(rows, p)


@cache
def _search_hits(group, p):
    return tuple(spec for spec, _t in subgrp.search_solutions(group, p, p * p))


@st.composite
def _class_members(draw):
    """(spec, module, its Frobenius twist, its image under a torus element
    and a reparametrisation over F_p): a search hit or any spec."""
    group = draw(st.sampled_from(list(GroupId)))
    p = draw(st.sampled_from((2, 3, 5)))
    module = draw(st.sampled_from(chevrep.all_modules(group)))
    hits = _search_hits(group, p)
    spec = draw(st.one_of(_module_specs(group, p), st.sampled_from(hits)))
    t1, t2, lam = (draw(st.integers(1, p - 1)) for _ in range(3))
    datum = subgrp.root_datum(group)
    scaled = tuple(
        c * pow(t1, w1, p) * pow(t2, w2, p) * pow(lam, q, p) % p
        for c, q, (w1, w2) in zip(
            spec.coeffs, spec.exps, map(datum.weight_coords, datum.positive_roots)
        )
    )
    twist = tuple(q * p for q in spec.exps)
    return (
        spec,
        module,
        subgrp.USpec(group, spec.field, spec.coeffs, twist),
        subgrp.USpec(group, spec.field, scaled, spec.exps),
    )


@settings(max_examples=80, deadline=None)
@given(_class_members())
def test_check_additive_answers_each_class_member_as_the_direct_kernel(case):
    spec, module, twist, scaled = case
    rep = chevrep.build_rep(spec.group, module, spec.field)
    p = spec.field.p
    members = (spec, twist, scaled)
    for order in (members, members[::-1]):
        subgrp._ADDITIVE_CLASSES.clear()
        for member in order:  # the first on a cleared cache, the others warm
            direct = rows_additive(rep.u_rows(member.factors), p)
            assert subgrp.check_additive(member, rep) == direct, member
        # the twist and the rescaled spec are answered from the spec's class
        assert len(subgrp._ADDITIVE_CLASSES) == 1


def test_g2_relations_need_a_z_basis():
    # G2 on roots (2, 4, 5, 6) with q = (1, 1, 1, 2): the Q-basis of the
    # relations spans a sublattice of index 2 that misses (0, -3, 1, 1)
    datum = subgrp.root_datum(GroupId.G2)
    support, exps = (2, 4, 5, 6), (1, 1, 1, 2)
    rows = [
        datum.weight_coords(datum.positive_roots[i - 1]) + (q,)
        for i, q in zip(support, exps)
    ]
    q_basis = _reference_nullspace_q(list(zip(*rows)), 4)
    assert q_basis == [[1, -3, 2, 0], [-1, -3, 0, 2]] and minors_gcd(q_basis, 4) == 2
    relations = subgrp._torus_relations(GroupId.G2, support, exps)
    assert relations == ((1, -3, 2, 0), (0, -3, 1, 1))
    # at p = 3, c6 -> -c6 keeps the values on the Q-basis, yet it takes an
    # additive spec to one that is not; the Z-basis separates the two
    rep = chevrep.faithful_rep(GroupId.G2, F3)
    additive = subgrp.USpec(GroupId.G2, F3, (0, 1, 0, 1, 1, 2), (0, 1, 0, 1, 1, 2))
    other = subgrp.USpec(GroupId.G2, F3, (0, 1, 0, 1, 1, 1), (0, 1, 0, 1, 1, 2))
    assert subgrp._relation_values(q_basis, (1, 1, 1, 2), 3) == (
        subgrp._relation_values(q_basis, (1, 1, 1, 1), 3)
    )
    subgrp._ADDITIVE_CLASSES.clear()
    assert subgrp.check_additive(additive, rep)
    assert not subgrp.check_additive(other, rep)
    assert len(subgrp._ADDITIVE_CLASSES) == 2


def test_shipped_row_relations_generate_their_integer_lattice():
    # matching's relations are a Z-basis of the integer relations among
    # each row's (weight, symbol occurrence) rows, at every prime it allows
    pairs = 0
    for group in GroupId:
        datum = subgrp.root_datum(group)
        for p in (2, 3, 5, 7, 11, 13):
            for rows in subgrp._match_table(group, p).values():
                for row, (relations, _targets) in rows:
                    weights = [
                        datum.weight_coords(datum.positive_roots[i - 1])
                        for i in row.support
                    ]
                    slots = [
                        subgrp._ratio_symbol(row.c_pattern[i - 1], p)
                        for i in row.support
                    ]
                    if None not in slots:
                        weights = [
                            w + tuple(int(sym == s) for s in row.free_coeffs)
                            for w, (_, sym) in zip(weights, slots)
                        ]
                    n = len(weights)
                    assert all(
                        sum(r * w[j] for r, w in zip(rel, weights)) == 0
                        for rel in relations
                        for j in range(len(weights[0]))
                    )
                    q_basis = _reference_nullspace_q(list(zip(*weights)), n)
                    assert len(relations) == len(q_basis)
                    assert not relations or minors_gcd(relations, n) == 1
                    pairs += 1
    assert pairs == 103


def test_u_rows_exponent_overflow_of_a_product_term_that_cancels():
    # over F2 the product terms of x^{4k} in u(x) cancel, and every other
    # term has degree at most 3k; the cancelling terms are still held to
    # the bound
    rep = chevrep.faithful_rep(GroupId.G2, F2)

    def spec(k):
        return subgrp.USpec(GroupId.G2, F2, (1,) * 6, (k, k, k, k, 2 * k, 3 * k))

    k = EXPONENT_BOUND // 4
    rows = rep.u_rows(spec(k).factors)
    assert rows == row_reference.u_rows(rep, spec(k).factors)
    assert max(max(x) for row in rows for x in row if x) == 3 * k
    for kernel in (rep.u_rows, partial(row_reference.u_rows, rep)):
        with pytest.raises(ExponentOverflow):
            kernel(spec(k + 1).factors)
    with pytest.raises(ExponentOverflow):
        subgrp.check_additive(spec(k + 1), rep)


@st.composite
def _signed_factors(draw, group, p):
    """Up to five (signed root, c, q) factors in any order: c may vanish
    mod p, and a q near the bound makes some lists overflow."""
    n = subgrp.root_datum(group).num_positive
    roots = [r for i in range(1, n + 1) for r in (i, -i)]
    near = (EXPONENT_BOUND // 2, EXPONENT_BOUND // 2 + 1, EXPONENT_BOUND)
    factor = st.tuples(
        st.sampled_from(roots),
        st.integers(0, 2 * p - 1),
        st.one_of(st.integers(1, 12), st.sampled_from((p, p * p)), st.sampled_from(near)),
    )
    return draw(st.lists(factor, max_size=5))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("group,module", _MODULES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_u_rows_of_signed_root_factors_matches_the_reference(group, module, p, data):
    # negative roots mixed with positive ones, as the existence suite's
    # u-(x) reads them; an overflow must be raised by both or by neither
    factors = data.draw(_signed_factors(group, p))
    rep = chevrep.build_rep(group, module, PrimeField(p))
    try:
        rows = rep.u_rows(factors)
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow):
            row_reference.u_rows(rep, factors)
    else:
        assert rows == row_reference.u_rows(rep, factors)


def test_root_monomials_are_cached_and_match_root_rows():
    # the engine's one mod-p table of divided-power entries against the
    # reference's root factors, read off the divided powers
    for group, module in _MODULES:
        for p in (2, 3, 5, 7):
            rep = chevrep.build_rep(group, module, PrimeField(p))
            for root in range(1, rep.datum.num_positive + 1):
                for signed in (root, -root):
                    key = (group, module, p, signed)
                    entry = chevrep._root_monomials(*key)
                    assert chevrep._root_monomials(*key) is entry
                    top, monomials = entry
                    assert top == max(k for k, _ in rep.divided_powers(signed))
                    rows = row_reference.root_rows(rep, signed, 1, 1)
                    assert {(r, s, k, v) for r, s, k, v in monomials} == {
                        (r, s, e, v)
                        for r, row in enumerate(rows)
                        for s, x in enumerate(row)
                        for e, v in x.items()
                        if e
                    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cached_torus_ray_equals_a_fresh_solve(data):
    # the ray reads no prime: the same support and exponents at two primes,
    # with other coefficients at the second, get one answer, the one an
    # uncached solve gives
    group = data.draw(st.sampled_from(list(GroupId)))
    p1, p2 = data.draw(st.sampled_from([(2, 3), (3, 5), (5, 7), (2, 7)]))
    spec = data.draw(_module_specs(group, p1))
    support = spec.support
    exps = tuple(spec.exps[i - 1] for i in support)
    other = subgrp.USpec(
        group, PrimeField(p2), tuple(1 if c else 0 for c in spec.coeffs), spec.exps
    )
    fresh = subgrp._torus_ray.__wrapped__(group, support, exps)
    for s in (spec, other, spec, other):
        assert subgrp.solve_torus(s) == fresh


# -- case rows -----------------------------------------------------------------


def test_load_case_rows_counts():
    rows = subgrp.load_case_rows()
    by_group = {}
    for r in rows:
        by_group.setdefault(r.group, []).append(r)
    assert len(by_group[GroupId.SL3]) == 2
    assert len(by_group[GroupId.SP4]) == 5
    assert len(by_group[GroupId.G2]) == 21


def test_shipped_case_rows_are_parsed_once(monkeypatch, tmp_path):
    # the tables suite and rows_for_group share one parse of the shipped
    # file; an explicit path is read and validated on every call
    rows = subgrp.load_case_rows()
    calls = []
    real = subgrp.read_data_lines
    monkeypatch.setattr(
        subgrp, "read_data_lines", lambda *a: calls.append(a) or real(*a)
    )
    subgrp.rows_for_group.cache_clear()
    assert subgrp.load_case_rows() is rows
    assert {r for g in GroupId for r in subgrp.rows_for_group(g)} == set(rows)
    assert calls == []
    path = tmp_path / "case_tables.txt"
    path.write_text(
        resources.files("rank2chev").joinpath("data/case_tables.txt").read_text()
    )
    again = subgrp.load_case_rows(str(path))
    assert again == rows and again is not subgrp.load_case_rows(str(path))
    assert len(calls) == 2


def test_instantiate_case_examples():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    spec, t = subgrp.instantiate_case(rows[(GroupId.SP4, "1")], 5, {"q1": 0})
    assert spec.exps == (1, 1, 2, 3)
    # c = (1, 1, -1/2, -2/3) = (1, 1, 2, 1) in F5
    assert spec.coeffs == (1, 1, 2, 1)
    assert t.ray() == (4, 3, 2)  # (2q1, (3/2)q1) projectively
    with pytest.raises(subgrp.CharacteristicExcluded):
        subgrp.instantiate_case(rows[(GroupId.SP4, "1")], 3, {"q1": 0})
    spec, _ = subgrp.instantiate_case(
        rows[(GroupId.G2, "15")], 2, {"q2": 0}, {"c6": 1}
    )
    assert spec.coeffs == (0, 1, 1, 0, 0, 1)
    assert spec.exps == (0, 1, 1, 0, 0, 2)


def test_instantiate_case_degenerate_coefficient():
    rows = {(r.group, r.case): r for r in subgrp.load_case_rows()}
    # case 13: c6 = (c5 - 3c4)/2 vanishes when c5 = 3c4
    row = rows[(GroupId.G2, "13")]
    with pytest.raises(subgrp.DegenerateInstantiation):
        subgrp.instantiate_case(row, 5, {"q2": 0}, {"c4": 1, "c5": 3})


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
    spec, t = subgrp.instantiate_case(rows[(GroupId.SP4, "3")], 3, {"q1": 0}, {"c4": 2})
    label, transform = subgrp.match_to_table((spec, t))
    assert label == "SP4/case3"
    assert transform == "identity"


def test_torus_conjugate_matches_sl3_relation():
    # the SL3 pairing rows satisfy row1 + row2 - row3 = 0, so a target is a
    # torus conjugate exactly when rho1 * rho2 / rho3 = 1 for the ratios;
    # a concrete target is a pattern with no free symbol
    spec = subgrp.USpec(GroupId.SL3, F5, (1, 1, 1), (1, 1, 2))
    ((row, (relations, _)),) = subgrp._match_table(GroupId.SL3, 5)[(1, 2, 3)]
    assert row.case == "1" and relations == ((-1, -1, 1),)

    def reaches(target):
        values = subgrp._relation_values(relations, target, 5)
        return subgrp._match_row(spec, row, (relations, frozenset({values})))

    assert reaches((2, 4, 3))  # 2 * 4 = 3 mod 5
    assert reaches((3, 3, 4))
    assert not reaches((2, 2, 1))
    assert not reaches((1, 1, 0))  # a zero on the support is no conjugate


def test_match_affine_row_through_concrete_targets():
    # G2 case 13's last coefficient (1/2)(c5 - 3c4) is affine in two
    # symbols, so its targets are concrete: one per assignment of c4, c5
    # that zeroes no root (16 less the 4 with c5 = 3c4), relations among the
    # weight coordinates only
    (row,) = [r for r in subgrp.rows_for_group(GroupId.G2) if r.case == "13"]
    assert subgrp._ratio_symbol(row.c_pattern[5], 5) is None
    ((table_row, (relations, targets)),) = subgrp._match_table(GroupId.G2, 5)[
        row.support
    ]
    assert table_row is row and len(relations) == 3 and len(targets) == 12
    spec, t = subgrp.instantiate_case(row, 5, {"q2": 0}, {"c4": 1, "c5": 1})
    assert subgrp.match_to_table((spec, t)) == ("G2/case13", "identity")


def test_relations_kill_wide_rows():
    # width 2 + one free symbol, as _row_targets builds them; the one
    # relation is -row1 - row2 + row3 = 0, and it kills a ratio vector when
    # its relation value is 1
    rows = ((2, -1, 1), (-1, 2, 1), (1, 1, 2))
    relations = _reference_nullspace_q(list(zip(*rows)), len(rows))
    assert relations == [[-1, -1, 1]]

    def kills(ratios):
        return subgrp._relation_values(relations, ratios, 5) == (1,)

    assert kills((2, 3, 1))
    assert kills((3, 4, 2))  # 3^-1 * 4^-1 * 2 = 1
    assert not kills((2, 2, 1))
    assert not kills((1, 1, 2))
    assert subgrp._relation_values((), (), 5) == ()
    # G2 case 14 at p = 5 is such a row: c4 on two slots, one relation
    ((_, (relations, targets)),) = subgrp._match_table(GroupId.G2, 5)[(2, 3, 4, 6)]
    assert relations == ((0, -1, -1, 1),) and targets == {(1,)}


def test_match_table_built_once_and_looked_up_by_support(monkeypatch):
    # one table per (group, p), each row's targets derived once; matching
    # compares a conjugate only with rows on its own support, and its body
    # runs once per class key, so the table is read once per class
    subgrp._match_table.cache_clear()
    subgrp._MATCH_CLASSES.clear()
    built, seen, bodies = [], [], []
    row_targets, match_row = subgrp._row_targets, subgrp._match_row
    match_class = subgrp._match_class
    monkeypatch.setattr(
        subgrp, "_row_targets", lambda row, p: built.append(row) or row_targets(row, p)
    )
    monkeypatch.setattr(
        subgrp,
        "_match_row",
        lambda conj, row, t: seen.append((conj.support, row.support))
        or match_row(conj, row, t),
    )
    monkeypatch.setattr(
        subgrp,
        "_match_class",
        lambda spec, iso: bodies.append(spec) or match_class(spec, iso),
    )
    hits = subgrp.search_solutions(GroupId.SP4, 3, 9)
    assert hits and all(subgrp.match_to_table(sol) for sol in hits)
    keys = {(s.group, s.field.p, *s.torus_class) for s, _t in hits}
    assert len(bodies) == len(keys) == len(subgrp._MATCH_CLASSES) < len(hits)
    info = subgrp._match_table.cache_info()
    assert (info.misses, info.hits) == (1, len(keys) - 1)
    allowed = [r for r in subgrp.rows_for_group(GroupId.SP4) if r.allows_p(3)]
    assert built == allowed
    assert seen and all(conj == row for conj, row in seen)
    subgrp._match_table.cache_clear()
    subgrp._MATCH_CLASSES.clear()


@pytest.mark.parametrize("group,p,q_max", [
    (GroupId.SL3, 5, 25),
    (GroupId.SP4, 3, 9),
    (GroupId.G2, 3, 9),
])
def test_memoised_match_equals_a_fresh_run_on_every_hit(group, p, q_max):
    # matching is constant on each class of hits: the answer kept for the
    # class equals the loop body run afresh on every member
    hits = subgrp.search_solutions(group, p, q_max)
    classes = {(s.group, s.field.p, *s.torus_class) for s, _t in hits}
    assert len(classes) < len(hits)
    for spec, t in hits:
        fresh = subgrp._match_class(spec, subgrp.isogeny_transform(spec))
        assert subgrp.match_to_table((spec, t)) == fresh, spec


def test_match_sp4_case4_conjugate():
    # the {a2, a1+2a2}-supported pattern matches case 4 via a Weyl move
    spec = subgrp.USpec(GroupId.SP4, F3, (0, 1, 0, 1), (0, 1, 0, 1))
    assert _faithful_additive(spec)
    t = subgrp.solve_torus(spec)
    m = subgrp.match_to_table((spec, t))
    assert m is not None and m[0] == "SP4/case4" and "weyl" in m[1]


def test_match_sp4_isogeny_swap():
    # p=2 pattern on the short side matches case 2 via the isogeny swap
    spec = subgrp.USpec(GroupId.SP4, F2, (0, 1, 1, 0), (0, 1, 1, 0))
    assert _faithful_additive(spec)
    t = subgrp.solve_torus(spec)
    m = subgrp.match_to_table((spec, t))
    assert m is not None and m[0] == "SP4/case2" and "isogeny" in m[1]


def test_isogeny_preserves_additivity():
    for group, p in ((GroupId.SP4, 2), (GroupId.G2, 3)):
        field = PrimeField(p)
        for spec, _t in subgrp.search_solutions(group, p, p):
            image = subgrp.isogeny_transform(spec)
            assert image is not None
            assert _faithful_additive(image), (spec, image)


def test_duality_transform_swaps_sl3_sides():
    spec = subgrp.USpec(GroupId.SL3, F3, (0, 1, 1), (0, 1, 1))
    assert _faithful_additive(spec)
    dual = subgrp.duality_transform(spec)
    assert dual is not None
    assert dual.support == (1, 3)
    assert _faithful_additive(dual)
    assert subgrp.duality_transform(subgrp.USpec(GroupId.SP4, F3, (1, 0, 0, 0), (1, 0, 0, 0))) is None


def test_budget_exceeded():
    with pytest.raises(subgrp.BudgetExceeded):
        subgrp.search_solutions(GroupId.G2, 3, 9, budget_seconds=1e-9)


def _hermite_ray(rows):
    """(m1, m2, m) when the integer kernel of the 3-column system has rank
    1 with m != 0 and (m1, m2) != (0, 0), read off ``integer_kernel``'s
    Hermite basis; None otherwise."""
    basis = integer_kernel(rows, 3)
    if len(basis) != 1:
        return None
    ((m1, m2, m),) = basis
    return None if m == 0 or (m1, m2) == (0, 0) else (m1, m2, m)


def _pairing_rows(group, support, exps):
    datum = subgrp.root_datum(group)
    return [
        (
            datum.coroot_pairing(datum.positive_roots[i - 1], 1),
            datum.coroot_pairing(datum.positive_roots[i - 1], 2),
            -q,
        )
        for i, q in zip(support, exps)
    ]


def _brute_force_hits(group, p, q_max):
    """Independent search oracle: every (c, q) tuple, the ray from
    ``integer_kernel`` and the direct kernel ``rows_additive`` in the
    faithful module; no class cache, derived system, DFS or _torus_ray."""
    field = PrimeField(p)
    rep = chevrep.faithful_rep(group, field)
    n = subgrp.root_datum(group).num_positive
    hits = set()
    for coeffs in product(range(p), repeat=n):
        if sum(1 for c in coeffs if c) < 2:
            continue
        exp_choices = [range(1, q_max + 1) if c else (0,) for c in coeffs]
        for exps in product(*exp_choices):
            spec = subgrp.USpec(group, field, coeffs, exps)
            support = spec.support
            rows = _pairing_rows(group, support, [exps[i - 1] for i in support])
            if _hermite_ray(rows) and rows_additive(rep.u_rows(spec.factors), p):
                hits.add((coeffs, exps))
    return hits


@pytest.mark.parametrize("group,p,q_max", [
    (GroupId.SL3, 2, 4),
    (GroupId.SL3, 3, 3),
    (GroupId.SP4, 2, 2),
    (GroupId.G2, 2, 2),
])
def test_search_agrees_with_brute_force(group, p, q_max):
    pruned = {
        (s.coeffs, s.exps) for s, _t in subgrp.search_solutions(group, p, q_max)
    }
    assert pruned == _brute_force_hits(group, p, q_max)


def _cross(v, w):
    return (
        v[1] * w[2] - v[2] * w[1],
        v[2] * w[0] - v[0] * w[2],
        v[0] * w[1] - v[1] * w[0],
    )


@st.composite
def _ray_systems(draw):
    """3-column integer systems: arbitrary (mostly rank 3 from three rows),
    parallel (rank 0 or 1), and rows orthogonal to a vector v (rank <= 2),
    v drawn with m = 0 or (m1, m2) = (0, 0) in two of the shapes."""
    small = st.integers(-6, 6)
    vec = st.tuples(small, small, small)
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("any", "parallel", "ray", "m zero", "m1 m2 zero")))
    if shape == "any":
        return draw(st.lists(vec, min_size=n, max_size=n))
    if shape == "parallel":
        base = draw(vec)
        ks = draw(st.lists(small, min_size=n, max_size=n))
        return [tuple(k * x for x in base) for k in ks]
    v1, v2, m = draw(vec)
    v = {"ray": (v1, v2, m), "m zero": (v1, v2, 0), "m1 m2 zero": (0, 0, m)}[shape]
    return [_cross(v, w) for w in draw(st.lists(vec, min_size=n, max_size=n))]


@settings(max_examples=300, deadline=None)
@given(_ray_systems())
@example([(0, 0, 0)])  # rank 0
@example([(1, 2, -3), (-2, -4, 6)])  # rank 1
@example([(2, -1, -1), (-1, 2, -1)])  # rank 2: the ray (1, 1, 1)
@example([(2, -1, -1), (-1, 2, -1), (1, 1, -1)])  # rank 3
@example([(1, -1, 5), (2, -2, 3)])  # rank 2, ray (1, 1, 0): m = 0
@example([(1, 0, 0), (0, 1, 0)])  # rank 2, ray (0, 0, 1): (m1, m2) = (0, 0)
@example([(0, 0, 0), (2, -1, -1), (0, 0, 0), (-1, 2, -1)])  # zero rows first
def test_cross_product_ray_equals_the_hermite_vector(rows):
    ray = subgrp._ray_of_rows(rows)
    assert (None if ray is None else (ray.m1, ray.m2, ray.m)) == _hermite_ray(rows)


def test_every_ray_the_default_and_tables_deep_runs_solve_is_the_hermite_vector(
    monkeypatch, tmp_path, capsys
):
    keys = set()
    torus_ray = subgrp._torus_ray
    monkeypatch.setattr(
        subgrp, "_torus_ray", lambda *key: keys.add(key) or torus_ray(*key)
    )
    out = str(tmp_path / "report.jsonl")
    assert cli.main(["--format", "machine", "--out", out]) == 0
    tables_deep = ["--primes", "2,3,5,7", "--f-max", "3", "--suite", "tables"]
    assert cli.main([*tables_deep, "--format", "machine", "--out", out]) == 0
    capsys.readouterr()
    assert len(keys) > 1000
    for group, support, exps in keys:
        ray = torus_ray.__wrapped__(group, support, exps)
        got = None if ray is None else (ray.m1, ray.m2, ray.m)
        assert got == _hermite_ray(_pairing_rows(group, support, exps)), (
            group, support, exps,
        )


def test_check_additive_representation_independent():
    # every module of the group must agree on additivity, pass or fail
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
                wr, wc = rep.weights[r], rep.weights[c]
                lam = (wr[0] - wc[0]) * t.m1 + (wr[1] - wc[1]) * t.m2
                assert lam == t.m * k * q


# -- the torus prune and the stated isogeny signs ---------------------------------


def _on_two_roots(cs) -> bool:
    return sum(1 for c in cs if c) >= 2


@pytest.mark.parametrize("group,p", [
    (GroupId.SL3, 2),
    (GroupId.SL3, 3),
    (GroupId.SL3, 5),
    (GroupId.SP4, 2),
    (GroupId.SP4, 3),
    (GroupId.G2, 2),
    (GroupId.G2, 3),
])
def test_torus_prune_keeps_exactly_the_candidates_with_a_ray(group, p, monkeypatch):
    # the prune cuts only nodes with no ray for their partial support, so
    # it keeps the candidates on fewer than two roots and, of the others,
    # exactly those that solve_torus accepts
    field = PrimeField(p)
    with monkeypatch.context() as m:
        m.setattr(subgrp, "_torus_ray", lambda *args: True)
        unpruned = subgrp._enumerate_additive(group, p, p * p)
    with_ray = [
        (cs, qs)
        for cs, qs in unpruned
        if not _on_two_roots(cs)
        or subgrp.solve_torus(subgrp.USpec(group, field, cs, qs)) is not None
    ]
    assert subgrp._enumerate_additive(group, p, p * p) == with_ray


def _signs_making_every_image_additive(group, q_max):
    """The sign vectors, in mask order, under which the swap maps every
    search hit at the isogeny's prime with q_i <= q_max to an additive
    spec."""
    p = subgrp._ISOGENY_P[group]
    n = subgrp.root_datum(group).num_positive
    hits = [(s.coeffs, s.exps) for s, _t in subgrp.search_solutions(group, p, q_max)]
    survivors = []
    for mask in range(1 << n):
        signs = tuple(1 if not (mask >> i) & 1 else -1 for i in range(n))
        if all(
            subgrp._system_additive(group, p, *subgrp._isogeny_image(group, p, signs, cs, qs))
            for cs, qs in hits
        ):
            survivors.append(signs)
    return survivors


def test_stated_isogeny_signs_are_the_first_that_make_every_image_additive():
    # at the default q_max = p^2, 16 of the 64 G2 sign vectors keep all
    # 696 images additive; the stated vector is the first in mask order
    survivors = _signs_making_every_image_additive(GroupId.G2, 9)
    assert len(survivors) == 16
    assert survivors[0] == subgrp._ISOGENY_SIGNS[GroupId.G2] == (-1, -1, 1, 1, 1, 1)
    # at p = 2 every sign is 1 mod 2
    assert subgrp._ISOGENY_SIGNS[GroupId.SP4] == (1, 1, 1, 1)
