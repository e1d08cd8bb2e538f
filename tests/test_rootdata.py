import copy
import os
import pathlib
import subprocess
import sys

import matrix_path
import pytest

from rank2chev import chevrep, rootdata, subgrp
from rank2chev.exactalg import EXPONENT_BOUND, ExponentOverflow, PolyFp, PrimeField
from rank2chev.rootdata import GroupId, conjugate_by_word, root_datum
from rank2chev.subgrp import USpec, check_additive


def regenerate_positive_roots(datum) -> tuple[tuple[int, int], ...]:
    """Close the simple roots under root strings using only the Cartan data.

    Independent reconstruction used to validate the frozen listing: a vector
    v + alpha_k is a root iff the alpha_k-string through v, read off from the
    pairing, extends that far.
    """
    roots = {(1, 0), (0, 1)}
    changed = True
    while changed:
        changed = False
        for v in sorted(roots):
            for k in (1, 2):
                # string through v in direction alpha_k: v - r*a_k ... v + q*a_k
                # with r - q = <v, alpha_k^vee>
                r = 0
                back = (v[0] - (1 if k == 1 else 0), v[1] - (1 if k == 2 else 0))
                while back in roots:
                    r += 1
                    back = (
                        back[0] - (1 if k == 1 else 0),
                        back[1] - (1 if k == 2 else 0),
                    )
                q = r - datum.coroot_pairing(v, k)
                step = v
                for _ in range(q):
                    step = (
                        step[0] + (1 if k == 1 else 0),
                        step[1] + (1 if k == 2 else 0),
                    )
                    if step not in roots and step != (0, 0):
                        roots.add(step)
                        changed = True
    return tuple(sorted(roots, key=lambda v: (v[0] + v[1], v)))


@pytest.mark.parametrize("group", list(GroupId))
def test_positive_root_lists_regenerate(group):
    datum = root_datum(group)
    assert set(regenerate_positive_roots(datum)) == set(datum.positive_roots)
    assert datum.num_positive == {"SL3": 3, "SP4": 4, "G2": 6}[group.value]
    # listing order is by nondecreasing height
    heights = [a + b for a, b in datum.positive_roots]
    assert heights == sorted(heights)


def test_pairing_examples():
    g2 = root_datum(GroupId.G2)
    assert g2.coroot_pairing((0, 1), 1) == -3
    sp4 = root_datum(GroupId.SP4)
    assert sp4.coroot_pairing((1, 0), 2) == -2
    for group in GroupId:
        datum = root_datum(group)
        assert datum.coroot_pairing((1, 0), 1) == 2
        assert datum.coroot_pairing((0, 1), 2) == 2


def test_pairing_string_oracle():
    # <beta, alpha_k^vee> = r - q where beta - r a_k ... beta + q a_k is the
    # root string, read directly off the positive root lists
    for group in GroupId:
        datum = root_datum(group)
        roots = set(datum.all_roots())
        for beta in datum.positive_roots:
            for k, step in ((1, (1, 0)), (2, (0, 1))):
                if beta == step:
                    continue
                r = 0
                v = (beta[0] - step[0], beta[1] - step[1])
                while v in roots:
                    r += 1
                    v = (v[0] - step[0], v[1] - step[1])
                q = 0
                v = (beta[0] + step[0], beta[1] + step[1])
                while v in roots:
                    q += 1
                    v = (v[0] + step[0], v[1] + step[1])
                assert datum.coroot_pairing(beta, k) == r - q


def test_pairing_bilinear():
    datum = root_datum(GroupId.G2)
    w1, w2 = (3, -1), (2, 5)
    m = (4, -7)
    assert datum.pairing(
        (w1[0] + w2[0], w1[1] + w2[1]), m
    ) == datum.pairing(w1, m) + datum.pairing(w2, m)


def test_coroot_coords():
    sp4 = root_datum(GroupId.SP4)
    assert sp4.coroot_coords((1, 2)) == (1, 1)  # long root a1+2a2
    assert sp4.coroot_coords((1, 1)) == (2, 1)  # short root a1+a2
    g2 = root_datum(GroupId.G2)
    assert g2.coroot_coords((3, 2)) == (1, 2)
    assert g2.coroot_coords((1, 0)) == (1, 0)


@pytest.mark.parametrize("group,order", [(GroupId.SL3, 6), (GroupId.SP4, 8), (GroupId.G2, 12)])
def test_weyl_group_order(group, order):
    assert len(root_datum(group).weyl_words()) == order


def test_weyl_word_action_sp4_case4():
    # s_{a2} s_{a1} carries the {a2, a1+2a2} side onto the {a1, a1+a2} side
    datum = root_datum(GroupId.SP4)
    word = (2, 1)
    images = {
        datum.apply_word_to_root(word, r) for r in [(0, 1), (1, 2)]
    }
    assert images == {(1, 0), (1, 1)}


def _weyl_orbit(spec):
    """Distinct conjugates of a spec whose support stays positive."""
    orbit = {}
    for word in root_datum(spec.group).weyl_words():
        conj = conjugate_by_word(spec, word)
        if conj is not None:
            orbit.setdefault((conj.coeffs, conj.exps), conj)
    return list(orbit.values())


def test_weyl_conjugates_identity_and_orbit():
    field = PrimeField(3)
    spec = USpec(GroupId.SL3, field, (1, 1, 1), (1, 1, 2))
    assert conjugate_by_word(spec, ()) is spec
    orbit = _weyl_orbit(spec)
    assert any(c.coeffs == spec.coeffs and c.exps == spec.exps for c in orbit)
    assert 1 <= len(orbit) <= 6


def test_weyl_conjugation_is_group_action():
    field = PrimeField(3)
    datum = root_datum(GroupId.SP4)
    rep = chevrep.faithful_rep(GroupId.SP4, field)
    spec = USpec(GroupId.SP4, field, (0, 1, 1, 1), (0, 1, 1, 2))
    u = subgrp.u_matrix(spec, rep)
    for word in datum.weyl_words():
        conj = conjugate_by_word(spec, word)
        if conj is None:
            continue
        # the inverse representative undoes the conjugation exactly
        n_w, n_w_inv = matrix_path.representatives(GroupId.SP4, 3, word)
        assert (n_w_inv * subgrp.u_matrix(conj, rep) * n_w).entries == u.entries
        # the reversed-word representative undoes it up to a torus element,
        # so support and exponents are restored in any case
        rev = conjugate_by_word(conj, tuple(reversed(word)))
        assert rev is not None
        assert rev.exps == spec.exps and rev.support == spec.support


def test_root_orbit_sizes_divide_weyl_order():
    for group in GroupId:
        datum = root_datum(group)
        order = len(datum.weyl_words())
        for root in datum.positive_roots:
            orbit = {
                datum.apply_word_to_root(w, root) for w in datum.weyl_words()
            }
            assert order % len(orbit) == 0


def test_weyl_conjugates_preserve_additivity():
    field = PrimeField(3)
    spec = USpec(GroupId.G2, field, (0, 1, 1, 0, 1, 2), (0, 1, 1, 0, 1, 2))
    rep = chevrep.faithful_rep(GroupId.G2, field)
    assert check_additive(spec, rep)
    orbit = _weyl_orbit(spec)
    assert len(orbit) > 1
    for conj in orbit:
        assert check_additive(conj, rep), conj


def _substitute(formula, p, args):
    """The formula's coordinates mod p with the parameter s_i = c_i x^{q_i}
    of root i replaced by the polynomial ``args[i]``."""
    field = PrimeField(p)
    out = []
    for terms in formula.terms:
        poly = PolyFp.zero(field)
        for coef, cpows, (xpows,) in terms:
            # a Weyl formula is a polynomial in the products c_i x^{q_i}
            assert cpows == xpows
            term = PolyFp.const(field, coef)
            for i, e in cpows:
                term = term * args[i] ** e
            poly = poly + term
        out.append(poly)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", list(GroupId))
def test_cached_weyl_representatives_are_inverse(group, p):
    # the cached n_w and n_w^-1 multiply to the identity over Z, and
    # n_w^-1 over F_p conjugates the formula's image of u(s) back to u(s)
    # on the roots the word keeps positive
    field = PrimeField(p)
    rep = chevrep.faithful_rep(group, field)
    words = root_datum(group).weyl_words()
    assert words is root_datum(group).weyl_words()
    n = root_datum(group).num_positive
    for word in words[1:]:
        n_w, n_w_inv = rootdata.weyl_representatives(group, word)
        assert (n_w * n_w_inv).is_identity() and (n_w_inv * n_w).is_identity()
        n_w, n_w_inv = matrix_path.representatives(group, p, word)
        formula = rootdata.weyl_formula(group, word)
        s = [
            PolyFp.monomial(field, 1, {f"s{i}": 1})
            if i in formula.roots
            else PolyFp.zero(field)
            for i in range(1, n + 1)
        ]
        image = _substitute(formula, p, s)
        u_image = subgrp.product_in(
            rep, [rep.u(i, y) for i, y in enumerate(image, start=1)]
        )
        u_s = subgrp.product_in(rep, [rep.u(i, s[i - 1]) for i in formula.roots])
        assert (n_w_inv * u_image * n_w).entries == u_s.entries, word
        assert rootdata.weyl_formula(group, word) is formula


def _snapshot(formula):
    return (formula.roots, formula.terms, formula.outside)


def test_matching_leaves_cached_representatives_unchanged():
    # the cached Weyl formulas are shared by every later conjugation, so
    # they are compared before and after a matching run, and against a
    # fresh derivation
    for group, p, q_max in ((GroupId.SL3, 3, 9), (GroupId.SP4, 2, 4)):
        words = root_datum(group).weyl_words()[1:]
        cached = [rootdata.weyl_formula(group, word) for word in words]
        before = [_snapshot(f) for f in cached]
        hits = subgrp.search_solutions(group, p, q_max)
        assert hits
        for sol in hits:
            assert subgrp.match_to_table(sol) is not None
        for word, formula, snap in zip(words, cached, before):
            assert rootdata.weyl_formula(group, word) is formula
            assert _snapshot(formula) == snap
            fresh = rootdata.weyl_formula.__wrapped__(group, word)
            assert _snapshot(fresh) == snap


_CONJUGATION_SPECS = (
    USpec(GroupId.SL3, PrimeField(3), (1, 1, 1), (1, 1, 2)),
    USpec(GroupId.SP4, PrimeField(3), (0, 1, 1, 1), (0, 1, 1, 2)),
    USpec(GroupId.G2, PrimeField(3), (0, 1, 1, 0, 1, 2), (0, 1, 1, 0, 1, 2)),
)


def test_conjugation_is_the_same_with_a_warm_cache():
    def conjugates():
        return [
            conjugate_by_word(spec, word)
            for spec in _CONJUGATION_SPECS
            for word in root_datum(spec.group).weyl_words()
        ]

    rootdata.weyl_formula.cache_clear()
    cold = conjugates()
    assert any(c is not None for c in cold[1:])
    assert conjugates() == cold


# -- the compiled formulas against the matrix path ------------------------------


def _formula_keys(groups=tuple(GroupId)):
    return [(group, word) for group in groups for word in root_datum(group).weyl_words()]


# specialization commutes with the ring operations, so agreement of the
# symbolic coordinates at p covers every spec at p
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("group", list(GroupId))
def test_weyl_formulas_are_the_matrix_coordinates(group, p):
    assert root_datum(group).weyl_words() is root_datum(group).weyl_words()
    for group, word in _formula_keys([group]):
        formula = rootdata.weyl_formula(group, word)
        assert formula.roots == matrix_path.kept_roots(group, p, word)
        assert matrix_path.formula_polys(formula, p) == matrix_path.symbolic_weyl(
            group, p, word, formula.roots
        ), word


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_duality_formula_is_the_matrix_coordinates(p):
    assert matrix_path.formula_polys(
        subgrp.duality_formula(), p
    ) == matrix_path.symbolic_duality(p)


def test_formulas_are_small_integer_polynomials():
    for group, word in _formula_keys():
        formula = rootdata.weyl_formula(group, word)
        assert len(formula.terms) == root_datum(group).num_positive
        coefs = [term[0] for terms in formula.terms for term in terms]
        assert len(coefs) <= 8 and all(0 < abs(c) <= 3 for c in coefs)
    assert rootdata.weyl_formula(GroupId.G2, (1, 2)) is rootdata.weyl_formula(
        GroupId.G2, (1, 2)
    )


@pytest.mark.parametrize(
    "group,p",
    [
        (GroupId.SL3, 2),
        (GroupId.SL3, 3),
        (GroupId.SP4, 2),
        (GroupId.SP4, 3),
        (GroupId.G2, 2),
    ],
)
def test_conjugation_matches_the_matrix_path_on_every_hit(group, p):
    count, bad = matrix_path.hit_mismatches(group, p, screen=True)
    assert count > 0
    assert bad == []


def _flipped(formula):
    """The formula with the sign of its first coefficient flipped."""
    flipped = copy.copy(formula)
    terms = list(formula.terms)
    j = next(j for j, coord in enumerate(terms) if coord)
    (coef, *rest), *others = terms[j]
    terms[j] = ((-coef, *rest), *others)
    flipped.terms = tuple(terms)
    return flipped


def test_a_flipped_formula_coefficient_is_caught(monkeypatch):
    real = rootdata.weyl_formula
    target = (GroupId.SL3, (1,))
    monkeypatch.setattr(
        rootdata,
        "weyl_formula",
        lambda *key: _flipped(real(*key)) if key == target else real(*key),
    )
    _count, bad = matrix_path.hit_mismatches(GroupId.SL3, 3, screen=True)
    assert bad and {word for _s, word, *_ in bad} == {(1,)}


def test_a_formula_image_must_be_one_parameter(monkeypatch):
    # two terms of different degree in one image coordinate
    spec = USpec(GroupId.SL3, PrimeField(5), (1, 1, 0), (1, 2, 0))
    key = ((1, 0, 0), (1, 0, 0))
    other = ((0, 1, 0), (0, 1, 0))
    bad = subgrp.Formula((1, 2, 3), (((key, 1), (other, 1)), (), ()))
    monkeypatch.setattr(rootdata, "weyl_formula", lambda *key: bad)
    with pytest.raises(AssertionError, match="not a one-parameter spec"):
        conjugate_by_word(spec, (1,))


def test_formula_degrees_are_held_to_the_exponent_bound():
    # the word s1 keeps a2 and a1+a2; their coordinates swap
    ok = USpec(GroupId.SL3, PrimeField(3), (0, 1, 1), (0, EXPONENT_BOUND, 1))
    assert conjugate_by_word(ok, (1,)).exps == (0, 1, EXPONENT_BOUND)
    big = USpec(GroupId.SL3, PrimeField(3), (0, 1, 1), (0, EXPONENT_BOUND + 1, 1))
    with pytest.raises(ExponentOverflow):
        conjugate_by_word(big, (1,))
    # the cross term c1 c2 a^q2 b^q1 of the derived system, b-degree above
    # the bound
    with pytest.raises(ExponentOverflow):
        subgrp.evaluate(
            subgrp._cross_terms(GroupId.SL3)[2], 3, (1, 1), (EXPONENT_BOUND + 1, 1)
        )
    assert subgrp.evaluate(
        subgrp._cross_terms(GroupId.SL3)[2], 3, (1, 1), (EXPONENT_BOUND, 1)
    ) == {(1, EXPONENT_BOUND): 2}  # -c1 c2 a^q2 b^q1 at p = 3


_LAZY = """
from rank2chev import cli, rootdata, subgrp
print(rootdata.weyl_formula.cache_info().currsize,
      subgrp.duality_formula.cache_info().currsize,
      subgrp.derive_additivity_system.cache_info().currsize)
"""


def test_formulas_are_derived_on_first_use_not_at_import():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _LAZY],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "0 0 0\n"


@pytest.mark.parametrize("group", list(GroupId))
def test_weyl_representatives_are_inverse_over_z(group):
    # the derivations run over Z, so n_w n_w^-1 = 1 holds as an identity of
    # integer matrices, with no reduction mod p
    for word in root_datum(group).weyl_words():
        n_w, n_w_inv = rootdata.weyl_representatives(group, word)
        assert n_w.field.p == 0
        assert (n_w * n_w_inv).is_identity(), word
        assert (n_w_inv * n_w).is_identity(), word
