import pytest

from rank2chev.exactalg import PrimeField
from rank2chev.rootdata import (
    GroupId,
    conjugate_by_word,
    regenerate_positive_roots,
    root_datum,
)
from rank2chev.subgrp import USpec, check_additive


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
    spec = USpec(GroupId.SP4, field, (0, 1, 1, 1), (0, 1, 1, 2))
    for word in datum.weyl_words():
        conj = conjugate_by_word(spec, word)
        if conj is None:
            continue
        back = conjugate_by_word(conj, word, invert=True)
        assert back is not None
        assert (back.coeffs, back.exps) == (spec.coeffs, spec.exps)
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
    assert check_additive(spec)
    orbit = _weyl_orbit(spec)
    assert len(orbit) > 1
    for conj in orbit:
        assert check_additive(conj), conj
