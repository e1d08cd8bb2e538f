from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rep_validation import validate_rep

from rank2chev import chevrep
from rank2chev.chevrep import Ext, Leaf, Sym, Tensor, UnknownModule
from rank2chev.exactalg import PolyFp, PrimeField, nullspace
from rank2chev.rootdata import GroupId

F3, F5, F7 = map(PrimeField, (3, 5, 7))


def test_unknown_module():
    with pytest.raises(UnknownModule):
        chevrep.build_rep(GroupId.SL3, "V2", F3)


def test_g2_printed_matrices():
    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    x = PolyFp.monomial(F5, 1, {"x": 1})
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
    x = PolyFp.monomial(F5, 1, {"x": 1})
    u3 = rep.u(3, x)
    assert u3.entries[0][2] == x
    assert sum(1 for r in range(3) for c in range(3) if r != c and u3.entries[r][c].terms) == 1


def test_sp4_v1_dimension_and_weights():
    rep = chevrep.build_rep(GroupId.SP4, "V1", F3)
    assert rep.dim == 5
    # omega1, omega1-a1, omega1-a1-a2, omega1-a1-2a2, omega1-2a1-2a2
    assert rep.weights == ((1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0))


def test_sp4_v1_is_its_f_monomial_span_in_wedge2_v2():
    """Re-derive V1 over Z as the span of m1 = v21^v22, f_1 m1, f_3 m1,
    f_4 m1 and f_1 f_4 m1 in wedge2(V2), f_a the x-linear slice of u_-a(x):
    every x^k slice of every signed root element maps the span into itself
    with integer coordinates, and these are the table's divided powers."""
    v2 = chevrep.build_rep(GroupId.SP4, "V2", PrimeField(0))
    v1 = chevrep.build_rep(GroupId.SP4, "V1", PrimeField(0))
    pairs = list(combinations(range(4), 2))

    def slices(root: int) -> dict:
        """{k: {pair: image of that wedge basis vector under the x^k slice}}."""
        powers = [(0, {(i, i): 1 for i in range(4)})] + v2.divided_powers(root)
        cols = [
            [(k, {r: v for (r, c), v in m.items() if c == i}) for k, m in powers]
            for i in range(4)
        ]
        order = {i: i for i in range(4)}
        out: dict = {}
        for i, j in pairs:
            for (ka, a), (kb, b) in product(cols[i], cols[j]):
                acc = out.setdefault(ka + kb, {}).setdefault((i, j), {})
                for label, v in chevrep.wedge_legs([a, b], order).items():
                    acc[label] = acc.get(label, 0) + v
        del out[0]
        return out

    def apply(m: dict, vec: dict) -> dict:
        out: dict = {}
        for pair, c in vec.items():
            for label, v in m[pair].items():
                out[label] = out.get(label, 0) + c * v
        return {label: v for label, v in out.items() if v}

    def coords(vec: dict) -> list[int]:
        rows = [[b.get(l, 0) for b in basis] + [-vec.get(l, 0)] for l in pairs]
        (relation,) = nullspace(rows, 6)  # vec lies in the span
        assert relation[5] == 1, vec  # with integer coordinates
        return relation[:5]

    f1, f3, f4 = (slices(-root)[1] for root in (1, 3, 4))
    m1 = {(0, 1): 1}
    m4 = apply(f4, m1)
    basis = [m1, apply(f1, m1), apply(f3, m1), m4, apply(f1, m4)]
    weights = [tuple(map(sum, zip(*(v2.weights[i] for i in min(b))))) for b in basis]
    assert tuple(weights) == v1.weights
    for root in (1, 2, 3, 4, -1, -2, -3, -4):
        derived = []
        for k, m in sorted(slices(root).items()):
            images = [coords(apply(m, b)) for b in basis]
            entries = {
                (r, c): v for c, im in enumerate(images) for r, v in enumerate(im) if v
            }
            if entries:
                derived.append((k, entries))
        assert derived == v1.divided_powers(root), root


@pytest.mark.parametrize("group,module", [
    (GroupId.SL3, "natural"),
    (GroupId.SP4, "V2"),
    (GroupId.SP4, "V1"),
    (GroupId.G2, "V"),
])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_validate_rep_all_modules(group, module, p):
    report = validate_rep(chevrep.build_rep(group, module, PrimeField(p)))
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
    assert chevrep.expr_basis(expr) == [(0, 1), (0, 2), (1, 2)]
    x = PolyFp.monomial(F5, 1, {"x": 1})
    mats = {"natural": rep.u(1, x)}  # u_{a1}(x)
    # e1^e3 is fixed; e2^e3 -> e2^e3 + x e1^e3 (hand 2-minor expansion)
    assert chevrep.act_on_vector(expr, mats, {(0, 2): 1}) == {(0, 2): 1}
    assert chevrep.act_on_vector(expr, mats, {(1, 2): 1}) == {(1, 2): 1, (0, 2): x}


def test_sym1_is_identity_functor():
    rep = chevrep.build_rep(GroupId.SP4, "V2", F3)
    expr = Sym(1, Leaf(rep))
    assert chevrep.expr_basis(expr) == [(c,) for c in range(rep.dim)]
    x = PolyFp.monomial(F3, 1, {"x": 1})
    for root in (1, 2, 3, 4):
        u = rep.u(root, x)
        for c in range(rep.dim):
            column = {
                (r,): u.entries[r][c] for r in range(rep.dim) if u.entries[r][c].terms
            }
            assert chevrep.act_on_vector(expr, {"V2": u}, {(c,): 1}) == column


def test_ext3_g2_wedge_action_has_2e34_term():
    rep = chevrep.build_rep(GroupId.G2, "V", F5)
    expr = Ext(3, Leaf(rep))
    assert chevrep.expr_dim(expr) == len(chevrep.expr_basis(expr)) == 35
    x = PolyFp.monomial(F5, 1, {"x": 1})
    u1 = rep.u(1, x)
    # v4 slot image contains 2x v3 per the printed 2E34 term
    assert u1.entries[2][3] == 2 * x
    # on w = (v2 - v3) ^ v4 ^ v6 the same term surfaces as 2x (v2^v3^v6)
    w = {(1, 3, 5): 1, (2, 3, 5): -1}
    img = chevrep.act_on_vector(expr, {"V": u1}, w)
    assert img[(1, 2, 5)] == 2 * x
    assert img[(0, 3, 5)] == x  # the E12 slot contributes x (v1^v4^v6)


def test_cocharacter_weights_zero_cocharacter():
    from types import SimpleNamespace

    rep = chevrep.build_rep(GroupId.G2, "V", F3)
    zero = SimpleNamespace(m1=0, m2=0)
    assert chevrep.cocharacter_weights(rep, zero) == (0,) * 7


def test_functor_weights_are_sums():
    rep = chevrep.build_rep(GroupId.G2, "V", F3)
    ext = Ext(3, Leaf(rep))
    for label in chevrep.expr_basis(ext):
        parts = [rep.weights[i] for i in label]
        assert len(set(label)) == 3
        wt = chevrep.expr_weight(ext, label)
        assert wt == (sum(w[0] for w in parts), sum(w[1] for w in parts))
    t = Tensor((Leaf(rep), Leaf(rep)))
    for label in chevrep.expr_basis(t):
        parts = [rep.weights[i] for i in label]
        wt = chevrep.expr_weight(t, label)
        assert wt == (sum(w[0] for w in parts), sum(w[1] for w in parts))


def test_leaf_names():
    v2 = Leaf(chevrep.build_rep(GroupId.SP4, "V2", F3))
    v1 = Leaf(chevrep.build_rep(GroupId.SP4, "V1", F3))
    assert chevrep.leaf_names(Sym(2, Ext(2, v2))) == {"V2"}
    mixed = Tensor((Sym(2, v2), v1))
    assert chevrep.leaf_names(mixed) == {"V1", "V2"}


@st.composite
def _kernel_case(draw):
    """Legs over a small label set whose basis order is not the label order;
    coefficients all ints or all PolyFp over F_5."""
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=1, unique=True))
    order = {l: i for i, l in enumerate(draw(st.permutations(labels)))}
    if draw(st.booleans()):
        coeff = st.integers(-3, 3)
    else:
        coeff = st.builds(
            lambda a, b: PolyFp.const(F5, a) + PolyFp.monomial(F5, b, {"x": 1}),
            st.integers(0, 4),
            st.integers(0, 4),
        )
    leg = st.dictionaries(st.sampled_from(labels), coeff, max_size=len(labels))
    return draw(st.lists(leg, max_size=3)), order


def _inversion_sign(perm) -> int:
    inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
def test_functor_kernel_matches_brute_force(case):
    legs, order = case
    n = len(legs)
    by_position = sorted(order, key=order.__getitem__)

    def nonzero(vec):
        return {l: c for l, c in vec.items() if c != 0}

    def sort(labels):
        return tuple(sorted(labels, key=order.__getitem__))

    tensor = {
        tuple(l for l, _ in terms): prod(c for _, c in terms)
        for terms in product(*(leg.items() for leg in legs))
    }
    assert nonzero(chevrep.tensor_legs(legs)) == nonzero(tensor)
    # Leibniz: the coefficient of s_1 ^ ... ^ s_n is the signed sum over
    # permutations sigma of prod_i leg_i[s_sigma(i)]
    wedge = {
        subset: sum(
            _inversion_sign(perm)
            * prod(leg.get(subset[perm[i]], 0) for i, leg in enumerate(legs))
            for perm in permutations(range(n))
        )
        for subset in combinations(by_position, n)
    }
    assert nonzero(chevrep.wedge_legs(legs, order)) == nonzero(wedge)
    # every tensor tuple that sorts to the same multiset adds to it
    sym = {
        multiset: sum(
            prod(leg[l] for leg, l in zip(legs, chosen))
            for chosen in product(*legs)
            if sort(chosen) == multiset
        )
        for multiset in combinations_with_replacement(by_position, n)
    }
    assert nonzero(chevrep.sym_legs(legs, order)) == nonzero(sym)
