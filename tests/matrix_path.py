"""Weyl conjugation and SL3 duality recomputed with matrices.

The engine evaluates integer formulas (``rootdata.weyl_formula``,
``subgrp.duality_formula``) that it derives once.  This module computes
the same images independently, in the faithful module over the spec's own
F_p: n_w u(x) n_w^-1 as a ``PolyMatrix`` product, re-factorized by
``normal_form_factorize``.  The tests and ``tests/sweep_conjugation.py``
compare the two.  It is a helper, not a test module: pytest does not
collect it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from rank2chev import chevrep, subgrp
from rank2chev.exactalg import PolyFp, PolyMatrix, PrimeField
from rank2chev.rootdata import GroupId, conjugate_by_word, root_datum


def _product(rep, factors) -> PolyMatrix:
    return reduce(mul, factors, PolyMatrix.identity(rep.field, rep.dim))


@lru_cache(maxsize=None)
def representatives(group: GroupId, p: int, word: tuple[int, ...]):
    """(n_w, n_w^-1) over F_p, n_k = u_k(1) u_{-k}(-1) u_k(1)."""
    rep = chevrep.faithful_rep(group, PrimeField(p))
    n_w = _product(
        rep, [rep.u(k, 1) * rep.u(-k, -1) * rep.u(k, 1) for k in word]
    )
    n_w_inv = _product(
        rep, [rep.u(k, -1) * rep.u(-k, 1) * rep.u(k, -1) for k in reversed(word)]
    )
    assert (n_w * n_w_inv).is_identity() and (n_w_inv * n_w).is_identity()
    return n_w, n_w_inv


def _conjugate(group, p, word, u) -> PolyMatrix:
    n_w, n_w_inv = representatives(group, p, word)
    return n_w * u * n_w_inv


def _dual(rep, u_inv) -> PolyMatrix:
    """J (g^-1)^T J^-1 from g^-1, J the antidiagonal (1, -1, 1)."""
    n = rep.dim
    signs = (1, -1, 1)
    return PolyMatrix(
        rep.field,
        [
            [
                u_inv.entries[n - 1 - c][n - 1 - r] * (signs[r] * signs[c])
                for c in range(n)
            ]
            for r in range(n)
        ],
    )


def _spec(group, field, coords):
    """The one-parameter spec with these coordinates; None if one is not
    0 or c*x^q."""
    coeffs, exps = [], []
    for s in coords:
        monos = list(s.monomials())
        if not monos:
            coeffs.append(0)
            exps.append(0)
        elif len(monos) == 1 and set(monos[0][0]) == {"x"}:
            coeffs.append(monos[0][1])
            exps.append(monos[0][0]["x"])
        else:
            return None
    return subgrp.USpec(group, field, tuple(coeffs), tuple(exps))


def weyl_image(spec, word, u=None, screen=False):
    """n_w u(x) n_w^-1 of a spec: None when it is not unipotent, that is
    when the word carries a supported root to a negative one.  ``u`` is
    u(x) of the spec, if the caller has it.  With ``screen`` a spec
    supported off ``kept_roots`` gets None without the product."""
    if not word:
        return spec
    if screen and not set(spec.support) <= set(
        kept_roots(spec.group, spec.field.p, word)
    ):
        return None
    rep = chevrep.faithful_rep(spec.group, spec.field)
    if u is None:
        u = subgrp.u_matrix(spec, rep)
    conj = _conjugate(spec.group, spec.field.p, word, u)
    try:
        coords = subgrp.normal_form_factorize(conj, rep)
    except subgrp.NotUnipotent:
        return None
    image = _spec(spec.group, spec.field, coords)
    assert image is not None, "Weyl conjugate is not a one-parameter spec"
    return image


def duality_image(spec):
    """The SL3 graph automorphism of a spec; None for other groups or when
    the image is not a one-parameter spec."""
    if spec.group is not GroupId.SL3:
        return None
    field = spec.field
    rep = chevrep.faithful_rep(spec.group, field)
    u_inv = _product(
        rep,
        [
            rep.u(i, PolyFp.monomial(field, -c, {"x": q}))
            for i, c, q in reversed(list(zip((1, 2, 3), spec.coeffs, spec.exps)))
            if c
        ],
    )
    return _spec(
        spec.group, field, subgrp.normal_form_factorize(_dual(rep, u_inv), rep)
    )


# -- the formulas as polynomials over a small field ----------------------------


def _param(field, i):
    return PolyFp.monomial(field, 1, {f"c{i}": 1, f"X{i}": 1})


def symbolic_weyl(group, p, word, roots):
    """Coordinates of n_w u n_w^-1 over F_p, u = prod over ``roots`` of
    u_i(c_i X_i)."""
    field = PrimeField(p)
    rep = chevrep.faithful_rep(group, field)
    u = _product(rep, [rep.u(i, _param(field, i)) for i in roots])
    return subgrp.normal_form_factorize(_conjugate(group, p, word, u), rep)


def symbolic_duality(p):
    field = PrimeField(p)
    rep = chevrep.faithful_rep(GroupId.SL3, field)
    u_inv = _product(rep, [rep.u(i, -_param(field, i)) for i in (3, 2, 1)])
    return subgrp.normal_form_factorize(_dual(rep, u_inv), rep)


def formula_polys(formula, p):
    """The formula's coordinates reduced mod p, as polynomials in c_i, X_i,
    read off its compiled terms."""
    field = PrimeField(p)
    out = []
    for terms in formula.terms:
        poly = PolyFp.zero(field)
        for coef, cpows, (xpows,) in terms:
            exps = {f"c{i + 1}": e for i, e in cpows}
            exps.update({f"X{i + 1}": e for i, e in xpows})
            poly = poly + PolyFp.monomial(field, coef, exps)
        out.append(poly)
    return out


@lru_cache(maxsize=None)
def kept_roots(group, p, word):
    """The roots i with n_w u_i(s) n_w^-1 unipotent, found by matrices."""
    field = PrimeField(p)
    rep = chevrep.faithful_rep(group, field)
    kept = []
    for i in range(1, rep.datum.num_positive + 1):
        u = rep.u(i, PolyFp.monomial(field, 1, {"s": 1}))
        try:
            subgrp.normal_form_factorize(_conjugate(group, p, word, u), rep)
        except subgrp.NotUnipotent:
            continue
        kept.append(i)
    return tuple(kept)


# -- the hit-level comparison ------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def hit_mismatches(group, p, q_max=None, screen=False):
    """Compare formula and matrix path on every search hit of (group, p),
    q_max = p^2 by default: every Weyl word, plus the duality.  ``screen`` is passed to ``weyl_image``.  Returns
    (comparisons, mismatches)."""
    q_max = q_max or p * p
    words = root_datum(group).weyl_words()
    count = 0
    bad = []
    for spec, _t in subgrp.search_solutions(group, p, q_max):
        u = subgrp.u_matrix(spec, chevrep.faithful_rep(group, spec.field))
        for word in words:
            got = _outcome(conjugate_by_word, spec, word)
            want = _outcome(weyl_image, spec, word, u, screen)
            count += 1
            if got != want:
                bad.append((spec, word, got, want))
        if group is GroupId.SL3:
            got, want = subgrp.duality_transform(spec), duality_image(spec)
            count += 1
            if got != want:
                bad.append((spec, "duality", got, want))
    return count, bad
