"""Exhaustive finite checkers for the two arithmetic facts behind the
classification: the polynomial cases for c(a+b)^z - ca^z - cb^z and the
non-p-power values of five integer expressions.

Conclusions are encoded as predicate sets and the checkers assert set
equality in both directions: every identity-solution satisfies the stated
conclusion, and every conclusion tuple solves the identity (for the
trichotomy case the unconstrained branch is checked by exhibiting a
solution of each admissible shape).  That catches transcription errors in
either direction.  The identity is solved for c by ``expansion_units``,
the same solver the completeness search prunes with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .exactalg import binomial_coeffs_modp, ppowers


@dataclass
class LemmaReport:
    case: str
    p: int
    solutions: int
    extra: list = field(default_factory=list)  # solutions violating the conclusion
    missing: list = field(default_factory=list)  # conclusion tuples not solving
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.extra and not self.missing


def expansion_units(z: int, rhs: dict, p: int) -> tuple[int, ...]:
    """The units c of F_p with c((a+b)^z - a^z - b^z) = rhs over F_p, rhs
    as {(i, j): coeff} with coefficients taken mod p.

    The left side has the terms C(z, k) a^k b^{z-k}, 0 < k < z, that are
    nonzero mod p (``binomial_coeffs_modp``); times a unit none of them
    vanishes, so both sides must have as many nonzero terms.  With no
    terms every unit solves; otherwise at most one does: the ratio at the
    first term, confirmed on every other term.
    """
    terms = binomial_coeffs_modp(z, p)
    if len(rhs) < len(terms):  # too few terms, whatever their values
        return ()
    if not terms:
        return () if any(w % p for w in rhs.values()) else tuple(range(1, p))
    k, binom = terms[0]
    c = rhs.get((k, z - k), 0) * pow(binom, p - 2, p) % p
    if (
        c
        and sum(1 for w in rhs.values() if w % p) == len(terms)
        and all(rhs.get((k, z - k), 0) % p == c * b % p for k, b in terms[1:])
    ):
        return (c,)
    return ()


@lru_cache(maxsize=None)
def admissible_z(p: int, z_max: int, width: int) -> tuple[int, ...]:
    """The z in 1..z_max at which a right side of at most ``width`` terms
    can solve: (a+b)^z - a^z - b^z has at most ``width`` nonzero terms mod
    p.  This is ``expansion_units``' own first test, taken once per z
    before any right side is built; by Lucas's theorem few z pass it.

    The terms are counted without being built: by Lucas's theorem C(z, k)
    is a unit mod p exactly when no base-p digit of k exceeds that of z,
    so (a+b)^z has prod (d_i + 1) nonzero terms over the digits d_i of z,
    a^z and b^z among them."""

    def middle_terms(z: int) -> int:
        count = 1
        while z:
            z, d = divmod(z, p)
            count *= d + 1
        return count - 2

    return tuple(z for z in range(1, z_max + 1) if middle_terms(z) <= width)


# Each polynomial case gives (items, conclusion, stated):
#   items       lazily, (z values, right side, parameter tuples), the tuples
#               an iterable read exactly once; the right side is solved once
#               per z, and a solution is (z, c, *parameters) for each of the
#               tuples and each z with its units c of ``expansion_units``;
#   conclusion  the stated conclusion as a predicate on a solution tuple;
#   stated      (tuple, z, c, right side) for conclusion tuples, each of
#               which must solve the identity.


def _stated(p: int, z_max: int, xfac: int, divisor: int, params, rhs):
    """Conclusion and stated tuples of a case whose conclusion lists its
    solutions: z = xfac q1 and c = c1/divisor for each p-power q1 and unit
    c1, with parameters params(c1, q1), and none when p = divisor.  A
    solution satisfies the conclusion when it is one of these tuples."""
    stated = []
    if p != divisor:
        inv = pow(divisor, p - 2, p)
        for q1 in ppowers(p, z_max // xfac):
            for c1 in range(1, p):
                t = params(c1, q1)
                z, c = xfac * q1, c1 * inv % p
                stated.append(((z, c) + t, z, c, rhs(*t)))
    tuples = {s[0] for s in stated}
    return tuples.__contains__, stated


def _case_1(p: int, z_max: int):
    # P = c1 a^{q2} b^{q1}  =>  z = 2q1 = 2q2, p != 2, c = c1/2
    pp = ppowers(p, z_max)

    def rhs(c1, q1, q2):
        return {(q2, q1): c1}

    def items():
        # the right side is homogeneous of degree q1 + q2, so only that z
        # can solve
        for q1 in pp:
            for q2 in pp:
                if q1 + q2 <= z_max:
                    for c1 in range(1, p):
                        t = (c1, q1, q2)
                        yield (q1 + q2,), rhs(*t), (t,)

    return items(), *_stated(p, z_max, 2, 2, lambda c1, q1: (c1, q1, q1), rhs)


def _case_shape(terms, xfac: int, divisor: int, p: int, z_max: int):
    # P = c1 sum_t w_t a^{i_t q1} b^{j_t q1} over terms (i_t, j_t, w_t)
    #   =>  z = xfac q1, p != divisor, c = c1/divisor
    def rhs(c1, q1):
        return {(i * q1, j * q1): c1 * w for i, j, w in terms}

    def items():
        # the right side is homogeneous of degree xfac q1, so only that z
        # can solve
        for q1 in ppowers(p, z_max // xfac):
            for c1 in range(1, p):
                yield (xfac * q1,), rhs(c1, q1), ((c1, q1),)

    return items(), *_stated(p, z_max, xfac, divisor, lambda c1, q1: (c1, q1), rhs)


def _case_5(p: int, z_max: int):
    # P = c1 a^{q3} b^{2q1} + c2 a^{q4} b^{q1}
    #   =>  z = 3q1, q3 = q1, q4 = 2q1, p != 3, c = c1/3 = c2/3
    units = range(1, p)

    def rhs(c1, c2, q1, q3, q4):
        return {(q3, 2 * q1): c1, (q4, q1): c2}

    def items():
        # the two monomials are always distinct (q1 >= 1) and nonzero, so
        # homogeneity forces z = q3 + 2q1 = q4 + q1 exactly; the right
        # sides have two terms
        for q1 in ppowers(p, z_max):
            for z in admissible_z(p, z_max, 2):
                if z < 2 * q1:
                    continue
                q3, q4 = z - 2 * q1, z - q1
                for c1 in units:
                    for c2 in units:
                        t = (c1, c2, q1, q3, q4)
                        yield (z,), rhs(*t), (t,)

    return items(), *_stated(
        p, z_max, 3, 3, lambda c1, q1: (c1, c1, q1, q1, 2 * q1), rhs
    )


def _case_6(p: int, z_max: int):
    # P = c1 a^{q4} b^{q1} + c2 a^{q5} b^{q2}; trichotomy:
    #  (I)  z a p-power, q4 = q5, q1 = q2, c1 + c2 = 0
    #  (II) z = 2q1, q1 = q2 = q4 = q5, p != 2, c = (c1+c2)/2
    #  (III) q5 = q1 != q2 = q4
    pp, units = ppowers(p, z_max), range(1, p)
    half = pow(2, p - 2, p)

    def rhs(c1, c2, q1, q2, q4, q5):
        out = {(q4, q1): c1}
        out[(q5, q2)] = out.get((q5, q2), 0) + c2
        return out

    pp_set = frozenset(pp)

    def conclusion(tup):
        z, c, c1, c2, q1, q2, q4, q5 = tup
        if z in pp_set and q4 == q5 and q1 == q2 and (c1 + c2) % p == 0:
            return True
        if (
            p != 2
            and q1 == q2 == q4 == q5
            and z == 2 * q1
            and c == (c1 + c2) * half % p
        ):
            return True
        return q5 == q1 != q2 == q4

    pairs = [(c1, -c1 % p) for c1 in units]

    def cancelling():
        for q1 in pp:
            for q4 in range(z_max + 1):
                for c1, c2 in pairs:
                    yield (c1, c2, q1, q1, q4, q4)

    def items():
        # cancelling right sides: q4 = q5, q1 = q2, c1 = -c2; they are all
        # the zero polynomial mod p, one right side solved once per z, and
        # every unit solves it at every p-power z
        yield pp, {}, cancelling()
        # non-cancelling: homogeneity forces z = q4 + q1 = q5 + q2; the
        # right sides have at most two terms
        for q1 in pp:
            for q2 in pp:
                for z in admissible_z(p, z_max, 2):
                    if z < max(q1, q2):
                        continue
                    for c1 in units:
                        for c2 in units:
                            # the cancelling right sides are handled above
                            if q1 != q2 or (c1 + c2) % p:
                                t = (c1, c2, q1, q2, z - q1, z - q2)
                                yield (z,), rhs(*t), (t,)

    def stated():
        # (I) and (II) tuples always solve; every (III) shape admits a
        # solution
        for z in pp:
            for q1 in pp[:3]:
                for q4 in (0, 1, q1):
                    for c1 in units:
                        for c in units[:2]:
                            t = (c1, -c1 % p, q1, q1, q4, q4)
                            yield ("I", z, c, c1, q1, q4), z, c, rhs(*t)
        if p != 2:
            for q1 in ppowers(p, z_max // 2):
                for c1 in units:
                    for c2 in units:
                        c = (c1 + c2) * half % p
                        if c:
                            t = (c1, c2, q1, q1, q1, q1)
                            yield ("II", q1, c1, c2), 2 * q1, c, rhs(*t)
        for q1 in pp:
            for q2 in pp:
                if q1 != q2 and q1 + q2 <= z_max:
                    # shape (III): q5 = q1 != q2 = q4; with z = q1 + q2 the
                    # binomial support is exactly these two monomials.  The
                    # right side is c times its value at c = 1, so some
                    # unit solves exactly when c = 1 does
                    t = (1, 1, q1, q2, q2, q1)
                    yield ("III", q1, q2), q1 + q2, 1, rhs(*t)

    return items(), conclusion, stated()


_POLY_CASES = {
    1: _case_1,
    2: partial(_case_shape, [(1, 2, 1), (2, 1, 1)], 3, 3),
    3: partial(_case_shape, [(1, 3, 2), (2, 2, 3), (3, 1, 2)], 4, 2),
    4: partial(_case_shape, [(1, 4, 1), (2, 3, 2), (3, 2, 2), (4, 1, 1)], 5, 5),
    5: _case_5,
    6: _case_6,
}


def check_poly_lemma(case: int, p: int, z_max: int = 200) -> LemmaReport:
    """Exhaustive check of one polynomial case over F_p.

    Enumerates all parameter tuples within the bounds, solves the stated
    identity exactly for c, and compares the solution set with the
    conclusion set.  Each item names the z at which its right side can
    solve; no other z is tried.  The right side is solved once per z, and
    every solution, each of the item's tuples with each z and its unit c,
    goes through the conclusion: item by item, then tuple by tuple, its
    tuples read once.  Cases 3 and 4 are hypotheses-vacuous at p = 2 and
    are reported as such.
    """
    if case in (3, 4) and p == 2:
        return LemmaReport(
            case=f"poly-{case}", p=p, solutions=0,
            note="hypothesis excludes p=2; vacuously checked",
        )
    if case not in _POLY_CASES:
        raise ValueError(f"unknown polynomial case {case}")
    items, conclusion, stated = _POLY_CASES[case](p, z_max)
    solutions, extra = 0, []
    for zs, rhs, tuples in items:
        units = [(z, c) for z in zs for c in expansion_units(z, rhs, p)]
        for t in tuples:
            for zc in units:
                tup = zc + t
                solutions += 1
                if not conclusion(tup):
                    extra.append(tup)
    missing = [
        tup for tup, z, c, rhs in stated if c not in expansion_units(z, rhs, p)
    ]
    return LemmaReport(f"poly-{case}", p, solutions, extra, missing)


# ---------------------------------------------------------------------------
# Non-p-power expressions
# ---------------------------------------------------------------------------

_EXPRESSIONS = {
    1: ("(2^(f+2)-1)/3", 2, lambda p, f: (2 ** (f + 2) - 1, 3)),
    2: ("(2^(f+1)+1)/3", 2, lambda p, f: (2 ** (f + 1) + 1, 3)),
    3: ("(p^f+1)/2", None, lambda p, f: (p**f + 1, 2)),
    4: ("(p^(f+1)+3)/2", None, lambda p, f: (p ** (f + 1) + 3, 2)),
    5: ("(3p^f+1)/2", None, lambda p, f: (3 * p**f + 1, 2)),
}


def check_ppower_lemma(expr: int, p: int, f_max: int = 20, m_max: int = 64) -> LemmaReport:
    """The expression is never a power of its base for f in [1, f_max].

    Integrality is checked first (a non-integer is trivially not a power);
    the power test strips the base completely, so the m_max bound is a
    sanity cap rather than a truncation.
    """
    text, base_override, make = _EXPRESSIONS[expr]
    base = base_override if base_override is not None else p
    counterexamples = []
    checked = 0
    for f in range(1, f_max + 1):
        num, den = make(p, f)
        if num % den:
            continue  # not an integer, trivially not a power
        v = num // den
        checked += 1
        m = 0
        w = v
        while w % base == 0:
            w //= base
            m += 1
        if w == 1 and v >= 1:
            if m > m_max:
                raise AssertionError(f"power exponent {m} beyond bound {m_max}")
            counterexamples.append((f, v, m))
    return LemmaReport(
        case=f"ppower-{expr}[{text}]",
        p=p,
        solutions=checked,
        extra=counterexamples,
        note=f"base {base}",
    )
