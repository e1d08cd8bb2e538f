"""Exhaustive finite checkers for the two arithmetic facts behind the
classification: the polynomial cases for c(a+b)^z - ca^z - cb^z and the
non-p-power values of five integer expressions.

Conclusions are encoded as predicate sets and the checkers assert set
equality in both directions: every identity-solution satisfies the stated
conclusion, and every conclusion tuple solves the identity (for the
trichotomy case the unconstrained branch is checked by exhibiting a
solution of each admissible shape).  That catches transcription errors in
either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactalg import PrimeField, is_ppower
from .subgrp import binomial_coeffs_modp


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


def _ppowers(p: int, bound: int) -> list[int]:
    out = []
    q = 1
    while q <= bound:
        out.append(q)
        q *= p
    return out


def _identity_holds(c: int, z: int, rhs: dict, p: int) -> bool:
    """c((a+b)^z - a^z - b^z) == rhs over F_p, rhs as {(i, j): coeff}.

    The left side has the terms C(z, k) a^k b^{z-k}, 0 < k < z, that are
    nonzero mod p (``binomial_coeffs_modp``); times a unit c none of them
    vanishes, so the two sides agree when they have as many terms and
    every left term appears on the right with its coefficient.
    """
    rhs = {key: v % p for key, v in rhs.items() if v % p}
    c %= p
    if not c:
        return not rhs
    terms = binomial_coeffs_modp(z, p)
    if len(terms) != len(rhs):
        return False
    return all(rhs.get((k, z - k)) == c * v % p for k, v in terms)


def _solutions(z: int, items: list, p: int) -> list:
    """The pairs (c, item) with c a unit and c((a+b)^z - a^z - b^z) equal
    to the item's right side (its last element), in the order of a loop
    over c = 1..p-1 outside and the items inside.

    A nonzero right side admits at most one c: the ratio of its
    a^k b^{z-k} coefficient to C(z, k) for any one binomial term, which
    ``_identity_holds`` then confirms.  A right side that is zero mod p is
    met by every unit exactly when z has no middle binomial term.
    """
    terms = binomial_coeffs_modp(z, p)
    hits = []
    for n, item in enumerate(items):
        rhs = item[-1]
        if not any(v % p for v in rhs.values()):
            if not terms:
                hits.extend((c, n) for c in range(1, p))
        elif terms:
            k, v = terms[0]
            c = rhs.get((k, z - k), 0) * pow(v, p - 2, p) % p
            if c and _identity_holds(c, z, rhs, p):
                hits.append((c, n))
    return [(c, items[n]) for c, n in sorted(hits)]


def check_poly_lemma(case: int, p: int, z_max: int = 200) -> LemmaReport:
    """Exhaustive check of one polynomial case over F_p.

    Enumerates all parameter tuples within the bounds, tests the stated
    identity exactly, and compares the solution set with the conclusion
    set.  Cases 3 and 4 are hypotheses-vacuous at p = 2 and are reported
    as such.
    """
    fld = PrimeField(p)
    pp = _ppowers(p, z_max)
    units = list(fld.units())

    if case in (3, 4) and p == 2:
        return LemmaReport(
            case=f"poly-{case}", p=p, solutions=0,
            note="hypothesis excludes p=2; vacuously checked",
        )

    if case == 1:
        # P = c1 a^{q2} b^{q1}  =>  z = 2q1 = 2q2, p != 2, c = c1/2
        def rhs(c1, q1, q2):
            return {(q2, q1): c1}

        def conclusion(z, c, c1, q1, q2):
            return (
                p != 2
                and q1 == q2
                and z == 2 * q1
                and c == c1 * pow(2, p - 2, p) % p
            )

        solutions, extra = [], []
        for q1 in pp:
            for q2 in pp:
                rhss = [(c1, rhs(c1, q1, q2)) for c1 in units]
                for z in range(1, z_max + 1):
                    for c, (c1, _r) in _solutions(z, rhss, p):
                        solutions.append((z, c, c1, q1, q2))
                        if not conclusion(z, c, c1, q1, q2):
                            extra.append((z, c, c1, q1, q2))
        missing = []
        if p != 2:
            inv2 = pow(2, p - 2, p)
            for q1 in pp:
                if 2 * q1 > z_max:
                    continue
                for c1 in units:
                    tup = (2 * q1, c1 * inv2 % p, c1, q1, q1)
                    if not _identity_holds(tup[1], tup[0], rhs(c1, q1, q1), p):
                        missing.append(tup)
        return LemmaReport(f"poly-{case}", p, len(solutions), extra, missing)

    if case in (2, 3, 4):
        shapes = {
            2: ([(1, 2, 1), (2, 1, 1)], 3, 3),  # exps (i*q1, j*q1) with coeff
            3: ([(1, 3, 2), (2, 2, 3), (3, 1, 2)], 4, 2),
            4: ([(1, 4, 1), (2, 3, 2), (3, 2, 2), (4, 1, 1)], 5, 5),
        }
        terms, xfac, divisor = shapes[case]

        def rhs(c1, q1):
            return {(i * q1, j * q1): c1 * w for i, j, w in terms}

        def conclusion(z, c, c1, q1):
            if p == divisor or z != xfac * q1:
                return False
            return c == c1 * pow(divisor, p - 2, p) % p

        solutions, extra = [], []
        for q1 in pp:
            rhss = [(c1, rhs(c1, q1)) for c1 in units]
            for z in range(1, z_max + 1):
                for c, (c1, _r) in _solutions(z, rhss, p):
                    solutions.append((z, c, c1, q1))
                    if not conclusion(z, c, c1, q1):
                        extra.append((z, c, c1, q1))
        missing = []
        if p != divisor:
            invd = pow(divisor, p - 2, p)
            for q1 in pp:
                if xfac * q1 > z_max:
                    continue
                for c1 in units:
                    tup = (xfac * q1, c1 * invd % p, c1, q1)
                    if not _identity_holds(tup[1], tup[0], rhs(c1, q1), p):
                        missing.append(tup)
        return LemmaReport(f"poly-{case}", p, len(solutions), extra, missing)

    if case == 5:
        # P = c1 a^{q3} b^{2q1} + c2 a^{q4} b^{q1}
        # => z = 3q1, q3 = q1, q4 = 2q1, p != 3, c = c1/3 = c2/3
        def rhs(c1, c2, q1, q3, q4):
            out: dict = {}
            for key, v in (((q3, 2 * q1), c1), ((q4, q1), c2)):
                out[key] = (out.get(key, 0) + v) % p
            return out

        def conclusion(z, c, c1, c2, q1, q3, q4):
            if p == 3 or c1 != c2:
                return False
            inv3 = pow(3, p - 2, p)
            return (
                z == 3 * q1
                and q3 == q1
                and q4 == 2 * q1
                and c == c1 * inv3 % p
            )

        solutions, extra = [], []
        # the two monomials are always distinct (q1 >= 1) and nonzero, so
        # homogeneity forces z = q3 + 2q1 = q4 + q1 exactly
        for q1 in pp:
            for q3 in range(0, z_max + 1):
                z = q3 + 2 * q1
                q4 = z - q1
                if z > z_max or q4 < 0:
                    continue
                rhss = [
                    (c1, c2, rhs(c1, c2, q1, q3, q4)) for c1 in units for c2 in units
                ]
                for c, (c1, c2, _r) in _solutions(z, rhss, p):
                    tup = (z, c, c1, c2, q1, q3, q4)
                    solutions.append(tup)
                    if not conclusion(*tup):
                        extra.append(tup)
        missing = []
        if p != 3:
            inv3 = pow(3, p - 2, p)
            for q1 in pp:
                if 3 * q1 > z_max:
                    continue
                for c1 in units:
                    tup = (3 * q1, c1 * inv3 % p, c1, c1, q1, q1, 2 * q1)
                    if not _identity_holds(
                        tup[1], tup[0], rhs(c1, c1, q1, q1, 2 * q1), p
                    ):
                        missing.append(tup)
        return LemmaReport(f"poly-{case}", p, len(solutions), extra, missing)

    if case == 6:
        # P = c1 a^{q4} b^{q1} + c2 a^{q5} b^{q2}; trichotomy:
        #  (I)  z a p-power, q4 = q5, q1 = q2, c1 + c2 = 0
        #  (II) z = 2q1, q1 = q2 = q4 = q5, p != 2, c = (c1+c2)/2
        #  (III) q5 = q1 != q2 = q4
        def rhs(c1, c2, q1, q2, q4, q5):
            out: dict = {}
            for key, v in (((q4, q1), c1), ((q5, q2), c2)):
                out[key] = (out.get(key, 0) + v) % p
            return out

        def predicate(z, c, c1, c2, q1, q2, q4, q5):
            if is_ppower(z, p) and q4 == q5 and q1 == q2 and (c1 + c2) % p == 0:
                return True
            if (
                p != 2
                and q1 == q2 == q4 == q5
                and z == 2 * q1
                and c == (c1 + c2) * pow(2, p - 2, p) % p
            ):
                return True
            return q5 == q1 != q2 == q4

        solutions, extra = [], []
        # cancelling right sides: q4 = q5, q1 = q2, c1 = -c2, z any p-power
        for q1 in pp:
            for q4 in range(0, z_max + 1):
                for c1 in units:
                    c2 = (-c1) % p
                    if c2 == 0:
                        continue
                    for z in _ppowers(p, z_max):
                        for c in units:
                            tup = (z, c, c1, c2, q1, q1, q4, q4)
                            solutions.append(tup)
                            if not predicate(*tup):
                                extra.append(tup)
        # non-cancelling: homogeneity forces z = q4 + q1 = q5 + q2
        for q1 in pp:
            for q2 in pp:
                for q4 in range(0, z_max + 1):
                    z = q4 + q1
                    q5 = z - q2
                    if z > z_max or z < 1 or q5 < 0:
                        continue
                    rhss = [
                        (c1, c2, rhs(c1, c2, q1, q2, q4, q5))
                        for c1 in units
                        for c2 in units
                        # the cancelling right sides are handled above
                        if (q4, q1) != (q5, q2) or (c1 + c2) % p
                    ]
                    for c, (c1, c2, _r) in _solutions(z, rhss, p):
                        tup = (z, c, c1, c2, q1, q2, q4, q5)
                        solutions.append(tup)
                        if not predicate(*tup):
                            extra.append(tup)
        # reverse direction: (I) and (II) tuples always solve; every (III)
        # shape admits a solution
        missing = []
        for z in _ppowers(p, z_max):
            for q1 in pp[:3]:
                for q4 in (0, 1, q1):
                    for c1 in units:
                        c2 = (-c1) % p
                        for c in units[:2]:
                            if not _identity_holds(
                                c, z, rhs(c1, c2, q1, q1, q4, q4), p
                            ):
                                missing.append(("I", z, c, c1, q1, q4))
        if p != 2:
            inv2 = pow(2, p - 2, p)
            for q1 in pp:
                if 2 * q1 > z_max:
                    continue
                for c1 in units:
                    for c2 in units:
                        c = (c1 + c2) * inv2 % p
                        if c == 0:
                            continue
                        if not _identity_holds(
                            c, 2 * q1, rhs(c1, c2, q1, q1, q1, q1), p
                        ):
                            missing.append(("II", q1, c1, c2))
        for q1 in pp:
            for q2 in pp:
                if q1 == q2 or q1 + q2 > z_max:
                    continue
                # shape (III): q5 = q1 != q2 = q4; with z = q1 + q2 the
                # binomial support is exactly these two monomials
                z = q1 + q2
                found = any(
                    _identity_holds(c, z, rhs(c, c, q1, q2, q2, q1), p)
                    for c in units
                )
                if not found:
                    missing.append(("III", q1, q2))
        return LemmaReport(f"poly-{case}", p, len(solutions), extra, missing)

    raise ValueError(f"unknown polynomial case {case}")


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
