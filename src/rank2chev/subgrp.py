"""One-parameter subgroup specs, normal forms, additivity systems, torus
compatibility, case-table verification, and the completeness search.

A candidate subgroup H = U_H . T_H is given by a USpec (the coefficients
c_i and exponents q_i of u(x) = prod_i u_i(c_i x^{q_i}) over the positive
roots in listing order) together with a TSpec (the primitive cocharacter
triple (m1, m2, m) with t(l) u(x) t(l)^-1 = u(l^m x)).

The additivity systems are *derived*: u(a)u(b) is factorized into normal
form over a coefficient-transparent polynomial ring (opaque symbols c_i,
A_i = a^{q_i}, B_i = b^{q_i}) and compared term by term against the
reference systems transcribed below.  The derivation runs over two large
primes and the lifted integer systems must agree, so small-characteristic
degeneration cannot leak in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd

from . import chevrep, symexpr
from .exactalg import (
    DenominatorVanishes,
    PolyFp,
    PolyMatrix,
    PrimeField,
    field_ratio,
    is_ppower,
    is_prime,
    primitive_triple,
)
from .rootdata import GroupId, conjugate_by_word, root_datum


class NotUnipotent(ValueError):
    pass


class SystemMismatch(AssertionError):
    def __init__(self, group, diffs):
        self.group = group
        self.diffs = diffs
        super().__init__(f"derived system for {group} differs: {diffs}")


class CharacteristicExcluded(ValueError):
    pass


class DegenerateInstantiation(ValueError):
    """A free-coefficient choice kills a root that the case requires."""


class BudgetExceeded(RuntimeError):
    def __init__(self, partial):
        self.partial = partial
        super().__init__("search budget exceeded")


class DataFileCorrupt(ValueError):
    pass


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class USpec:
    """u(x) = prod_i u_i(c_i x^{q_i}) over the positive roots in order."""

    group: GroupId
    field: PrimeField
    coeffs: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        n = root_datum(self.group).num_positive
        if len(self.coeffs) != n or len(self.exps) != n:
            raise ValueError(f"expected {n} roots for {self.group}")
        if not any(self.coeffs):
            raise ValueError("spec must have at least one nonzero coefficient")
        for c, q in zip(self.coeffs, self.exps):
            if c and q < 1:
                raise ValueError("exponents of supported roots must be >= 1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c)


@dataclass(frozen=True)
class TSpec:
    """Primitive cocharacter triple: t = m1*a1v + m2*a2v, u-scaling weight m."""

    m1: int
    m2: int
    m: int

    def __post_init__(self):
        if (self.m1, self.m2) == (0, 0):
            raise ValueError("cocharacter must be nonzero")
        if self.m == 0:
            raise ValueError("scaling weight m must be nonzero")

    def ray(self) -> tuple[int, int, int]:
        return primitive_triple((self.m1, self.m2, self.m))


def u_matrix(spec: USpec, rep, var: str = "x") -> PolyMatrix:
    """The matrix of u(x) in a representation, x symbolic."""
    field = spec.field
    m = PolyMatrix.identity(field, rep.dim)
    for i, (c, q) in enumerate(zip(spec.coeffs, spec.exps), start=1):
        if c:
            m = m * rep.u(i, PolyFp.monomial(field, c, {var: q}))
    return m


# ---------------------------------------------------------------------------
# Normal form factorization
# ---------------------------------------------------------------------------


def normal_form_factorize(g: PolyMatrix, rep) -> list[PolyFp]:
    """Unique coordinates (s_1..s_N) with g = prod_i u_i(s_i) in listing order.

    Strips root coordinates in increasing height via probe entries and
    multiplies by inverses; the final identity check certifies the result,
    so a wrong probe read cannot produce a wrong factorization silently.
    """
    datum = rep.datum
    coords = []
    work = g
    for i in range(1, datum.num_positive + 1):
        r, c, unit = rep.probe(i)
        entry = work.entries[r][c]
        s = entry if unit == 1 else -entry
        coords.append(s)
        if s.terms:
            work = rep.u(i, -s) * work
    if not work.is_identity():
        raise NotUnipotent("residue after stripping all root coordinates is not 1")
    return coords


# ---------------------------------------------------------------------------
# Additivity systems: derivation and reference transcription
# ---------------------------------------------------------------------------

# A system term is keyed by (c-exponents, a-exponents, b-exponents), each a
# tuple over the positive roots; a-exponents are multiplicities of the q_j
# in the exponent of a.  Example: -2*c2^2*c1*a^{q2}*b^{q1+q2} over Sp4 is
# (-2, c=(1,2,0,0), a=(0,1,0,0), b=(1,1,0,0)).


def _term(n: int, coef: int, c=(), a=(), b=()):
    def vec(pairs):
        out = [0] * n
        for idx, e in pairs:
            out[idx - 1] = e
        return tuple(out)

    return (vec(c), vec(a), vec(b)), coef


def _lead(n: int, i: int):
    t1 = _term(n, 1, c=[(i, 1)], a=[(i, 1)])
    t2 = _term(n, 1, c=[(i, 1)], b=[(i, 1)])
    return [t1, t2]


def _eq(n: int, i: int, *cross) -> dict:
    terms = _lead(n, i) + list(cross)
    out: dict = {}
    for key, coef in terms:
        out[key] = out.get(key, 0) + coef
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def printed_system(group: GroupId) -> tuple[dict, ...]:
    """The reference additivity systems, transcribed term for term."""
    if group is GroupId.SL3:
        n = 3
        return (
            _eq(n, 1),
            _eq(n, 2),
            _eq(n, 3, _term(n, 1, c=[(1, 1), (2, 1)], a=[(2, 1)], b=[(1, 1)])),
        )
    if group is GroupId.SP4:
        n = 4
        return (
            _eq(n, 1),
            _eq(n, 2),
            _eq(n, 3, _term(n, -1, c=[(1, 1), (2, 1)], a=[(2, 1)], b=[(1, 1)])),
            _eq(
                n,
                4,
                _term(n, -1, c=[(1, 1), (2, 2)], a=[(2, 2)], b=[(1, 1)]),
                _term(n, -2, c=[(2, 2), (1, 1)], a=[(2, 1)], b=[(1, 1), (2, 1)]),
                _term(n, 2, c=[(2, 1), (3, 1)], a=[(3, 1)], b=[(2, 1)]),
            ),
        )
    n = 6
    return (
        _eq(n, 1),
        _eq(n, 2),
        _eq(n, 3, _term(n, 1, c=[(1, 1), (2, 1)], a=[(2, 1)], b=[(1, 1)])),
        _eq(
            n,
            4,
            _term(n, 1, c=[(1, 2), (2, 1)], a=[(2, 1)], b=[(1, 2)]),
            _term(n, 2, c=[(1, 1), (3, 1)], a=[(3, 1)], b=[(1, 1)]),
        ),
        _eq(
            n,
            5,
            _term(n, 1, c=[(1, 3), (2, 1)], a=[(2, 1)], b=[(1, 3)]),
            _term(n, 3, c=[(1, 2), (3, 1)], a=[(3, 1)], b=[(1, 2)]),
            _term(n, 3, c=[(4, 1), (1, 1)], a=[(4, 1)], b=[(1, 1)]),
        ),
        _eq(
            n,
            6,
            _term(n, -1, c=[(1, 3), (2, 2)], a=[(2, 2)], b=[(1, 3)]),
            _term(n, 1, c=[(2, 2), (1, 3)], a=[(2, 1)], b=[(1, 3), (2, 1)]),
            _term(n, -3, c=[(1, 2), (2, 1), (3, 1)], a=[(2, 1), (3, 1)], b=[(1, 2)]),
            _term(n, -3, c=[(1, 2), (2, 1), (3, 1)], a=[(2, 1)], b=[(1, 2), (3, 1)]),
            _term(n, 3, c=[(1, 2), (2, 1), (3, 1)], a=[(3, 1)], b=[(1, 2), (2, 1)]),
            _term(n, -3, c=[(1, 1), (3, 2)], a=[(3, 2)], b=[(1, 1)]),
            _term(n, -6, c=[(1, 1), (3, 2)], a=[(3, 1)], b=[(1, 1), (3, 1)]),
            _term(n, 3, c=[(1, 1), (2, 1), (4, 1)], a=[(4, 1)], b=[(1, 1), (2, 1)]),
            _term(n, -3, c=[(4, 1), (3, 1)], a=[(4, 1)], b=[(3, 1)]),
            _term(n, 1, c=[(2, 1), (5, 1)], a=[(5, 1)], b=[(2, 1)]),
        ),
    )


# The single place where the reference print and the matrix conventions
# disagree: the cross term of the third SL3 equation carries the opposite
# sign from the one forced by the natural-module matrices (the table
# constant -1/2 and the worked cases follow the matrices).  The diff is
# pinned here and reported as a discrepancy, never patched.
KNOWN_SYSTEM_DISCREPANCIES = {
    GroupId.SL3: (
        (3, ((1, 1, 0), (0, 1, 0), (1, 0, 0)), -1, 1),
    ),
    GroupId.SP4: (),
    GroupId.G2: (),
}

_DERIVE_PRIMES = (1009, 2003)


def _derive_at_prime(group: GroupId, p: int) -> tuple[dict, ...]:
    field = PrimeField(p)
    rep = chevrep.faithful_rep(group, field)
    n = rep.datum.num_positive
    ua = PolyMatrix.identity(field, rep.dim)
    ub = PolyMatrix.identity(field, rep.dim)
    for i in range(1, n + 1):
        ua = ua * rep.u(i, PolyFp.monomial(field, 1, {f"c{i}": 1, f"A{i}": 1}))
        ub = ub * rep.u(i, PolyFp.monomial(field, 1, {f"c{i}": 1, f"B{i}": 1}))
    coords = normal_form_factorize(ua * ub, rep)
    half = p // 2
    system = []
    for s in coords:
        eq: dict = {}
        for mono, coef in s.monomials():
            cvec = [0] * n
            avec = [0] * n
            bvec = [0] * n
            for var, e in mono.items():
                kind, idx = var[0], int(var[1:])
                (cvec if kind == "c" else avec if kind == "A" else bvec)[idx - 1] = e
            lifted = coef if coef <= half else coef - p
            eq[(tuple(cvec), tuple(avec), tuple(bvec))] = lifted
        system.append(eq)
    return tuple(system)


@lru_cache(maxsize=None)
def derive_additivity_system(group: GroupId) -> tuple[dict, ...]:
    """Factorize u(a)u(b) symbolically; equate with u(a+b) coordinatewise.

    Equation i reads c_i (a+b)^{q_i} = <returned dict i>, with coefficients
    lifted to integers (verified identical over two large primes).
    """
    first = _derive_at_prime(group, _DERIVE_PRIMES[0])
    second = _derive_at_prime(group, _DERIVE_PRIMES[1])
    if first != second:
        raise SystemMismatch(group, [("prime instability", first, second)])
    return first


def system_diffs(group: GroupId) -> list[tuple]:
    """Per-monomial differences between derived and reference systems."""
    derived = derive_additivity_system(group)
    printed = printed_system(group)
    diffs = []
    for i, (d, pr) in enumerate(zip(derived, printed), start=1):
        for key in sorted(set(d) | set(pr)):
            dv, pv = d.get(key, 0), pr.get(key, 0)
            if dv != pv:
                diffs.append((i, key, dv, pv))
    return diffs


def verify_system(group: GroupId) -> dict:
    """Compare the derived system with the reference transcription.

    Returns a record with status "pass" (exact match) or "discrepant"
    (exactly the pinned diff set); any other difference raises
    SystemMismatch: that is a conventions bug, never patched silently.
    """
    diffs = system_diffs(group)
    known = list(KNOWN_SYSTEM_DISCREPANCIES[group])
    if not diffs:
        return {"status": "pass", "diffs": []}
    if diffs == known:
        return {"status": "discrepant", "diffs": diffs}
    raise SystemMismatch(group, [d for d in diffs if d not in known])


# ---------------------------------------------------------------------------
# Additivity checking and torus compatibility
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def binomial_coeffs_modp(z: int, p: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, C(z,k) mod p) for 0 < k < z, via base-p digits."""
    digits = []
    zz = z
    while zz:
        digits.append(zz % p)
        zz //= p
    out = []

    def rec(pos: int, k: int, coef: int):
        if pos == len(digits):
            if 0 < k < z and coef % p:
                out.append((k, coef % p))
            return
        d = digits[pos]
        base = p**pos
        binom_row = 1
        for kd in range(d + 1):
            if kd:
                binom_row = binom_row * (d - kd + 1) // kd
            rec(pos + 1, k + kd * base, coef * binom_row)

    rec(0, 0, 1)
    return tuple(sorted(out))


def binomial_expand(field: PrimeField, z: int, va: str = "a", vb: str = "b") -> PolyFp:
    """(a+b)^z as a sparse polynomial, using the base-p support."""
    terms = {(z, 0): 1, (0, z): 1}
    for k, coef in binomial_coeffs_modp(z, field.p):
        terms[(k, z - k)] = coef % field.p
    out = PolyFp.zero(field)
    for (ka, kb), coef in terms.items():
        out = out + PolyFp.monomial(field, coef, {va: ka, vb: kb})
    return out


def check_additive(spec: USpec, rep=None) -> bool:
    """True iff u(a)u(b) = u(a+b) as a matrix identity in a faithful module."""
    if rep is None:
        rep = chevrep.faithful_rep(spec.group, spec.field)
    field = spec.field
    ua = u_matrix(spec, rep, "a")
    ub = u_matrix(spec, rep, "b")
    uab = PolyMatrix.identity(field, rep.dim)
    for i, (c, q) in enumerate(zip(spec.coeffs, spec.exps), start=1):
        if c:
            uab = uab * rep.u(i, binomial_expand(field, q) * c)
    return ua * ub == uab


def solve_torus(spec: USpec) -> TSpec | None:
    """The primitive cocharacter ray compatible with the spec, if any.

    Solves <alpha_j, m1 a1v + m2 a2v> = m q_j over the support and verifies
    the matrix identity t(l) u(x) t(l)^-1 = u(l^m x) by weight bookkeeping
    on every divided-power slice of the faithful module.
    """
    datum = root_datum(spec.group)
    rows = []
    for i in spec.support:
        vec = datum.positive_roots[i - 1]
        rows.append(
            (
                Fraction(datum.coroot_pairing(vec, 1)),
                Fraction(datum.coroot_pairing(vec, 2)),
                Fraction(-spec.exps[i - 1]),
            )
        )
    basis = _rational_nullspace(rows)
    if len(basis) != 1:
        return None
    sol = basis[0]
    denoms = [f.denominator for f in sol]
    scale = denoms[0]
    for d in denoms[1:]:
        scale = scale * d // gcd(scale, d)
    ints = tuple(int(f * scale) for f in sol)
    m1, m2, m = primitive_triple(ints)  # normalizes m > 0
    if m == 0 or (m1, m2) == (0, 0):
        return None
    t = TSpec(m1, m2, m)
    rep = chevrep.faithful_rep(spec.group, spec.field)
    if not _torus_identity_holds(spec, t, rep):
        return None
    return t


def _torus_identity_holds(spec: USpec, t: TSpec, rep) -> bool:
    """Weight bookkeeping for t(l) u(x) t(l)^-1 = u(l^m x), slice by slice."""
    p = spec.field.p
    for i in spec.support:
        q = spec.exps[i - 1]
        for k, mat in rep.divided_powers(i):
            for (r, c), v in mat.items():
                if v % p == 0:
                    continue
                wr, wc = rep.weight(r), rep.weight(c)
                lam = (wr[0] - wc[0]) * t.m1 + (wr[1] - wc[1]) * t.m2
                if lam != t.m * k * q:
                    return False
    return True


def _rational_nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Nullspace basis over Q of a small matrix given as row tuples."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(map(Fraction, r)) for r in rows]
    pivots: dict[int, list[Fraction]] = {}
    for row in mat:
        r = row[:]
        for col, prow in sorted(pivots.items()):
            if r[col]:
                f = r[col]
                r = [a - f * b for a, b in zip(r, prow)]
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is None:
            continue
        inv = 1 / r[lead]
        r = [a * inv for a in r]
        for col in list(pivots):
            prow = pivots[col]
            if prow[lead]:
                f = prow[lead]
                pivots[col] = [a - f * b for a, b in zip(prow, r)]
        pivots[lead] = r
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -prow[j]
        basis.append(tuple(vec))
    return basis


def _integer_left_kernel(rows: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Integer basis of {n : sum_i n_i row_i = 0} for 2-column integer rows."""
    cols = list(zip(*rows)) if rows else []
    basis = _rational_nullspace([tuple(map(Fraction, c)) for c in cols])
    out = []
    for vec in basis:
        scale = 1
        for f in vec:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        ints = [int(f * scale) for f in vec]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        out.append(tuple(x // g for x in ints) if g else tuple(ints))
    return out


# ---------------------------------------------------------------------------
# Torus conjugation over the algebraic closure
# ---------------------------------------------------------------------------


def torus_conjugate_matches(
    spec: USpec, target_coeffs: tuple[int, ...]
) -> bool:
    """Is some torus conjugate of spec equal to the target coefficients?

    Over the algebraic closure the torus reaches exactly the ratio vectors
    killed by every integer relation among the support pairing rows, so
    this is a finite check in F_p with no field extensions.
    """
    datum = root_datum(spec.group)
    support = spec.support
    if tuple(i + 1 for i, c in enumerate(target_coeffs) if c) != support:
        return False
    p = spec.field.p
    rows = [datum.weight_coords(datum.positive_roots[i - 1]) for i in support]
    ratios = []
    for i in support:
        c, c2 = spec.coeffs[i - 1], target_coeffs[i - 1]
        ratios.append(c2 * pow(c, p - 2, p) % p)
    return _relations_kill(rows, ratios, p)


def _relations_kill(rows, ratios, p: int) -> bool:
    """Does every integer relation n among the rows give prod ratio_i^n_i = 1?

    The relations are the integer left kernel of ``rows``; the product is
    taken in F_p, a negative n_i raising the inverse of ratio_i.
    """
    for rel in _integer_left_kernel(rows):
        prod = 1
        for n_i, rho in zip(rel, ratios):
            if n_i >= 0:
                prod = prod * pow(rho, n_i, p) % p
            else:
                prod = prod * pow(pow(rho, p - 2, p), -n_i, p) % p
        if prod != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Case rows: parsing, instantiation, verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseRow:
    group: GroupId
    case: str
    q_pattern: tuple  # per root: None or (mult, qsym)
    c_pattern: tuple  # per root: SymPoly over c-symbols (frozen as tuples)
    m_pattern: tuple  # (SymPoly, SymPoly) over q-symbols
    m_alt: tuple | None
    discrepant_m: bool
    p_constraint: str

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, q in enumerate(self.q_pattern) if q is not None)

    @property
    def q_symbols(self) -> tuple[str, ...]:
        return tuple(sorted({q[1] for q in self.q_pattern if q is not None}))

    @property
    def free_coeffs(self) -> tuple[str, ...]:
        syms: set[str] = set()
        for cp in self.c_pattern:
            syms |= symexpr.poly_symbols(dict(cp))
        return tuple(sorted(syms))

    def allows_p(self, p: int) -> bool:
        c = self.p_constraint
        if c == "any":
            return True
        if c.startswith(">="):
            return p >= int(c[2:])
        if c.startswith("!="):
            return p != int(c[2:])
        if c.startswith("="):
            return p == int(c[1:])
        raise DataFileCorrupt(f"bad constraint {c!r}")

    def label(self) -> str:
        return f"{self.group}/case{self.case}"


def _freeze(poly: symexpr.SymPoly):
    return tuple(sorted(poly.items()))


def _parse_q_entry(text: str):
    text = text.strip()
    if text == "-":
        return None
    poly = symexpr.parse_expr(text)
    items = list(poly.items())
    if len(items) != 1:
        raise DataFileCorrupt(f"q-pattern entry {text!r} is not a monomial")
    key, coef = items[0]
    if len(key) != 1 or key[0][1] != 1 or coef.denominator != 1 or coef <= 0:
        raise DataFileCorrupt(f"q-pattern entry {text!r} is not mult*qsym")
    return (int(coef), key[0][0])


def read_data_lines(name: str, path=None) -> list[tuple[int, list[str]]]:
    """(line number, stripped "|"-separated fields) per data line.

    Reads the packaged ``data/<name>`` unless ``path`` is given; blank
    lines and "#" comments are skipped, and the line numbers are the ones
    DataFileCorrupt messages cite.
    """
    if path is None:
        text = resources.files("rank2chev").joinpath(f"data/{name}").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, [p.strip() for p in line.split("|")]))
    return out


def load_case_rows(path=None) -> tuple[CaseRow, ...]:
    rows = []
    for lineno, parts in read_data_lines("case_tables.txt", path):
        if len(parts) < 6:
            raise DataFileCorrupt(f"line {lineno}: expected >= 6 fields")
        try:
            group = GroupId(parts[0])
        except ValueError as exc:
            raise DataFileCorrupt(f"line {lineno}: unknown group {parts[0]!r}") from exc
        n = root_datum(group).num_positive
        q_entries = [_parse_q_entry(t) for t in parts[2].split(",")]
        c_entries = [symexpr.parse_expr(t) for t in parts[3].split(",")]
        m_entries = [symexpr.parse_expr(t) for t in parts[4].split(",")]
        if len(q_entries) != n or len(c_entries) != n or len(m_entries) != 2:
            raise DataFileCorrupt(f"line {lineno}: wrong pattern arity")
        for qe, ce in zip(q_entries, c_entries):
            if (qe is None) != symexpr.poly_is_zero(ce):
                raise DataFileCorrupt(
                    f"line {lineno}: q-pattern and c-pattern supports differ"
                )
        m_alt = None
        discrepant = False
        for extra in parts[6:]:
            if extra.startswith("alt="):
                alt = [symexpr.parse_expr(t) for t in extra[4:].split(",")]
                if len(alt) != 2:
                    raise DataFileCorrupt(f"line {lineno}: bad alt m-pattern")
                m_alt = tuple(_freeze(e) for e in alt)
            elif extra == "discrepant":
                discrepant = True
            elif extra:
                raise DataFileCorrupt(f"line {lineno}: unknown flag {extra!r}")
        rows.append(
            CaseRow(
                group=group,
                case=parts[1],
                q_pattern=tuple(q_entries),
                c_pattern=tuple(_freeze(e) for e in c_entries),
                m_pattern=tuple(_freeze(e) for e in m_entries),
                m_alt=m_alt,
                discrepant_m=discrepant,
                p_constraint=parts[5],
            )
        )
    return tuple(rows)


def rows_for_group(group: GroupId) -> tuple[CaseRow, ...]:
    return tuple(r for r in load_case_rows() if r.group is group)


def instantiate_case(
    row: CaseRow,
    p: int,
    f_assignment: dict,
    m: int = 1,
    coeff_assignment: dict | None = None,
) -> tuple[USpec, TSpec]:
    """Concrete (USpec, TSpec) for a case row at p, q_sym = p^f, free coeffs.

    Raises CharacteristicExcluded, DenominatorVanishes (from table ratios),
    or DegenerateInstantiation when a free-coefficient choice zeroes a
    supported root.
    """
    if not row.allows_p(p):
        raise CharacteristicExcluded(f"{row.label()} requires p {row.p_constraint}")
    if m == 0:
        raise ValueError("m must be nonzero")
    field = PrimeField(p)
    coeff_assignment = coeff_assignment or {}
    q_env = {sym: p ** f_assignment[sym] for sym in row.q_symbols}
    coeffs = []
    exps = []
    for qe, ce in zip(row.q_pattern, row.c_pattern):
        if qe is None:
            coeffs.append(0)
            exps.append(0)
            continue
        mult, sym = qe
        exps.append(mult * q_env[sym])
        val = symexpr.poly_eval(dict(ce), coeff_assignment)
        cval = field_ratio(val.numerator, val.denominator, field)
        if cval == 0:
            raise DegenerateInstantiation(
                f"{row.label()}: coefficient vanished at {coeff_assignment}"
            )
        coeffs.append(cval)
    spec = USpec(row.group, field, tuple(coeffs), tuple(exps))
    t = _tspec_from_pattern(row.m_alt or row.m_pattern, q_env, m)
    return spec, t


def _tspec_from_pattern(pattern, q_env, m: int = 1) -> TSpec:
    # The pattern gives (m1/m, m2/m); any overall integer scaling m yields
    # the same primitive ray, which is what TSpec stores.
    f1 = symexpr.poly_eval(dict(pattern[0]), q_env)
    f2 = symexpr.poly_eval(dict(pattern[1]), q_env)
    den = f1.denominator * f2.denominator // gcd(f1.denominator, f2.denominator)
    m1, m2, mm = primitive_triple((int(f1 * den), int(f2 * den), den))
    return TSpec(m1, m2, mm)


def _instantiation_pairs(row: CaseRow, primes, f_max: int, minimum: int = 2):
    """Deterministic list of (p, f-assignment) pairs, at least `minimum`.

    When the configured primes cannot satisfy the row's characteristic
    constraint (e.g. a p >= 7 row under primes {2,3,5}), the smallest
    admissible primes are appended so every row gets checked.
    """
    syms = row.q_symbols

    def assignments(p):
        out = []
        for f in range(f_max + 1):
            if len(syms) == 1:
                out.append((p, {syms[0]: f}))
            else:
                for f2 in range(f_max + 1):
                    out.append((p, {syms[0]: f, syms[1]: f2}))
        return out

    pairs = []
    for p in sorted(primes):
        if row.allows_p(p):
            pairs.extend(assignments(p))
    q = 2
    while len(pairs) < minimum:
        if is_prime(q) and row.allows_p(q) and q not in primes:
            for f in (0, 1):
                pairs.append((q, {s: f for s in syms}))
        q += 1
    return pairs


def verify_case(row: CaseRow, primes=(2, 3, 5), f_max: int = 1) -> list[dict]:
    """Check additivity and the torus ray for a row across instantiations.

    Free coefficients are exhausted over F_p^*.  Each record carries a
    status: pass, discrepant (solved ray matches the recorded alternative,
    not the table text), or fail.
    """
    records = []
    pairs = _instantiation_pairs(row, primes, f_max)
    for p, f_assign in pairs:
        field = PrimeField(p)
        free = row.free_coeffs
        combos = [{}]
        for sym in free:
            combos = [dict(c, **{sym: v}) for c in combos for v in field.units()]
        for coeffs in combos:
            inst_key = _inst_key(p, f_assign, coeffs)
            try:
                spec, t_expected = instantiate_case(row, p, f_assign, 1, coeffs)
            except DegenerateInstantiation:
                continue
            except DenominatorVanishes as exc:
                records.append(
                    {
                        "case": row.label(),
                        "instantiation": inst_key,
                        "status": "fail",
                        "detail": f"table constant undefined: {exc}",
                    }
                )
                continue
            ok_add = check_additive(spec)
            reps = [
                chevrep.build_rep(spec.group, mod, spec.field)
                for mod in chevrep.all_modules(spec.group)
            ]
            rep_independent = all(check_additive(spec, r) for r in reps)
            t_solved = solve_torus(spec)
            status = "pass"
            detail = ""
            if not ok_add or not rep_independent:
                status = "fail"
                detail = "additivity fails"
            elif t_solved is None:
                status = "fail"
                detail = "no compatible torus"
            else:
                q_env = {s: p ** f_assign[s] for s in row.q_symbols}
                want_main = _ray_or_none(row.m_pattern, q_env)
                want_alt = _ray_or_none(row.m_alt, q_env) if row.m_alt else None
                got = t_solved.ray()
                if got == want_main:
                    status = "pass"
                elif want_alt is not None and got == want_alt:
                    status = "discrepant"
                    detail = (
                        f"solved ray {got} matches recorded alternative, "
                        f"table text gives {want_main}"
                    )
                else:
                    status = "fail"
                    detail = f"solved ray {got} != table {want_main}"
            records.append(
                {
                    "case": row.label(),
                    "instantiation": inst_key,
                    "status": status,
                    "detail": detail,
                }
            )
    return records


def _ray_or_none(pattern, q_env):
    try:
        t = _tspec_from_pattern(pattern, q_env)
    except (ValueError, ZeroDivisionError):
        return None
    return t.ray()


def _inst_key(p: int, f_assign: dict, coeffs: dict) -> str:
    parts = [f"p={p}"]
    parts += [f"f[{s}]={v}" for s, v in sorted(f_assign.items())]
    parts += [f"{s}={v}" for s, v in sorted(coeffs.items())]
    return ",".join(parts)


# ---------------------------------------------------------------------------
# Exceptional isogeny as a pattern transformation
# ---------------------------------------------------------------------------

_ISOGENY_PERM = {
    GroupId.SP4: {1: 2, 2: 1, 3: 4, 4: 3},
    GroupId.G2: {1: 2, 2: 1, 3: 5, 5: 3, 4: 6, 6: 4},
}
_SHORT_ROOTS = {GroupId.SP4: (2, 3), GroupId.G2: (1, 3, 4)}
_ISOGENY_P = {GroupId.SP4: 2, GroupId.G2: 3}


@lru_cache(maxsize=None)
def _isogeny_signs(group: GroupId) -> tuple[int, ...]:
    """Per-root signs making the long/short swap preserve additivity.

    Fixed empirically: the transform must map every additive candidate in
    a small exhaustive battery to an additive spec at the relevant
    characteristic.  At p = 2 the signs are trivial; for G2 at p = 3 the
    first sign vector (deterministic order) surviving the battery wins.
    """
    p = _ISOGENY_P[group]
    n = root_datum(group).num_positive
    if p == 2:
        return (1,) * n
    samples = [
        (cs, qs)
        for cs, qs in _enumerate_additive(group, p, p)
        if sum(1 for c in cs if c) >= 2
    ]
    for mask in range(1 << n):
        signs = tuple(1 if not (mask >> i) & 1 else -1 for i in range(n))
        ok = True
        for cs, qs in samples:
            coeffs = [0] * n
            exps = [0] * n
            perm, shorts = _ISOGENY_PERM[group], _SHORT_ROOTS[group]
            for i in range(1, n + 1):
                if cs[i - 1]:
                    j = perm[i]
                    coeffs[j - 1] = signs[i - 1] * cs[i - 1] % p
                    exps[j - 1] = qs[i - 1] * (p if i in shorts else 1)
            if not _system_additive(group, p, tuple(coeffs), tuple(exps)):
                ok = False
                break
        if ok:
            return signs
    raise AssertionError(f"no sign vector makes the {group} isogeny additive")


def _apply_isogeny(spec: USpec, signs) -> USpec | None:
    group = spec.group
    p = spec.field.p
    perm = _ISOGENY_PERM[group]
    shorts = _SHORT_ROOTS[group]
    n = root_datum(group).num_positive
    coeffs = [0] * n
    exps = [0] * n
    for i in spec.support:
        j = perm[i]
        twist = p if i in shorts else 1
        coeffs[j - 1] = signs[i - 1] * spec.coeffs[i - 1] % p
        exps[j - 1] = spec.exps[i - 1] * twist
    return USpec(group, spec.field, tuple(coeffs), tuple(exps))


def isogeny_transform(spec: USpec) -> USpec | None:
    """Image of the spec under the long/short exceptional isogeny pattern.

    Defined only for SP4 at p = 2 and G2 at p = 3; None otherwise.
    """
    group = spec.group
    if group not in _ISOGENY_P or spec.field.p != _ISOGENY_P[group]:
        return None
    return _apply_isogeny(spec, _isogeny_signs(group))


def duality_transform(spec: USpec) -> USpec | None:
    """Image of an SL3 spec under the transpose-inverse graph automorphism.

    The longest Weyl element of A2 is not -1, so patterns supported on
    {a2, a1+a2} are not Weyl-conjugate to the {a1, a1+a2} side; the graph
    automorphism g -> J (g^-1)^T J^-1 swaps them while preserving
    additivity and torus compatibility.  Computed at the matrix level and
    re-factorized, so no sign conventions are assumed.
    """
    if spec.group is not GroupId.SL3:
        return None
    field = spec.field
    rep = chevrep.faithful_rep(spec.group, field)
    # inverse of u(x) is the reversed product with negated parameters
    inv = PolyMatrix.identity(field, rep.dim)
    for i in range(rep.datum.num_positive, 0, -1):
        c, q = spec.coeffs[i - 1], spec.exps[i - 1]
        if c:
            inv = inv * rep.u(i, PolyFp.monomial(field, -c, {"x": q}))
    transposed = inv.transpose()
    j_signs = [1, -1, 1]
    n = rep.dim
    conj = PolyMatrix.zeros(field, n, n)
    for r in range(n):
        for c in range(n):
            val = transposed.entries[n - 1 - r][n - 1 - c]
            s = j_signs[r] * j_signs[c]
            conj.entries[r][c] = val if s > 0 else -val
    coords = normal_form_factorize(conj, rep)
    coeffs = [0] * n
    exps = [0] * n
    for i, s in enumerate(coords):
        if s.is_zero():
            continue
        monos = list(s.monomials())
        if len(monos) != 1:
            return None
        mono, coef = monos[0]
        if set(mono) != {"x"}:
            return None
        coeffs[i] = coef
        exps[i] = mono["x"]
    return USpec(spec.group, field, tuple(coeffs), tuple(exps))


# ---------------------------------------------------------------------------
# Completeness search
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cross_terms(group: GroupId, p: int) -> tuple:
    """Per equation, the non-leading terms of the derived system mod p."""
    system = derive_additivity_system(group)
    out = []
    for i, eq in enumerate(system, start=1):
        terms = []
        for (cvec, avec, bvec), coef in eq.items():
            if cvec[i - 1]:
                continue  # leading c_i a^{q_i} / c_i b^{q_i} terms
            terms.append((cvec, avec, bvec, coef % p))
        out.append(tuple(terms))
    return tuple(out)


def _cross_value(cross_terms_i, p: int, cs, qs) -> dict:
    """Cross polynomial of one equation as {(deg_a, deg_b): coeff mod p}."""
    out: dict = {}
    for cvec, avec, bvec, coef in cross_terms_i:
        v = coef
        dead = False
        for idx, e in enumerate(cvec):
            if e:
                if cs[idx] == 0:
                    dead = True
                    break
                v = v * pow(cs[idx], e, p) % p
        if dead or v == 0:
            continue
        # triangularity: cross terms of equation i only involve roots < i
        da = sum(e * qs[idx] for idx, e in enumerate(avec) if e)
        db = sum(e * qs[idx] for idx, e in enumerate(bvec) if e)
        key = (da, db)
        s = (out.get(key, 0) + v) % p
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _matches_expansion(cross: dict, c_i: int, z: int, p: int) -> bool:
    """cross == c_i * ((a+b)^z - a^z - b^z) mod p?"""
    binom = dict(binomial_coeffs_modp(z, p))
    if set(cross) != {(k, z - k) for k in binom}:
        return False
    return all(cross[(k, z - k)] == c_i * coef % p for k, coef in binom.items())


def _system_additive(group: GroupId, p: int, coeffs, exps) -> bool:
    """Additivity of a concrete assignment via the derived system."""
    crosses = _cross_terms(group, p)
    for i in range(1, len(crosses) + 1):
        cross = _cross_value(crosses[i - 1], p, coeffs, exps)
        c_i, q_i = coeffs[i - 1], exps[i - 1]
        if c_i == 0:
            if cross:
                return False
            continue
        if not cross:
            if not is_ppower(q_i, p):
                return False
            continue
        if not _matches_expansion(cross, c_i, q_i, p):
            return False
    return True


def _enumerate_additive(
    group: GroupId, p: int, q_max: int, deadline: float | None = None
):
    """All additive (coeffs, exps) with c_i in F_p, q_i in [1, q_max].

    DFS over the roots in listing order, pruning each coordinate equation
    as soon as its lower-root data is fixed.
    """
    crosses = _cross_terms(group, p)
    n = len(crosses)
    ppowers = [q for q in range(1, q_max + 1) if is_ppower(q, p)]
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(i: int, cs: list[int], qs: list[int]):
        if deadline and time.monotonic() > deadline:
            raise BudgetExceeded(sorted(candidates))
        if i > n:
            candidates.append((tuple(cs), tuple(qs)))
            return
        cross = _cross_value(crosses[i - 1], p, cs, qs)
        if not cross:
            rec(i + 1, cs + [0], qs + [0])
            for q in ppowers:
                for c in range(1, p):
                    rec(i + 1, cs + [c], qs + [q])
            return
        degrees = {da + db for da, db in cross}
        if len(degrees) != 1:
            return
        z = degrees.pop()
        if z > q_max:
            return
        binom = dict(binomial_coeffs_modp(z, p))
        if not binom:
            return
        k0 = next(iter(binom))
        c_i = cross[(k0, z - k0)] * pow(binom[k0], p - 2, p) % p if (k0, z - k0) in cross else 0
        if c_i and _matches_expansion(cross, c_i, z, p):
            rec(i + 1, cs + [c_i], qs + [z])

    rec(1, [], [])
    return sorted(candidates)


def search_solutions(
    group: GroupId,
    p: int,
    q_max: int,
    budget_seconds: float | None = None,
) -> list[tuple[USpec, TSpec]]:
    """Exhaustive enumeration of one-parameter subgroup candidates.

    Enumerates c_i in F_p, q_i in [1, q_max], pruning incrementally
    equation by equation in height order (each coordinate equation only
    involves lower roots).  Keeps specs supported on >= 2 roots that admit
    a torus ray; every hit is re-verified by the matrix identity in all
    modules, and simple-root exponents are asserted to be p-powers.
    """
    field = PrimeField(p)
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    hits: list[tuple[USpec, TSpec]] = []
    for cs, qs in _enumerate_additive(group, p, q_max, deadline):
        if sum(1 for c in cs if c) < 2:
            continue  # root groups and the trivial spec are excluded
        spec = USpec(group, field, cs, qs)
        t = solve_torus(spec)
        if t is None:
            continue
        for mod in chevrep.all_modules(group):
            rep = chevrep.build_rep(group, mod, field)
            if not check_additive(spec, rep):
                raise AssertionError(
                    f"search hit fails matrix additivity in {mod}: {spec}"
                )
        for i in (1, 2):
            if spec.coeffs[i - 1] and not is_ppower(spec.exps[i - 1], p):
                raise AssertionError(f"simple-root exponent not a p-power: {spec}")
        hits.append((spec, t))
    return hits


# ---------------------------------------------------------------------------
# Matching search hits against the tables
# ---------------------------------------------------------------------------


def match_to_table(solution: tuple[USpec, TSpec]) -> tuple[str, str] | None:
    """Match a search hit to a case row, returning (case label, transform).

    Tries the identity, all Weyl conjugates, the exceptional-isogeny swap
    (p = 2 SP4 / p = 3 G2 only), the SL3 graph-automorphism swap, and Weyl
    conjugates of each; the coefficient comparison allows an arbitrary
    torus conjugation.
    """
    spec, _t = solution
    rows = rows_for_group(spec.group)
    datum = root_datum(spec.group)
    base_specs = [("identity", spec)]
    iso = isogeny_transform(spec)
    if iso is not None:
        base_specs.append(("isogeny", iso))
    dual = duality_transform(spec)
    if dual is not None:
        base_specs.append(("duality", dual))
    for tag, base in base_specs:
        for word in datum.weyl_words():
            conj = conjugate_by_word(base, word)
            if conj is None:
                continue
            for row in rows:
                if _match_row(conj, row):
                    transform = tag if not word else f"{tag}+weyl{list(word)}"
                    return (row.label(), transform)
    return None


def _match_row(spec: USpec, row: CaseRow) -> bool:
    p = spec.field.p
    if not row.allows_p(p):
        return False
    if spec.support != row.support:
        return False
    # solve the row's q-symbols from the exponents
    q_env: dict = {}
    for i in row.support:
        mult, sym = row.q_pattern[i - 1]
        q = spec.exps[i - 1]
        if q % mult:
            return False
        val = q // mult
        if sym in q_env and q_env[sym] != val:
            return False
        q_env[sym] = val
    if any(not is_ppower(v, p) for v in q_env.values()):
        return False
    decomposed = _decompose_c_pattern(row, spec.field)
    if decomposed is not None:
        return _match_coeffs_closure(spec, row, decomposed)
    # affine multi-symbol entries: fall back to exhausting free symbols
    # over F_p^* with the torus test (sufficient for small p)
    field = spec.field
    combos = [{}]
    for sym in row.free_coeffs:
        combos = [dict(c, **{sym: v}) for c in combos for v in range(1, p)]
    for assign in combos:
        target = []
        ok = True
        for ce in row.c_pattern:
            val = symexpr.poly_eval(dict(ce), assign)
            if val.denominator % p == 0:
                ok = False
                break
            target.append(field_ratio(val.numerator, val.denominator, field))
        if not ok:
            continue
        if tuple(i + 1 for i, c in enumerate(target) if c) != row.support:
            continue
        if torus_conjugate_matches(spec, tuple(target)):
            return True
    return False


def _decompose_c_pattern(row: CaseRow, field: PrimeField):
    """Per support slot: (ratio mod p, free symbol or None).

    Returns None when some entry is not ratio * symbol (the affine
    two-symbol rows), which forces the fallback matching path.
    """
    out = {}
    for i in row.support:
        poly = dict(row.c_pattern[i - 1])
        if len(poly) != 1:
            return None
        key, coef = next(iter(poly.items()))
        if len(key) > 1 or (key and key[0][1] != 1):
            return None
        sym = key[0][0] if key else None
        if coef.denominator % field.p == 0:
            return None
        out[i] = (field_ratio(coef.numerator, coef.denominator, field), sym)
    return out


def _match_coeffs_closure(spec: USpec, row: CaseRow, decomposed: dict) -> bool:
    """Torus reachability over the algebraic closure with free coefficients.

    Need s in T and free symbols x_j in the closure with
    alpha_i(s) c_i = r_i * x_{j(i)}.  The group of units of the closure is
    divisible, so the log-linear system is solvable iff every integer
    relation killing both torus characters and symbol occurrences also
    kills the known ratio vector r_i / c_i over F_p.
    """
    p = spec.field.p
    datum = root_datum(spec.group)
    support = spec.support
    syms = row.free_coeffs
    rows_ext = []
    ratios = []
    for i in support:
        vec = datum.positive_roots[i - 1]
        r_i, sym = decomposed[i]
        occ = tuple(1 if sym == s else 0 for s in syms)
        rows_ext.append(datum.weight_coords(vec) + occ)
        ratios.append(r_i * pow(spec.coeffs[i - 1], p - 2, p) % p)
    return _relations_kill(rows_ext, ratios, p)
