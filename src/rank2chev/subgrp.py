"""One-parameter subgroup specs, normal forms, additivity systems, torus
compatibility, case-table verification, and the completeness search.

A candidate subgroup H = U_H . T_H is given by a USpec (the coefficients
c_i and exponents q_i of u(x) = prod_i u_i(c_i x^{q_i}) over the positive
roots in listing order) together with a TSpec (the primitive cocharacter
triple (m1, m2, m) with t(l) u(x) t(l)^-1 = u(l^m x)).

The additivity systems are *derived*: u(a)u(b) is factorized into normal
form over a coefficient-transparent polynomial ring (opaque symbols c_i,
A_i = a^{q_i}, B_i = b^{q_i}) and compared term by term against the
reference systems transcribed below.  The derivation runs once, exactly,
over Z: Chevalley groups are defined over Z, so the coordinates are
integer polynomials and no characteristic can degenerate them.

Weyl conjugation and the SL3 duality are derived the same way, once per
process on first use: each becomes a ``Formula``, the normal-form
coordinates of the image as integer polynomials in the c_i and x^{q_i},
and ``evaluate`` reads a formula, or the derived additivity system, at a
concrete spec with exact mod-p arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from importlib import resources
from itertools import combinations, product
from math import gcd
from operator import mul

from . import chevrep, symexpr
from .exactalg import (
    EXPONENT_BOUND,
    DenominatorVanishes,
    ExponentOverflow,
    PolyFp,
    PolyMatrix,
    PrimeField,
    binomial_coeffs_modp,  # noqa: F401  the name perfbench's tracer wraps
    field_ratio,
    integer_kernel,
    is_ppower,
    ppowers,
    primitive_triple,
    rows_additive,
)
from .lemmas import expansion_units
from .rootdata import GroupId, conjugate_by_word, root_datum


class NotUnipotent(ValueError):
    pass


class NotOneParameter(ValueError):
    """An image coordinate is neither 0 nor a monomial c x^q."""


class SystemMismatch(AssertionError):
    def __init__(self, group, diffs):
        self.group = group
        self.diffs = diffs
        super().__init__(f"derived system for {group} differs: {diffs}")


class CharacteristicExcluded(ValueError):
    pass


class ZeroCocharacter(ValueError):
    """A cocharacter pattern gives (m1, m2) = (0, 0) at an instantiation."""


class DegenerateInstantiation(ValueError):
    """A free-coefficient choice kills a root that the case requires."""


class BudgetExceeded(RuntimeError):
    pass


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

    # kept after first use; hash and equality read the fields only
    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c)

    @property
    def factors(self) -> tuple[tuple[int, int, int], ...]:
        """(i, c_i, q_i) over the support: u(x) for ``Representation.u_rows``."""
        return tuple((i, self.coeffs[i - 1], self.exps[i - 1]) for i in self.support)

    @cached_property
    def torus_class(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(support, exponents on it, relation values): the spec's class
        under the torus and x -> lam x, over the roots whose c_i is a unit.

        The values are prod_i c_i^{n_i} over a Z-basis of the integer
        relations n among the rows (weight coordinates of alpha_i, q_i), as
        in ``_row_targets``: two coefficient vectors on the same exponents
        are related by a torus element s and a lam over the algebraic
        closure iff these values agree.  Computed once per spec, and read
        by ``check_additive`` in every module and by ``match_to_table``.
        """
        p = self.field.p
        live = [(i, c % p, q) for i, c, q in self.factors if c % p]
        if not live:
            return (), (), ()
        support, coeffs, exps = zip(*live)
        g = gcd(*exps)
        relations = _torus_relations(self.group, support, tuple(q // g for q in exps))
        return support, exps, _relation_values(relations, coeffs, p)


@dataclass(frozen=True)
class TSpec:
    """Primitive cocharacter triple: t = m1*a1v + m2*a2v, u-scaling weight m."""

    m1: int
    m2: int
    m: int

    def __post_init__(self):
        if (self.m1, self.m2) == (0, 0):
            raise ZeroCocharacter("cocharacter must be nonzero")
        if self.m == 0:
            raise ValueError("scaling weight m must be nonzero")

    def ray(self) -> tuple[int, int, int]:
        return primitive_triple((self.m1, self.m2, self.m))


def u_matrix(spec: USpec, rep) -> PolyMatrix:
    """The matrix of u(x) in a representation, x symbolic."""
    field = spec.field
    zero = PolyFp.zero(field)

    def poly(entry: dict[int, int]) -> PolyFp:
        if not entry:
            return zero
        if len(entry) == 1 and 0 in entry:
            return PolyFp(field, (), {(): entry[0]})
        return PolyFp(field, ("x",), {(e,): c for e, c in entry.items()})

    rows = rep.u_rows(spec.factors)
    return PolyMatrix(field, [[poly(e) for e in row] for row in rows])


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


def derive_coords(group: GroupId, build, outputs: str) -> tuple:
    """Normal-form coordinates of a symbolic product, as integer polynomials.

    ``build(rep, param)`` returns the product in the faithful module over
    Z (``PrimeField(0)``), where ``param(i, Y)`` is the parameter c_i Y_i
    of root i and ``outputs`` names the letters Y.  Coordinate j comes back
    as a tuple of (key, coefficient), key = (c-exponents, Y-exponents per
    letter), each a vector over the positive roots.  The root elements are
    integer matrices of divided powers and every probe of
    ``normal_form_factorize`` is +-1, so the factorization needs no
    division and its coefficients are the integers themselves.
    """
    field = PrimeField(0)
    rep = chevrep.faithful_rep(group, field)
    n = rep.datum.num_positive
    kinds = "c" + outputs

    def param(i: int, y: str) -> PolyFp:
        return PolyFp.monomial(field, 1, {f"c{i}": 1, f"{y}{i}": 1})

    coords = []
    for s in normal_form_factorize(build(rep, param), rep):
        terms = []
        for mono, coef in s.monomials():
            vecs = [[0] * n for _ in kinds]
            for var, e in mono.items():
                vecs[kinds.index(var[0])][int(var[1:]) - 1] = e
            terms.append((tuple(map(tuple, vecs)), coef))
        coords.append(tuple(terms))
    return tuple(coords)


def product_in(rep, factors: list) -> PolyMatrix:
    """The product of the factors in a module; the identity if none."""
    return reduce(mul, factors) if factors else PolyMatrix.identity(rep.field, rep.dim)


@lru_cache(maxsize=None)
def derive_additivity_system(group: GroupId) -> tuple[dict, ...]:
    """Factorize u(a)u(b) symbolically; equate with u(a+b) coordinatewise.

    Equation i reads c_i (a+b)^{q_i} = <returned dict i>, keyed by
    (c-exponents, a-exponents, b-exponents), with integer coefficients
    (derived over Z).
    """

    def build(rep, param):
        roots = range(1, rep.datum.num_positive + 1)
        ua = product_in(rep, [rep.u(i, param(i, "A")) for i in roots])
        return ua * product_in(rep, [rep.u(i, param(i, "B")) for i in roots])

    return tuple(dict(coord) for coord in derive_coords(group, build, "AB"))


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
        return record(
            f"{group}/system", "pass", "matches the recorded system term for term"
        )
    if diffs == known:
        return record(
            f"{group}/system",
            "discrepant",
            "; ".join(
                f"eq{eq} {key}: derived {dv} vs recorded {pv}"
                for eq, key, dv, pv in diffs
            ),
        )
    raise SystemMismatch(group, [d for d in diffs if d not in known])


# ---------------------------------------------------------------------------
# Compiled formulas: the one evaluator, and the SL3 duality
# (rootdata.weyl_formula derives the Weyl conjugations)
# ---------------------------------------------------------------------------


class Formula:
    """Normal-form coordinates of an image of u(x) as integer polynomials.

    Built from what ``derive_coords`` returns with the one letter X
    standing for x: root i carries c_i x^{q_i}.  Only the compiled form
    that ``evaluate`` reads is kept, one ``compile_terms`` tuple per
    coordinate in ``terms``.  ``roots`` (1-based) are the roots whose
    parameters the derivation made symbolic; a spec supported on another
    root has no image.
    """

    def __init__(self, roots: tuple[int, ...], coords: tuple):
        self.roots = roots
        self.terms = tuple(map(compile_terms, coords))
        # 0-based indices of the roots off ``roots``
        self.outside = tuple(i for i in range(len(coords)) if i + 1 not in roots)


def compile_terms(coord) -> tuple:
    """(coefficient, c-powers, degree powers per letter) per term, each
    power list holding only the (root index, exponent) pairs that occur."""

    def sparse(vec):
        return tuple((i, e) for i, e in enumerate(vec) if e)

    return tuple(
        (coef, sparse(cvec), tuple(map(sparse, degs)))
        for (cvec, *degs), coef in coord
    )


def evaluate(terms, p: int, cs, qs) -> dict:
    """One compiled coordinate at c_i = cs[i], q_i = qs[i] over F_p.

    Returns {degree tuple: coefficient mod p}, one degree per letter.  A
    term that vanishes mod p (a root with c_i = 0, or a coefficient that
    p divides) is skipped; every other term's degrees are held to
    EXPONENT_BOUND, including those of a term that cancels against another.
    """
    out: dict = {}
    get = out.get
    for coef, cpows, degs in terms:
        v = coef
        for i, e in cpows:
            v *= cs[i] if e == 1 else cs[i] ** e
        v %= p
        if v:
            key = tuple([sum([e * qs[i] for i, e in d]) for d in degs])
            if max(key) > EXPONENT_BOUND:
                raise ExponentOverflow(max(key))
            s = (get(key, 0) + v) % p
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def formula_image(formula: Formula, spec: USpec) -> USpec | None:
    """The spec whose coordinates the formula gives at ``spec``.

    None when the spec is supported off ``formula.roots``; raises
    NotOneParameter when a coordinate is neither 0 nor c x^q (q >= 1).
    """
    cs, qs = spec.coeffs, spec.exps
    if any(cs[i] for i in formula.outside):
        return None
    coeffs = [0] * len(cs)
    exps = [0] * len(cs)
    for i, terms in enumerate(formula.terms):
        value = evaluate(terms, spec.field.p, cs, qs)
        if value:
            ((q,), c), *rest = value.items()
            if rest or q < 1:
                raise NotOneParameter(f"image coordinate {value}")
            coeffs[i], exps[i] = c, q
    return USpec(spec.group, spec.field, tuple(coeffs), tuple(exps))


@lru_cache(maxsize=None)
def duality_formula() -> Formula:
    """J (u(x)^-1)^T J^-1 for SL3, J the antidiagonal (1, -1, 1).

    u(x)^-1 is the reversed product with negated parameters.
    """

    def build(rep, param):
        inv = product_in(rep, [rep.u(i, -param(i, "X")) for i in (3, 2, 1)])
        signs = (1, -1, 1)
        return PolyMatrix(
            rep.field,
            [
                [inv.entries[2 - c][2 - r] * (signs[r] * signs[c]) for c in range(3)]
                for r in range(3)
            ],
        )

    return Formula((1, 2, 3), derive_coords(GroupId.SL3, build, "X"))


# ---------------------------------------------------------------------------
# Additivity checking and torus compatibility
# ---------------------------------------------------------------------------


def check_additive(spec: USpec, rep: chevrep.Representation) -> bool:
    """True iff u(a)u(b) = u(a+b) as a matrix identity in the module ``rep``;
    ``exactalg.rows_additive`` on the rows ``rep.u_rows`` builds, run once
    per class of specs that share the answer.

    Three maps keep the identity: conjugation by a torus element s (in the
    module, the weight grading that ``chevrep._base_data`` checks), which
    sends c_i to alpha_i(s) c_i; the reparametrisation x -> lam x, which
    sends c_i to lam^{q_i} c_i; and the Frobenius twist x -> x^p, which
    multiplies every exponent by p.  So the class of a spec is its group,
    module and p, and its ``USpec.torus_class`` with the exponents divided
    by their largest common p-power; the relation values need no division,
    since the relations read the exponents only up to scale.  A spec whose
    ``u_degree`` passes EXPONENT_BOUND is checked directly, so it raises
    ``ExponentOverflow`` wherever ``u_rows`` does on its own factors.
    """
    p = spec.field.p
    factors = [(i, c % p, q) for i, c, q in spec.factors if c % p]
    if not factors or rep.u_degree(factors) > EXPONENT_BOUND:
        return rows_additive(rep.u_rows(factors), p)
    support, exps, values = spec.torus_class
    g, twist = gcd(*exps), 1
    while g % (twist * p) == 0:
        twist *= p
    exps = tuple(q // twist for q in exps)
    key = (rep.group, rep.name, p, support, exps, values)
    if key not in _ADDITIVE_CLASSES:
        _ADDITIVE_CLASSES[key] = rows_additive(
            rep.u_rows(tuple((i, c, q // twist) for i, c, q in factors)), p
        )
    return _ADDITIVE_CLASSES[key]


# check_additive's answer per (group, module, p, support, twisted-down
# exponents, relation values), kept for the process (359 classes on the
# default run)
_ADDITIVE_CLASSES: dict[tuple, bool] = {}


@lru_cache(maxsize=None)
def _torus_relations(group: GroupId, support: tuple, exps: tuple) -> tuple:
    """The relations among the rows (weight coordinates of alpha_i, q_i)
    over the support.  Scaling the q column by g leaves the integer
    relations as they are, so callers pass the exponents divided by their
    gcd, and every multiple shares one solve."""
    datum = root_datum(group)
    return _relations(
        [
            datum.weight_coords(datum.positive_roots[i - 1]) + (q,)
            for i, q in zip(support, exps)
        ]
    )


def _relations(rows) -> tuple[tuple[int, ...], ...]:
    """A Z-basis of the integer relations n with sum_i n_i rows_i = 0."""
    return tuple(map(tuple, integer_kernel(list(zip(*rows)), len(rows))))


def solve_torus(spec: USpec) -> TSpec | None:
    """The primitive cocharacter ray compatible with the spec, if any.

    Solves <alpha_j, m1 a1v + m2 a2v> = m q_j over the support.  Since
    ``chevrep._base_data`` checks that the x^k slice of every root element
    moves weights by k alpha, the ray gives t(l) u(x) t(l)^-1 = u(l^m x) in
    every module.  It reads only the group, the support and its exponents,
    so the ray is solved once per such key, whatever p.
    """
    support = spec.support
    exps = tuple(spec.exps[i - 1] for i in support)
    return _torus_ray(spec.group, support, exps)


@lru_cache(maxsize=None)
def _torus_ray(group: GroupId, support: tuple, exps: tuple) -> TSpec | None:
    """The ray of <alpha_j, m1 a1v + m2 a2v> = m q_j over the support, by
    ``_ray_of_rows`` on the rows (<alpha_j, a1v>, <alpha_j, a2v>, -q_j):
    a cross product checked against every row, with no Hermite pass."""
    datum = root_datum(group)
    return _ray_of_rows(
        [
            (
                datum.coroot_pairing(datum.positive_roots[i - 1], 1),
                datum.coroot_pairing(datum.positive_roots[i - 1], 2),
                -q,
            )
            for i, q in zip(support, exps)
        ]
    )


def _ray_of_rows(rows) -> TSpec | None:
    """The ray (m1, m2, m) of a 3-column integer system whose kernel has
    rank 1, with m > 0 and (m1, m2) != (0, 0); None for any other system.

    The primitive cross product of the first two independent rows spans
    the integer kernel of those two, so the kernel of the system has rank
    1 iff that vector is orthogonal to every row, and it is then the
    Hermite vector of ``integer_kernel`` up to the sign that makes m
    positive.  All rows parallel (rank 0 or 1) or a row off the vector
    (rank 3) gives None.
    """
    for (a1, a2, a3), (b1, b2, b3) in combinations(rows, 2):
        cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        if any(cross):
            break
    else:
        return None
    m1, m2, m = primitive_triple(cross)
    if any(m1 * r1 + m2 * r2 + m * r3 for r1, r2, r3 in rows):
        return None
    if m == 0 or (m1, m2) == (0, 0):
        return None
    return TSpec(m1, m2, m)


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
    p_constraint: str

    # kept after first use; hash and equality read the fields only
    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, q in enumerate(self.q_pattern) if q is not None)

    @cached_property
    def q_symbols(self) -> tuple[str, ...]:
        return tuple(sorted({q[1] for q in self.q_pattern if q is not None}))

    @cached_property
    def free_coeffs(self) -> tuple[str, ...]:
        syms: set[str] = set()
        for cp in self.c_pattern:
            syms |= symexpr.poly_symbols(dict(cp))
        return tuple(sorted(syms))

    def coefficient_assignments(self, p: int):
        """Every assignment of units of F_p to the free coefficients, the
        last symbol varying fastest; one empty assignment when none."""
        syms = self.free_coeffs
        units = range(1, p)
        return (dict(zip(syms, vals)) for vals in product(units, repeat=len(syms)))

    def coefficients(self, assignment: dict, field: PrimeField) -> list[int]:
        """The c-pattern at an assignment of the free coefficients, one
        value in F_p per root (0 off the support); raises
        DenominatorVanishes when a table constant is undefined mod p, else
        DegenerateInstantiation when the assignment zeroes a supported root."""
        key = (field.p, tuple(assignment.items()))
        if key not in self._c_values:
            out = [0] * len(self.c_pattern)
            for i in self.support:
                val = symexpr.poly_eval(dict(self.c_pattern[i - 1]), assignment)
                out[i - 1] = field_ratio(val.numerator, val.denominator, field)
            if not all(out[i - 1] for i in self.support):
                raise DegenerateInstantiation(
                    f"{self.label()}: coefficient vanished at {assignment}"
                )
            self._c_values[key] = tuple(out)
        return list(self._c_values[key])

    @cached_property
    def _c_values(self) -> dict:
        # the values of ``coefficients`` per (p, assignment): instantiation
        # asks at every (p, f) pair, and they do not depend on f.  A call
        # that raises stores nothing, so it raises again on every call
        return {}

    def tspec(self, q_env: dict, alt: bool = False) -> TSpec:
        """The ray of the m-pattern, or of the recorded alternative when
        ``alt``, at the q-values ``q_env``; raises ZeroCocharacter when its
        (m1, m2) is (0, 0).

        The pattern gives (m1/m, m2/m); any overall integer scaling m
        yields the same primitive ray, which is what TSpec stores.  Kept
        per (alt, q-values), so no pattern of Fractions is hashed; a call
        that raises stores nothing.
        """
        key = (alt, tuple(sorted(q_env.items())))
        if key not in self._tspecs:
            pattern = self.m_alt if alt else self.m_pattern
            f1 = symexpr.poly_eval(dict(pattern[0]), q_env)
            f2 = symexpr.poly_eval(dict(pattern[1]), q_env)
            den = f1.denominator * f2.denominator // gcd(f1.denominator, f2.denominator)
            self._tspecs[key] = TSpec(
                *primitive_triple((int(f1 * den), int(f2 * den), den))
            )
        return self._tspecs[key]

    @cached_property
    def _tspecs(self) -> dict:
        return {}

    def allows_p(self, p: int) -> bool:
        return _allows_p(self.p_constraint, p)

    def label(self) -> str:
        return f"{self.group}/case{self.case}"


@lru_cache(maxsize=None)
def _allows_p(constraint: str, p: int) -> bool:
    # a cached lookup: instantiate_case asks once per coefficient choice
    rule = _p_constraint_rule(constraint)
    return rule is None or symexpr.holds(rule, {"p": p})


@cache
def _p_constraint_rule(constraint: str) -> symexpr.Rule | None:
    """None for "any"; else ">=5" is the rule p>=5, naming no other symbol."""
    if constraint == "any":
        return None
    rule = symexpr.parse_comparison("p" + constraint)
    if symexpr.rule_symbols(rule) != {"p"}:
        raise DataFileCorrupt(f"bad p-constraint {constraint!r}")
    return rule


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
    """The case rows of ``path``, read and validated on every call, or of
    the shipped file, parsed once per process."""
    if path is None:
        return _shipped_case_rows()
    return _parse_case_rows(path)


@cache
def _shipped_case_rows() -> tuple[CaseRow, ...]:
    return _parse_case_rows(None)


# The recorded torus weights of G2 rows on the basis of the 7-dim module,
# for m = 1, by case; the witnesses suite checks them
# (``witness.verify_weight_row``), so such a row's m-pattern is integral.
G2_WEIGHT_ROWS = {
    ("2", "3", "8"): "2q1, q1, q1, 0, -q1, -q1, -2q1",
    ("4", "5", "6"): "q1, 0, q1, 0, -q1, 0, -q1",
    ("7",): "q5-q1, q5-2q1, q1, 0, -q1, 2q1-q5, q1-q5",
    ("10", "11", "12", "13", "14", "15", "17", "18"): "q2, q2, 0, 0, 0, -q2, -q2",
    ("16",): "0, q3, -q3, 0, q3, -q3, 0",
    ("19",): "q4, 2q4, -q4, 0, q4, -2q4, -q4",
}


def _parse_case_rows(path) -> tuple[CaseRow, ...]:
    rows = []
    for lineno, parts in read_data_lines("case_tables.txt", path):
        try:
            rows.append(_parse_case_row(parts))
        except (DataFileCorrupt, symexpr.ExprError) as exc:
            raise DataFileCorrupt(f"case_tables.txt line {lineno}: {exc}") from exc
    return tuple(rows)


def _parse_case_row(parts: list[str]) -> CaseRow:
    if len(parts) < 6:
        raise DataFileCorrupt("expected >= 6 fields")
    try:
        group = GroupId(parts[0])
    except ValueError as exc:
        raise DataFileCorrupt(f"unknown group {parts[0]!r}") from exc
    n = root_datum(group).num_positive
    q_entries = [_parse_q_entry(t) for t in parts[2].split(",")]
    c_entries = [symexpr.parse_expr(t) for t in parts[3].split(",")]
    m_entries = [symexpr.parse_expr(t) for t in parts[4].split(",")]
    if len(q_entries) != n or len(c_entries) != n or len(m_entries) != 2:
        raise DataFileCorrupt("wrong pattern arity")
    for qe, ce in zip(q_entries, c_entries):
        if (qe is None) != symexpr.poly_is_zero(ce):
            raise DataFileCorrupt("q-pattern and c-pattern supports differ")
    _p_constraint_rule(parts[5])
    _check_m_pattern(m_entries, "m-pattern")
    if group is GroupId.G2 and any(parts[1] in cases for cases in G2_WEIGHT_ROWS):
        if any(c.denominator != 1 for e in m_entries for c in e.values()):
            raise DataFileCorrupt(
                "m-pattern of a row with a recorded weight row is not integral"
            )
    m_alt = None
    discrepant = False
    for extra in parts[6:]:
        if extra.startswith("alt="):
            alt = [symexpr.parse_expr(t) for t in extra[4:].split(",")]
            if len(alt) != 2:
                raise DataFileCorrupt("bad alt m-pattern")
            _check_m_pattern(alt, "alt m-pattern")
            m_alt = tuple(_freeze(e) for e in alt)
        elif extra == "discrepant":
            discrepant = True
        elif extra:
            raise DataFileCorrupt(f"unknown flag {extra!r}")
    if m_alt and not discrepant:
        raise DataFileCorrupt("alt= without the discrepant flag")
    if discrepant and not m_alt:
        raise DataFileCorrupt("discrepant flag without alt=")
    return CaseRow(
        group=group,
        case=parts[1],
        q_pattern=tuple(q_entries),
        c_pattern=tuple(_freeze(e) for e in c_entries),
        m_pattern=tuple(_freeze(e) for e in m_entries),
        m_alt=m_alt,
        p_constraint=parts[5],
    )


def _check_m_pattern(entries, name: str) -> None:
    """A zero cocharacter gives no torus at any instantiation."""
    if all(map(symexpr.poly_is_zero, entries)):
        raise DataFileCorrupt(f"{name} is zero: the cocharacter must be nonzero")


@lru_cache(maxsize=None)
def rows_for_group(group: GroupId) -> tuple[CaseRow, ...]:
    # matching reads it once per (group, p), in ``_match_table``; the
    # witnesses look up the case row of every witness row in it
    return tuple(r for r in _shipped_case_rows() if r.group is group)


def instantiate_case(
    row: CaseRow, p: int, f_assignment: dict, coeff_assignment: dict | None = None
) -> tuple[USpec, TSpec]:
    """Concrete (USpec, TSpec) for a case row at p, q_sym = p^f, free coeffs.

    Raises CharacteristicExcluded, DenominatorVanishes (from table ratios),
    DegenerateInstantiation when a free-coefficient choice zeroes a
    supported root, or ZeroCocharacter when the ray's (m1, m2) is (0, 0).
    """
    if not row.allows_p(p):
        raise CharacteristicExcluded(f"{row.label()} requires p {row.p_constraint}")
    field = PrimeField(p)
    coeffs = row.coefficients(coeff_assignment or {}, field)
    q_env = {sym: p ** f_assignment[sym] for sym in row.q_symbols}
    exps = [0 if qe is None else qe[0] * q_env[qe[1]] for qe in row.q_pattern]
    spec = USpec(row.group, field, tuple(coeffs), tuple(exps))
    return spec, row.tspec(q_env, alt=row.m_alt is not None)


def instantiations(row: CaseRow, label: str, p: int, f_assign: dict, check):
    """The records of ``check(spec, t, coeffs, key)`` at each instantiation
    of the row at p and the f-assignment, under the record name ``label``.

    Free coefficients are exhausted over F_p^*; a choice that zeroes a
    supported root is skipped.  An instantiation that cannot be checked
    (``UNCHECKED``) is a fail record, and so is a (p, f) pair whose every
    choice is degenerate.  CharacteristicExcluded propagates.
    """
    records = []
    for coeffs in row.coefficient_assignments(p):
        key = inst_key(p, f_assign, coeffs)
        try:
            spec, t = instantiate_case(row, p, f_assign, coeffs)
            records.append(check(spec, t, coeffs, key))
        except DegenerateInstantiation:
            continue
        except tuple(UNCHECKED) as exc:
            detail = f"{UNCHECKED[type(exc)]}: {exc}"
            records.append(record(label, "fail", detail, key))
    if not records:
        detail = "no valid instantiation: every coefficient choice is degenerate"
        return [record(label, "fail", detail, inst_key(p, f_assign, {}))]
    return records


# The fail-record reason for each exception that leaves an instantiation unchecked.
UNCHECKED = {
    DenominatorVanishes: "table constant undefined",
    ZeroCocharacter: "table m-pattern gives no torus",
    ExponentOverflow: "not checked within EXPONENT_BOUND",
}


# The box a data row is instantiated in when no configured prime serves:
# p in BOX_PRIMES and exponents f < BOX_F_RANGE.  It is bounded, since a
# constraint such as <2 allows no prime.
BOX_PRIMES = (2, 3, 5, 7, 11, 13)
BOX_F_RANGE = 7


def unsatisfiable(row: CaseRow, guard: str) -> str:
    return (
        f"no instantiation with p in {BOX_PRIMES} and exponents below "
        f"{BOX_F_RANGE} meets p-constraint {row.p_constraint} and guard {guard}"
    )


def _instantiation_pairs(row: CaseRow, primes, f_max: int):
    """Deterministic list of (p, f-assignment) pairs.

    Every configured prime the row allows, with each q-symbol's f in
    [0, f_max].  Fewer than two pairs (e.g. a p >= 7 row under primes
    {2,3,5}) gain the smallest other admissible prime of the box at f = 0
    and f = 1; empty means no prime serves.
    """
    syms = row.q_symbols
    pairs = [
        (p, dict(zip(syms, fs)))
        for p in sorted(primes)
        if row.allows_p(p)
        for fs in product(range(f_max + 1), repeat=len(syms))
    ]
    if len(pairs) < 2:
        spare = [q for q in BOX_PRIMES if q not in primes and row.allows_p(q)]
        pairs += [(q, {s: f for s in syms}) for q in spare[:1] for f in (0, 1)]
    return pairs


def verify_case(row: CaseRow, primes, f_max: int) -> list[dict]:
    """Check additivity and the torus ray for a row across instantiations.

    Each record carries a status: pass, discrepant (solved ray matches the
    recorded alternative, not the table text), or fail; a row no prime
    serves is one fail record.
    """
    records = []
    for p, f_assign in _instantiation_pairs(row, primes, f_max):
        check = _case_check(row, {s: p**f for s, f in f_assign.items()})
        records += instantiations(row, row.label(), p, f_assign, check)
    return records or [record(row.label(), "fail", unsatisfiable(row, "-"))]


def _case_check(row: CaseRow, q_env: dict):
    """The check of ``instantiations`` at one (p, f) pair: additivity in
    every module, then the ray verdict of ``_ray_verdict``.  The verdict
    reads only the support and the exponents, the same at every
    coefficient assignment of the pair, so it is computed at the first
    additive instantiation, after every degenerate one is skipped, and
    reused for the others."""
    label = row.label()
    verdict = None

    def check(spec: USpec, _t, _coeffs, key):
        nonlocal verdict
        modules = chevrep.all_modules(spec.group)
        reps = (chevrep.build_rep(spec.group, mod, spec.field) for mod in modules)
        if not all(check_additive(spec, r) for r in reps):
            return record(label, "fail", "additivity fails", key)
        if verdict is None:
            verdict = _ray_verdict(row, q_env, spec)
        return record(label, *verdict, key)

    return check


def _ray_verdict(row: CaseRow, q_env: dict, spec: USpec) -> tuple[str, str]:
    """(status, detail) of the solved torus ray against the table's; a ray
    that matches only the recorded alternative is discrepant.  A table ray
    that does not evaluate is None."""
    t_solved = solve_torus(spec)
    if t_solved is None:
        return "fail", "no compatible torus"
    try:
        want = row.tspec(q_env).ray()
    except (ValueError, ZeroDivisionError):
        want = None
    got = t_solved.ray()
    if got == want:
        return "pass", ""
    if row.m_alt and got == row.tspec(q_env, alt=True).ray():
        detail = (
            f"solved ray {got} matches recorded alternative, table text gives {want}"
        )
        return "discrepant", detail
    return "fail", f"solved ray {got} != table {want}"


def inst_key(p: int, f_assign: dict, coeffs: dict) -> str:
    parts = [f"p={p}"]
    parts += [f"f[{s}]={v}" for s, v in sorted(f_assign.items())]
    parts += [f"{s}={v}" for s, v in sorted(coeffs.items())]
    return ",".join(parts)


def record(case: str, status: str, detail: str = "", instantiation: str = "-") -> dict:
    """One check's outcome, the shape every suite yields.

    ``case`` is "<group>/<case>"; status is pass, discrepant or fail.
    """
    return {
        "case": case,
        "instantiation": instantiation,
        "status": status,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# Exceptional isogeny as a pattern transformation
# ---------------------------------------------------------------------------

_ISOGENY_PERM = {
    GroupId.SP4: {1: 2, 2: 1, 3: 4, 4: 3},
    GroupId.G2: {1: 2, 2: 1, 3: 5, 5: 3, 4: 6, 6: 4},
}
# per-root signs of the swap, in root listing order
_ISOGENY_SIGNS = {
    GroupId.SP4: (1, 1, 1, 1),
    GroupId.G2: (-1, -1, 1, 1, 1, 1),
}
_SHORT_ROOTS = {GroupId.SP4: (2, 3), GroupId.G2: (1, 3, 4)}
_ISOGENY_P = {GroupId.SP4: 2, GroupId.G2: 3}


def _isogeny_image(group: GroupId, p: int, signs, coeffs, exps):
    """(coeffs, exps) moved along the long/short swap, signed and twisted."""
    perm, shorts = _ISOGENY_PERM[group], _SHORT_ROOTS[group]
    n = len(coeffs)
    out_c = [0] * n
    out_e = [0] * n
    for i in range(1, n + 1):
        if coeffs[i - 1]:
            j = perm[i]
            out_c[j - 1] = signs[i - 1] * coeffs[i - 1] % p
            out_e[j - 1] = exps[i - 1] * (p if i in shorts else 1)
    return tuple(out_c), tuple(out_e)


def isogeny_transform(spec: USpec) -> USpec | None:
    """Image of the spec under the long/short exceptional isogeny pattern.

    Defined only for SP4 at p = 2 and G2 at p = 3; None otherwise.  The
    per-root signs are those stated in ``_ISOGENY_SIGNS``; an image that is
    not additive by the derived system raises AssertionError, so every image
    that matching uses checks the stated signs.
    """
    group = spec.group
    if group not in _ISOGENY_P or spec.field.p != _ISOGENY_P[group]:
        return None
    p = spec.field.p
    signs = _ISOGENY_SIGNS[group]
    image = _isogeny_image(group, p, signs, spec.coeffs, spec.exps)
    if not _system_additive(group, p, *image):
        raise AssertionError(
            f"the stated isogeny signs {signs} do not make the {group} "
            f"isogeny additive at c={spec.coeffs} q={spec.exps}"
        )
    return USpec(group, spec.field, *image)


def duality_transform(spec: USpec) -> USpec | None:
    """Image of an SL3 spec under the transpose-inverse graph automorphism.

    The longest Weyl element of A2 is not -1, so patterns supported on
    {a2, a1+a2} are not Weyl-conjugate to the {a1, a1+a2} side; the graph
    automorphism g -> J (g^-1)^T J^-1 swaps them while preserving
    additivity and torus compatibility.  Evaluated from ``duality_formula``,
    derived at the matrix level, so no sign conventions are assumed; None
    when the image is not a one-parameter spec.
    """
    if spec.group is not GroupId.SL3:
        return None
    try:
        return formula_image(duality_formula(), spec)
    except NotOneParameter:
        return None


# ---------------------------------------------------------------------------
# Completeness search
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cross_terms(group: GroupId) -> tuple:
    """Per equation, the compiled non-leading terms of the derived system."""
    return tuple(
        compile_terms((key, coef) for key, coef in eq.items() if not key[0][i])
        for i, eq in enumerate(derive_additivity_system(group))
    )


def _system_additive(group: GroupId, p: int, coeffs, exps) -> bool:
    """Additivity of a concrete assignment via the derived system: the
    cross polynomial of equation i is c_i((a+b)^{q_i} - a^{q_i} - b^{q_i})."""
    for i, cross_terms in enumerate(_cross_terms(group)):
        cross = evaluate(cross_terms, p, coeffs, exps)
        if not coeffs[i]:
            if cross:
                return False
        elif coeffs[i] not in expansion_units(exps[i], cross, p):
            return False
    return True


def _enumerate_additive(
    group: GroupId, p: int, q_max: int, deadline: float | None = None
):
    """All additive (coeffs, exps) with c_i in F_p, q_i in [1, q_max],
    less those that the torus prune cuts.

    DFS over the roots in listing order, pruning each coordinate equation
    as soon as its lower-root data is fixed: a nonzero cross polynomial
    fixes q_i as its degree and c_i as the one unit of ``expansion_units``.

    A node that fixes a nonzero c_i with two or more roots in its partial
    support is cut when ``_torus_ray`` finds no ray for that support: its
    kernel is {0}, or one ray with m = 0 or (m1, m2) = (0, 0).  Further
    roots add rows to the kernel's system, so no descendant has a ray
    either.  What is left is every candidate on fewer than two
    roots and exactly the candidates on two or more that ``solve_torus``
    accepts.
    """
    crosses = _cross_terms(group)
    n = len(crosses)
    pp = ppowers(p, q_max)
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def has_ray(support: tuple, exps: tuple) -> bool:
        return len(support) < 2 or _torus_ray(group, support, exps) is not None

    def rec(i: int, cs: list[int], qs: list[int], support: tuple, exps: tuple):
        if deadline and time.monotonic() > deadline:
            raise BudgetExceeded("search budget exceeded")
        if i > n:
            candidates.append((tuple(cs), tuple(qs)))
            return
        # triangularity: the cross terms of equation i involve only roots < i
        cross = evaluate(crosses[i - 1], p, cs, qs)
        if not cross:
            rec(i + 1, cs + [0], qs + [0], support, exps)
            for q in pp:
                grown = support + (i,), exps + (q,)
                if has_ray(*grown):
                    for c in range(1, p):
                        rec(i + 1, cs + [c], qs + [q], *grown)
            return
        z = sum(next(iter(cross)))
        grown = support + (i,), exps + (z,)
        if z <= q_max and has_ray(*grown):
            for c in expansion_units(z, cross, p):
                rec(i + 1, cs + [c], qs + [z], *grown)

    rec(1, [], [], (), ())
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
    involves lower roots) and on the torus ray of the partial support.
    Keeps specs supported on >= 2 roots that admit a torus ray; every hit
    is re-verified by ``check_additive`` in all modules, and simple-root
    exponents are asserted to be p-powers.  Each hit computes its
    ``USpec.torus_class`` once; ``check_additive`` reads it in every module
    and runs its kernel once per class of hits under the torus, x -> lam x
    and the Frobenius twist, and ``match_to_table`` runs once per class.
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

    ``_match_class`` tries the identity, all Weyl conjugates, the
    exceptional-isogeny swap (p = 2 SP4 / p = 3 G2 only), the SL3
    graph-automorphism swap, and Weyl conjugates of each.  Its answer is
    constant on the hit's class, its group, p and ``USpec.torus_class``:
    the hit has a torus ray, so its integer relations with the exponents
    are those of the weights alone and the class is one torus orbit over
    the algebraic closure; every move carries torus orbits to torus
    orbits, and a row is met up to the torus.  So it runs once per class,
    kept in ``_MATCH_CLASSES``, while the isogeny image is built, and
    checked, for every hit.
    """
    spec, _t = solution
    iso = isogeny_transform(spec)
    key = (spec.group, spec.field.p, *spec.torus_class)
    if key not in _MATCH_CLASSES:
        _MATCH_CLASSES[key] = _match_class(spec, iso)
    return _MATCH_CLASSES[key]


# match_to_table's answer per class, kept for the process (436 classes for
# the 1,450 hits of the default run)
_MATCH_CLASSES: dict[tuple, tuple[str, str] | None] = {}


def _match_class(spec: USpec, iso: USpec | None) -> tuple[str, str] | None:
    """The first (label, transform) of the spec, its isogeny image ``iso``
    and its SL3 dual under the Weyl words in breadth-first order; a
    conjugate meets only the rows of ``_match_table`` on its support."""
    table = _match_table(spec.group, spec.field.p)
    datum = root_datum(spec.group)
    base_specs = [("identity", spec)]
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
            for row, targets in table.get(conj.support, ()):
                if _match_row(conj, row, targets):
                    transform = tag if not word else f"{tag}+weyl{list(word)}"
                    return (row.label(), transform)
    return None


@lru_cache(maxsize=None)
def _match_table(group: GroupId, p: int) -> dict[tuple[int, ...], tuple]:
    """The rows of the group that allow p, keyed by support in table order,
    each as (row, its ``_row_targets`` at p)."""
    table: dict[tuple[int, ...], list] = {}
    for row in rows_for_group(group):
        if row.allows_p(p):
            table.setdefault(row.support, []).append((row, _row_targets(row, p)))
    return {support: tuple(rows) for support, rows in table.items()}


def _row_targets(row: CaseRow, p: int) -> tuple[tuple, frozenset]:
    """(relations, targets): what a spec on the row's support must meet.

    Matching asks for s in the torus and free symbols x_j in the algebraic
    closure with alpha_i(s) c_i = r_i x_{j(i)} on every support slot i.
    The units of the closure form a divisible group, so this log-linear
    system is solvable iff every integer relation n among the rows (weight
    coordinates of alpha_i, occurrences of x_{j(i)}) has
    prod_i (r_i / c_i)^{n_i} = 1 in F_p, that is, iff the values
    prod_i c_i^{n_i} over a Z-basis of the relations (``_relations``;
    a Q-basis may span a proper sublattice, whose values can agree where
    these do not) are those of the r_i (``_relation_values``).
    ``targets`` holds the relation values of each table ratio
    vector r.  A row whose every entry is ratio * symbol (or a constant)
    has one target, its symbols free; any other row (an affine entry, a
    ratio undefined mod p) has one concrete target, with no free symbol,
    per non-degenerate assignment of F_p^* to its free coefficients.
    """
    datum = root_datum(row.group)
    weights = [datum.weight_coords(datum.positive_roots[i - 1]) for i in row.support]
    slots = [_ratio_symbol(row.c_pattern[i - 1], p) for i in row.support]
    if None in slots:
        rows, ratios = weights, []
        for assign in row.coefficient_assignments(p):
            try:
                coeffs = row.coefficients(assign, PrimeField(p))
            except (DenominatorVanishes, DegenerateInstantiation):
                continue
            ratios.append([coeffs[i - 1] for i in row.support])
    else:
        rows = [
            w + tuple(int(sym == s) for s in row.free_coeffs)
            for w, (_, sym) in zip(weights, slots)
        ]
        ratios = [[r for r, _ in slots]]
    relations = _relations(rows)
    return relations, frozenset(_relation_values(relations, r, p) for r in ratios)


def _ratio_symbol(entry, p: int) -> tuple[int, str | None] | None:
    """(ratio mod p, free symbol or None) of a c-pattern entry ratio * symbol
    or a constant; None for any other entry or a ratio undefined mod p."""
    (key, coef), *rest = entry
    if rest or len(key) > 1 or (key and key[0][1] != 1) or coef.denominator % p == 0:
        return None
    ratio = field_ratio(coef.numerator, coef.denominator, PrimeField(p))
    return ratio, key[0][0] if key else None


def _relation_values(relations, values, p: int) -> tuple[int, ...]:
    """prod_i v_i^{n_i} in F_p per relation n, a negative n_i raising
    v_i^(p-2), the inverse of a unit; never 0 on units."""
    out = []
    for rel in relations:
        prod = 1
        for n_i, v in zip(rel, values):
            prod = prod * pow(v if n_i >= 0 else pow(v, p - 2, p), abs(n_i), p) % p
        out.append(prod)
    return tuple(out)


def _match_row(spec: USpec, row: CaseRow, targets: tuple[tuple, frozenset]) -> bool:
    """Whether a spec on the row's support is an instance of the row up to
    the torus: the row's q-symbols solve to p-powers, and the spec's
    coefficients give the relation values of one of the targets."""
    p = spec.field.p
    q_env: dict = {}
    for i in row.support:
        mult, sym = row.q_pattern[i - 1]
        q, rem = divmod(spec.exps[i - 1], mult)
        if rem or q_env.setdefault(sym, q) != q:
            return False
    if not all(is_ppower(v, p) for v in q_env.values()):
        return False
    relations, values = targets
    coeffs = [spec.coeffs[i - 1] for i in row.support]
    return _relation_values(relations, coeffs, p) in values
