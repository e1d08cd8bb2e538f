"""Exact arithmetic kernel: prime fields, the binomial coefficients mod p,
sparse multivariate polynomials over F_p or over Z (characteristic 0, the
ring the derivations run in), matrices with polynomial entries,
one-variable matrices as coefficient rows with their product and the
additivity test u(a)u(b) = u(a+b), and the nullspace of an integer matrix
over F_p or Q.

Everything here is immutable after construction and exact; there is no
floating point anywhere.  Polynomial equality is syntactic on a canonical
form (variables sorted, unused variables stripped, no zero coefficients),
so ``==`` never evaluates anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping

# Guard against runaway exponent growth when p-power exponents are
# instantiated; large enough for every sanctioned instantiation.
EXPONENT_BOUND = 10**6


class DenominatorVanishes(ZeroDivisionError):
    """A table constant's denominator is divisible by the characteristic."""


class ExponentOverflow(OverflowError):
    """A polynomial exponent exceeded EXPONENT_BOUND."""

    def __init__(self, exponent: int):
        super().__init__(f"exponent {exponent} exceeds bound {EXPONENT_BOUND}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_ppower(q: int, p: int) -> bool:
    """True iff q = p^k for some k >= 0; False for every q < 1."""
    if q < 1:
        return False
    while q % p == 0:
        q //= p
    return q == 1


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


@dataclass(frozen=True)
class PrimeField:
    """The field F_p, or the prime ring Z when p = 0.  Elements are plain
    ints, reduced to [0, p) when p > 0."""

    p: int

    def __post_init__(self) -> None:
        if self.p and not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    def reduce(self, n: int) -> int:
        return n % self.p if self.p else n

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __str__(self) -> str:
        return f"F{self.p}"


def field_ratio(numerator: int, denominator: int, field: PrimeField) -> int:
    """numerator / denominator in F_p.

    Raises DenominatorVanishes when p divides the denominator; this is how
    a table row's characteristic constraint surfaces during instantiation.
    """
    if denominator == 0:
        raise ZeroDivisionError("denominator is zero as an integer")
    if denominator % field.p == 0:
        raise DenominatorVanishes(
            f"denominator {denominator} vanishes in characteristic {field.p}"
        )
    return numerator * field.inv(denominator) % field.p


class PolyFp:
    """Sparse multivariate polynomial over F_p, or over Z when p = 0.

    ``vars`` is the sorted tuple of variable names actually present;
    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    coefficients, in [1, p) when p > 0.  The canonical form makes ``==``
    syntactic.  ``_make`` is the one place coefficients are reduced: the
    ring operations sum plain ints and hand the result to it.
    """

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: PrimeField, vars: tuple[str, ...], terms: dict):
        # Internal constructor: callers must pass canonical data.
        self.field = field
        self.vars = vars
        self.terms = terms

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "PolyFp":
        return cls(field, (), {})

    @classmethod
    def const(cls, field: PrimeField, n: int) -> "PolyFp":
        return cls._make(field, (), {(): n})

    @classmethod
    def monomial(cls, field: PrimeField, coeff: int, exps: Mapping[str, int]) -> "PolyFp":
        clean = {v: e for v, e in exps.items() if e != 0}
        for v, e in clean.items():
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        names = tuple(sorted(clean))
        return cls._make(field, names, {tuple(clean[v] for v in names): coeff})

    @classmethod
    def _make(cls, field: PrimeField, vars: tuple[str, ...], terms: dict) -> "PolyFp":
        """Canonicalize: reduce the int coefficients mod p when p > 0, then
        drop zero coefficients and unused variables.

        Every exponent of ``terms`` is held to EXPONENT_BOUND, including
        those of terms whose coefficient is zero.
        """
        if vars and terms:
            top = max(map(max, terms))
            if top > EXPONENT_BOUND:
                raise ExponentOverflow(top)
        p = field.p
        if p:
            terms = {e: r for e, c in terms.items() if (r := c % p)}
        else:
            terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls.zero(field)
        used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        return cls(field, vars, terms)

    # -- alignment ---------------------------------------------------------

    def _embed(self, union: tuple[str, ...]) -> dict:
        """The terms re-keyed by exponent tuples over ``union``, a sorted
        superset of ``vars``."""
        idx = [self.vars.index(v) if v in self.vars else -1 for v in union]
        return {
            tuple(e[i] if i >= 0 else 0 for i in idx): c
            for e, c in self.terms.items()
        }

    def _aligned(self, other: "PolyFp") -> tuple[tuple[str, ...], dict, dict]:
        if self.field.p != other.field.p:
            raise ValueError("polynomials over different fields")
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return union, self._embed(union), other._embed(union)

    def _coerce(self, other) -> "PolyFp":
        if isinstance(other, PolyFp):
            return other
        if isinstance(other, int):
            return PolyFp.const(self.field, other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "PolyFp":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vars, a, b = self._aligned(other)
        out = dict(a)
        get = out.get
        for e, c in b.items():
            out[e] = get(e, 0) + c
        return PolyFp._make(self.field, vars, out)

    __radd__ = __add__

    def __neg__(self) -> "PolyFp":
        return PolyFp._make(self.field, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "PolyFp":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PolyFp":
        return (-self) + other

    def __mul__(self, other) -> "PolyFp":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return PolyFp.zero(self.field)
        vars, a, b = self._aligned(other)
        out: dict = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return PolyFp._make(self.field, vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyFp":
        if n < 0:
            raise ValueError("negative power")
        result = PolyFp.const(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = PolyFp.const(self.field, other)
        if not isinstance(other, PolyFp):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.p, self.vars, tuple(sorted(self.terms.items()))))

    # -- queries -------------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> int:
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), 0)

    def monomials(self) -> Iterable[tuple[dict, int]]:
        for e, c in sorted(self.terms.items()):
            yield ({v: x for v, x in zip(self.vars, e) if x}, c)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{x}" if x > 1 else v for v, x in zip(self.vars, e) if x
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


class PolyMatrix:
    """Rectangular matrix with PolyFp entries."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, entries: list[list[PolyFp]]):
        self.field = field
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(r) != self.cols for r in entries):
            raise ValueError("ragged matrix")
        self.entries = entries

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "PolyMatrix":
        one = PolyFp.const(field, 1)
        zero = PolyFp.zero(field)
        return cls(
            field, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.field.p != other.field.p:
            raise ValueError("matrices over different fields")
        field = self.field
        zero = PolyFp.zero(field)
        # the nonzero entries of each column of other, with their row index
        cols_t = [
            [(k, b) for k, b in enumerate(col) if b.terms]
            for col in zip(*other.entries)
        ]
        out = []
        for row in self.entries:
            out_row = []
            for col in cols_t:
                pairs = [(row[k], b) for k, b in col if row[k].terms]
                out_row.append(_dot(field, pairs) if pairs else zero)
            out.append(out_row)
        return PolyMatrix(field, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def is_identity(self) -> bool:
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if i == j:
                    if not (e.is_constant() and e.constant_value() == 1):
                        return False
                elif e.terms:
                    return False
        return True

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over F{self.field.p})"


def _dot(field: PrimeField, pairs: list[tuple[PolyFp, PolyFp]]) -> PolyFp:
    """sum(a * b for a, b in pairs), accumulated in one term dict over the
    union of the factors' variables and canonicalized once by ``_make``,
    which reduces the coefficients and holds every product term to
    EXPONENT_BOUND, even one that cancels.
    """
    names: set[str] = set()
    for a, b in pairs:
        names.update(a.vars)
        names.update(b.vars)
    union = tuple(sorted(names))
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        ta = a.terms if a.vars == union else a._embed(union)
        tb = (b.terms if b.vars == union else b._embed(union)).items()
        for e1, c1 in ta.items():
            for e2, c2 in tb:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    return PolyFp._make(field, union, acc)


# Coefficient rows: a matrix over F_p[x] as rows of {exponent: coefficient}
# dicts, one per entry, coefficients in [1, p).  Every exponent, including
# that of a product term that cancels, is held to EXPONENT_BOUND as in
# the PolyFp kernel.  ``chevrep.Representation.u_rows`` builds u(x) in
# this form; the kernels below multiply such matrices and test additivity.


def rows_product(a: list, b: list, p: int) -> list[list[dict[int, int]]]:
    """The product of two coefficient-row matrices over F_p."""
    # the nonzero entries of each column of b, with their row index and degree
    cols = [[(k, e, max(e)) for k, e in enumerate(col) if e] for col in zip(*b)]
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc: dict[int, int] = {}
            get = acc.get
            for k, bk, top in col:
                ak = row[k]
                if not ak:
                    continue
                if max(ak) + top > EXPONENT_BOUND:
                    raise ExponentOverflow(max(ak) + top)
                for i, c1 in ak.items():
                    for j, c2 in bk.items():
                        acc[i + j] = get(i + j, 0) + c1 * c2
            out_row.append({e: c % p for e, c in acc.items() if c % p})
        out.append(out_row)
    return out


def rows_additive(rows: list, p: int) -> bool:
    """True iff the coefficient rows U of u(x) satisfy u(a)u(b) = u(a+b).

    With N = U - 1 the identity (1 + N(a))(1 + N(b)) = 1 + N(a+b) reads
    N(a)N(b) = N(a+b) - N(a) - N(b), for every U.  x -> a+b is a ring
    homomorphism, so the right side is, term by term, c x^e giving the
    middle binomial terms c C(e, i) a^i b^{e-i}, 0 < i < e, and a constant
    c giving -c.  The left side is summed over the nonzero entries of N
    only, under the packed key i*base + j of a^i b^j, base above every
    exponent (Kronecker substitution); the binomials are the Lucas ones of
    ``binomial_coeffs_modp``.
    """
    nil = [list(row) for row in rows]
    for r, row in enumerate(nil):
        diag = dict(row[r])
        c = (diag.get(0, 0) - 1) % p
        if c:
            diag[0] = c
        else:
            diag.pop(0, None)
        row[r] = diag
    tops = [max(e) for row in nil for e in row if e]
    if not tops:
        return True
    base = 1 + max(tops)
    nonzero = [[(s, e) for s, e in enumerate(row) if e] for row in nil]
    for entries in nonzero:
        lhs: dict[int, dict[int, int]] = {}
        for k, ak in entries:
            for s, bk in nonzero[k]:
                acc = lhs.setdefault(s, {})
                get = acc.get
                for i, c1 in ak.items():
                    ib = i * base
                    for j, c2 in bk.items():
                        acc[ib + j] = get(ib + j, 0) + c1 * c2
        for s, target in entries:
            acc = lhs.pop(s, {})
            for e, c in target.items():
                if not e:
                    if (acc.pop(0, 0) + c) % p:
                        return False
                    continue
                for i, binom in binomial_coeffs_modp(e, p):
                    if (acc.pop(i * base + e - i, 0) - c * binom) % p:
                        return False
            if any(v % p for v in acc.values()):
                return False
        if any(v % p for acc in lhs.values() for v in acc.values()):
            return False
    return True


def nullspace(
    rows: Iterable[Iterable[int]], ncols: int, p: int = 0
) -> list[list[int]]:
    """Basis of {v : rows . v = 0} over F_p, or over Q when p = 0.

    Fraction-free Gauss-Jordan on ints, one vector per free column j, zero
    at the other free columns.  Over F_p pivot rows are scaled to pivot 1,
    so the basis is the one read off the unique reduced echelon form and
    its vector for j is 1 at j.  Over Q pivot rows are kept primitive with
    a positive pivot, and the vector for j is the primitive integer vector
    that is positive at j.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        r = [a % p for a in row] if p else list(row)
        for col, prow in pivots.items():
            if r[col]:
                r = _clear(r, prow, col, p)
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is None:
            continue
        r = _normalize(r, lead, p)
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = _normalize(_clear(prow, r, lead, p), col, p)
        pivots[lead] = r
    scale = lcm(*(prow[col] for col, prow in pivots.items()))
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = scale
        for col, prow in pivots.items():
            vec[col] = -prow[j] * (scale // prow[col])
        basis.append(_normalize(vec, j, p))
    return basis


def _clear(r: list[int], prow: list[int], col: int, p: int) -> list[int]:
    """prow[col] * r - r[col] * prow, which is 0 at col (reduced mod p if p)."""
    d, f = prow[col], r[col]
    out = [d * a - f * b for a, b in zip(r, prow)]
    return [a % p for a in out] if p else out


def _normalize(r: list[int], lead: int, p: int) -> list[int]:
    """r scaled to r[lead] = 1 over F_p; over Q, primitive with r[lead] > 0."""
    if p:
        inv = pow(r[lead], p - 2, p)
        return [a * inv % p for a in r]
    g = gcd(*r)
    if r[lead] < 0:
        g = -g
    return [a // g for a in r]


def primitive_triple(nums: tuple[int, int, int]) -> tuple[int, int, int]:
    """Reduce an integer triple to its primitive form (gcd 1, last entry > 0)."""
    g = gcd(gcd(abs(nums[0]), abs(nums[1])), abs(nums[2]))
    if g == 0:
        return (0, 0, 0)
    out = tuple(n // g for n in nums)
    if out[2] < 0:
        out = tuple(-n for n in out)
    return out  # type: ignore[return-value]
