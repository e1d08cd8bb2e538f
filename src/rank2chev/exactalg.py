"""Exact arithmetic kernel: prime fields, sparse multivariate polynomials
over F_p, and matrices with polynomial entries.

Everything here is immutable after construction and exact; there is no
floating point anywhere.  Polynomial equality is syntactic on a canonical
form (variables sorted, unused variables stripped, no zero coefficients),
so ``==`` never evaluates anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping

# Guard against runaway exponent growth when p-power exponents are
# instantiated; large enough for every sanctioned instantiation.
EXPONENT_BOUND = 10**6


class DenominatorVanishes(ZeroDivisionError):
    """A table constant's denominator is divisible by the characteristic."""


class ExponentOverflow(OverflowError):
    """A polynomial exponent exceeded EXPONENT_BOUND."""


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


@dataclass(frozen=True)
class PrimeField:
    """The field F_p.  Elements are plain ints reduced to [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    def reduce(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def units(self) -> range:
        return range(1, self.p)

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
    return field.mul(field.reduce(numerator), field.inv(denominator))


class PolyFp:
    """Sparse multivariate polynomial over F_p.

    ``vars`` is the sorted tuple of variable names actually present;
    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    coefficients in [1, p).  The canonical form makes ``==`` syntactic.
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
        n = field.reduce(n)
        return cls(field, (), {(): n} if n else {})

    @classmethod
    def var(cls, field: PrimeField, name: str, exp: int = 1, coeff: int = 1) -> "PolyFp":
        return cls.monomial(field, coeff, {name: exp})

    @classmethod
    def monomial(cls, field: PrimeField, coeff: int, exps: Mapping[str, int]) -> "PolyFp":
        coeff = field.reduce(coeff)
        if coeff == 0:
            return cls.zero(field)
        clean = {v: e for v, e in exps.items() if e != 0}
        for v, e in clean.items():
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
            if e > EXPONENT_BOUND:
                raise ExponentOverflow(f"exponent {e} exceeds bound {EXPONENT_BOUND}")
        names = tuple(sorted(clean))
        return cls(field, names, {tuple(clean[v] for v in names): coeff})

    @classmethod
    def _make(cls, field: PrimeField, vars: tuple[str, ...], terms: dict) -> "PolyFp":
        """Canonicalize: drop zero coefficients and unused variables."""
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls.zero(field)
        used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        for e in terms:
            for x in e:
                if x > EXPONENT_BOUND:
                    raise ExponentOverflow(f"exponent {x} exceeds bound {EXPONENT_BOUND}")
        return cls(field, vars, terms)

    # -- alignment ---------------------------------------------------------

    def _aligned(self, other: "PolyFp") -> tuple[tuple[str, ...], dict, dict]:
        if self.field.p != other.field.p:
            raise ValueError("polynomials over different fields")
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars)))

        def embed(poly: "PolyFp") -> dict:
            idx = [poly.vars.index(v) if v in poly.vars else -1 for v in union]
            return {
                tuple(e[i] if i >= 0 else 0 for i in idx): c
                for e, c in poly.terms.items()
            }

        return union, embed(self), embed(other)

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
        p = self.field.p
        for e, c in b.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return PolyFp._make(self.field, vars, out)

    __radd__ = __add__

    def __neg__(self) -> "PolyFp":
        p = self.field.p
        return PolyFp(self.field, self.vars, {e: p - c for e, c in self.terms.items()})

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
        p = self.field.p
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
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

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> int:
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), 0)

    def coefficient(self, exps: Mapping[str, int]) -> int:
        """Coefficient of the monomial with the given exponents."""
        clean = {v: e for v, e in exps.items() if e}
        if set(clean) - set(self.vars):
            return 0
        key = tuple(clean.get(v, 0) for v in self.vars)
        return self.terms.get(key, 0)

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

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "PolyMatrix":
        zero = PolyFp.zero(field)
        return cls(field, [[zero for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def from_int_entries(cls, field: PrimeField, entries) -> "PolyMatrix":
        return cls(
            field, [[PolyFp.const(field, int(x)) for x in row] for row in entries]
        )

    def __getitem__(self, rc: tuple[int, int]) -> PolyFp:
        return self.entries[rc[0]][rc[1]]

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.field,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.field,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        zero = PolyFp.zero(self.field)
        cols_t = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols_t:
                acc = zero
                for a, b in zip(row, col):
                    if a.terms and b.terms:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return PolyMatrix(self.field, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.field, [list(r) for r in zip(*self.entries)])

    def is_identity(self) -> bool:
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if i == j:
                    if not (e.is_constant() and e.constant_value() == 1):
                        return False
                elif e.terms:
                    return False
        return True

    def det(self) -> PolyFp:
        """Determinant by Laplace expansion, memoized on remaining column sets.

        The cache can key on the column mask alone: the row index is always
        n minus the number of remaining columns.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        full = (1 << n) - 1

        def go(row: int, colmask: int, cache: dict) -> PolyFp:
            if colmask == 0:
                return PolyFp.const(self.field, 1)
            if colmask in cache:
                return cache[colmask]
            acc = PolyFp.zero(self.field)
            sign = 1
            for j in range(n):
                if not (colmask >> j) & 1:
                    continue
                e = self.entries[row][j]
                if e.terms:
                    term = e * go(row + 1, colmask & ~(1 << j), cache)
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign  # alternates over the set columns only
            cache[colmask] = acc
            return acc

        return go(0, full, {})

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over F{self.field.p})"


def gauss_nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Nullspace basis of an integer matrix mod p (vectors of length ncols)."""
    mat = [[x % p for x in row] for row in rows]
    pivots: dict[int, list[int]] = {}
    for row in mat:
        r = row[:]
        for col, prow in sorted(pivots.items()):
            if r[col]:
                f = r[col]
                r = [(a - f * b) % p for a, b in zip(r, prow)]
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is None:
            continue
        inv = pow(r[lead], p - 2, p)
        r = [a * inv % p for a in r]
        for col, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                pivots[col] = [(a - f * b) % p for a, b in zip(prow, r)]
        pivots[lead] = r
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * ncols
        vec[j] = 1
        for col, prow in pivots.items():
            vec[col] = (-prow[j]) % p
        basis.append(vec)
    return basis


def primitive_triple(nums: tuple[int, int, int]) -> tuple[int, int, int]:
    """Reduce an integer triple to its primitive form (gcd 1, last entry > 0)."""
    g = gcd(gcd(abs(nums[0]), abs(nums[1])), abs(nums[2]))
    if g == 0:
        return (0, 0, 0)
    out = tuple(n // g for n in nums)
    if out[2] < 0:
        out = tuple(-n for n in out)
    return out  # type: ignore[return-value]
