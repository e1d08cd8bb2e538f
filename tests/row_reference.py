"""The row kernels' reference formulations.

``chevrep.Representation.u_rows`` multiplies cached root monomials into
running rows, ``exactalg.rows_additive`` tests
N(a)N(b) = N(a+b) - N(a) - N(b) on the nonzero entries of N = U - 1, and
``exactalg.nullspace`` reads the kernel off the sparse echelon span
``FpSpan``.  This module keeps formulations that share no code with them:
each root factor read straight off the integer divided powers, u(x) as the
``rows_product`` fold of those factors, the term-by-term test of
u(a)u(b) = u(a+b) over every entry of U, and a dense fraction-free
Gauss-Jordan elimination over F_p.  The tests and ``tests/sweep_rows.py``
compare the two.  It is a helper, not a test module: pytest does not
collect it.
"""

from __future__ import annotations

from functools import partial, reduce

from rank2chev.exactalg import (
    EXPONENT_BOUND,
    ExponentOverflow,
    binomial_coeffs_modp,
    rows_product,
)


def _identity(n: int) -> list:
    return [[{0: 1} if r == s else {} for s in range(n)] for r in range(n)]


def root_rows(rep, root: int, c: int, q: int) -> list:
    """The coefficient rows of u_root(c x^q) = 1 + sum_k c^k x^{kq} M_k,
    M_k the integer divided powers of the signed root, reduced mod p;
    every x^{kq} is held to EXPONENT_BOUND."""
    p = rep.field.p
    rows = _identity(rep.dim)
    if not c % p:
        return rows
    for k, mat in rep.divided_powers(root):
        e = k * q
        if e > EXPONENT_BOUND:
            raise ExponentOverflow(e)
        for (r, s), v in mat.items():
            v = pow(c, k, p) * v % p
            if v:
                rows[r][s][e] = v
    return rows


def u_rows(rep, factors) -> list:
    """u(x) as the product of its (signed root, c, q) factors, in order."""
    return reduce(
        partial(rows_product, p=rep.field.p),
        (root_rows(rep, *factor) for factor in factors),
        _identity(rep.dim),
    )


def rows_additive(rows: list, p: int) -> bool:
    """For every entry (r, s) and every a^i b^j, sum_k U[r][k]_i U[k][s]_j
    = C(i+j, i) U[r][s]_{i+j} (mod p), the left side collected under the
    packed key i*base + j."""
    base = 1 + max((max(e) for row in rows for e in row if e), default=0)
    cols = [[(k, e) for k, e in enumerate(col) if e] for col in zip(*rows)]
    for row in rows:
        for col, target in zip(cols, row):
            lhs: dict[int, int] = {}
            for k, bk in col:
                for i, c1 in row[k].items():
                    for j, c2 in bk.items():
                        lhs[i * base + j] = lhs.get(i * base + j, 0) + c1 * c2
            # c (a+b)^e is c a^e + c b^e and the middle binomial terms
            for e, c in target.items():
                terms = ((0, 1),)
                if e:
                    terms += ((e, 1),) + binomial_coeffs_modp(e, p)
                for i, binom in terms:
                    if lhs.pop(i * base + e - i, 0) % p != c * binom % p:
                        return False
            if any(v % p for v in lhs.values()):
                return False
    return True


def nullspace(rows, ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : rows . v = 0} over F_p by dense Gauss-Jordan: each row
    is cleared against the pivot rows by cross-multiplication, scaled to
    pivot 1, and cleared out of the earlier pivot rows.  One vector per
    free column j, 1 at j and 0 at the other free columns."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        r = [a % p for a in row]
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
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for col, prow in pivots.items():
            vec[col] = -prow[j] % p
        basis.append(vec)
    return basis


def _clear(r: list[int], prow: list[int], col: int, p: int) -> list[int]:
    """prow[col] * r - r[col] * prow mod p, which is 0 at col."""
    d, f = prow[col], r[col]
    return [(d * a - f * b) % p for a, b in zip(r, prow)]


def _normalize(r: list[int], lead: int, p: int) -> list[int]:
    """r scaled to r[lead] = 1."""
    inv = pow(r[lead], p - 2, p)
    return [a * inv % p for a in r]
