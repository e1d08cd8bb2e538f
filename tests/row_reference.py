"""The row kernels' reference formulations.

``subgrp.u_rows`` multiplies root monomials into running rows, and
``exactalg.rows_additive`` tests N(a)N(b) = N(a+b) - N(a) - N(b) on the
nonzero entries of N = U - 1.  This module keeps the formulations they
replaced: u(x) as the ``rows_product`` fold of the ``root_rows`` factors,
and the term-by-term test of u(a)u(b) = u(a+b) over every entry of U.
The tests and ``tests/sweep_rows.py`` compare the two.  It is a helper,
not a test module: pytest does not collect it.
"""

from __future__ import annotations

from functools import partial, reduce

from rank2chev.exactalg import binomial_coeffs_modp, rows_product


def u_rows(spec, rep) -> list:
    """u(x) as the product of its root factors, in listing order."""
    p = spec.field.p
    return reduce(
        partial(rows_product, p=p),
        (
            rep.root_rows(i, c % p, q)
            for i, (c, q) in enumerate(zip(spec.coeffs, spec.exps), start=1)
            if c
        ),
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
