"""Validation of the concrete representations, for the tests.

``validate_rep`` checks, per signed root of a module over F_p, additivity
of the root element, its torus-weight grading and its unipotence.  The
engine never calls it: every module is built from integer data that these
checks hold on, and ``test_chevrep`` and ``test_acceptance`` run them at
p = 2, 3, 5, 7.  The grading is read here straight off the integer
divided powers, every entry, as a reference for the check that
``chevrep._base_data`` makes once per module.
"""

from __future__ import annotations

from dataclasses import dataclass

from rank2chev.chevrep import Representation
from rank2chev.exactalg import rows_additive, rows_product


@dataclass
class ValidationReport:
    rep: str
    p: int
    checks: list
    ok: bool

    def failures(self):
        return [c for c in self.checks if not c[1]]


def validate_rep(rep: Representation) -> ValidationReport:
    """Check per-root additivity, torus-weight grading, unipotence.

    Additivity: u_a(s) u_a(t) = u_a(s + t) as a polynomial identity.
    Grading: every integer entry of the divided power e_a^(k), zero mod p
    or not, moves weights by exactly k*a, which is equivalent to the torus
    conjugation rule t u_a(x) t^-1 = u_a(a(t) x), the action on which
    ``subgrp.check_additive`` groups specs into classes.
    Unipotence: (u_a(x) - 1)^dim = 0 over F_p[x].
    """
    p = rep.field.p
    checks = []
    roots = list(range(1, rep.datum.num_positive + 1))
    signed = roots + [-r for r in roots]
    rows = {r: rep.u_rows([(r, 1, 1)]) for r in signed}
    for r in signed:
        checks.append((f"additivity root {r}", rows_additive(rows[r], p)))
    w = rep.weights
    for r in signed:
        a1, a2 = rep.datum.weight_coords(rep.datum.positive_roots[abs(r) - 1])
        if r < 0:
            a1, a2 = -a1, -a2
        good = all(
            (w[row][0] - w[col][0], w[row][1] - w[col][1]) == (k * a1, k * a2)
            for k, mat in rep.divided_powers(r)
            for row, col in mat
        )
        checks.append((f"weight grading root {r}", good))
    for r in signed:
        checks.append((f"unipotent root {r}", unipotent(rows[r], p)))
    return ValidationReport(
        rep=f"{rep.group}/{rep.name}", p=p, checks=checks,
        ok=all(okc for _, okc in checks),
    )


def unipotent(rows: list, p: int) -> bool:
    """Whether (u(x) - 1)^n = 0 for n x n coefficient rows with u(0) = 1,
    as ``Representation.u_rows`` builds them."""
    nil = [[{e: c for e, c in x.items() if e} for x in row] for row in rows]
    power = nil
    for _ in rows[1:]:
        power = rows_product(power, nil, p)
    return not any(map(any, power))
