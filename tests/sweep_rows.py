"""Compare the row kernels with their reference formulations.

On every search hit of each group at p in {2, 3, 5} (q_max = p^2), and on
every instantiation of the tables suite at primes 2, 3, 5, 7 and f_max 3,
in every module of the group: ``subgrp.u_rows`` must equal the
``rows_product`` fold of the ``root_rows`` factors, and
``exactalg.rows_additive`` must agree with the term-by-term loop
(``row_reference``).  Standard library only; pytest does not collect this
file.  Run from the repository root:

    PYTHONPATH=src python tests/sweep_rows.py

It prints one line per (group, p) and one for the tables, and exits 1 on
any mismatch.
"""

from __future__ import annotations

import sys
import time

import row_reference

from rank2chev import chevrep, subgrp
from rank2chev.exactalg import rows_additive
from rank2chev.rootdata import GroupId

SEARCH_PRIMES = (2, 3, 5)
TABLE_PRIMES = (2, 3, 5, 7)
TABLE_F_MAX = 3


def mismatches(spec) -> list[str]:
    """What differs between kernel and reference for the spec, per module."""
    bad = []
    p = spec.field.p
    for module in chevrep.all_modules(spec.group):
        rep = chevrep.build_rep(spec.group, module, spec.field)
        rows = subgrp.u_rows(spec, rep)
        if rows != row_reference.u_rows(spec, rep):
            bad.append(f"{spec} in {module}: u_rows differs")
        elif rows_additive(rows, p) != row_reference.rows_additive(rows, p):
            bad.append(f"{spec} in {module}: rows_additive differs")
    return bad


def table_specs():
    """The spec of every tables-suite instantiation, through the suite's
    own loop over (p, f) pairs and coefficient choices."""
    specs = []

    def collect(spec, _t, _coeffs, key):
        specs.append(spec)
        return subgrp.record("-", "pass", "", key)

    for row in subgrp.load_case_rows():
        for p, f_assign in subgrp._instantiation_pairs(row, TABLE_PRIMES, TABLE_F_MAX):
            subgrp.instantiations(row, row.label(), p, f_assign, collect)
    return specs


def report(name: str, specs, start: float) -> int:
    bad = [line for spec in specs for line in mismatches(spec)]
    elapsed = time.perf_counter() - start
    print(f"{name}: {len(specs)} specs, {len(bad)} mismatches, {elapsed:.1f} s")
    for line in bad[:5]:
        print(f"  {line}")
    return len(bad)


def main() -> int:
    failures = 0
    for group in GroupId:
        for p in SEARCH_PRIMES:
            start = time.perf_counter()
            hits = subgrp.search_solutions(group, p, p * p)
            failures += report(f"{group} p={p} search hits", [s for s, _t in hits], start)
    start = time.perf_counter()
    failures += report("tables instantiations", table_specs(), start)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
