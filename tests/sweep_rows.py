"""Compare the row kernels with their reference formulations.

On every search hit of each group at p in {2, 3, 5} (q_max = p^2), and on
every instantiation of the tables suite at primes 2, 3, 5, 7 and f_max 3,
in every module of the group: ``Representation.u_rows`` must equal the
``rows_product`` fold of the reference's root factors, read off the
divided powers, ``exactalg.rows_additive`` must agree with the
term-by-term loop (``row_reference``), and ``subgrp.check_additive``,
which answers once per class of specs, must give the direct kernel's
answer.  The last check also runs on every search hit of SP4 and G2 at
p = 7 (q_max = p^2), a prime the default run does not search.  The
existence suite's u+(x), u-(x) and u_c(x) (``DiagonalA1Spec.rows``) must
equal the same fold, for SP4 and G2 at p in {2, 3, 5, 7, 11, 13} with
q = p and q = p^2.  The witnesses' kernels, ``exactalg.nullspace`` on
the sparse echelon span, must equal the dense Gauss-Jordan elimination of
``row_reference.nullspace`` on every system the witnesses solve at
p <= 13: the fixed-space system of ``witness._fallback_witness`` at each
instantiation of every witness row with f <= 1 that the row's guard
admits, and the rescaling system of each principal check with f <= 2.
Standard library only; pytest does not collect this file.  Run from the
repository root:

    PYTHONPATH=src python tests/sweep_rows.py

It prints one line per (group, p), one for the tables, one for the
existence rows and one for the witness kernels, and exits 1 on any
mismatch.
"""

from __future__ import annotations

import sys
import time
from itertools import product

import row_reference

from rank2chev import chevrep, existence, subgrp, symexpr, witness
from rank2chev.exactalg import PrimeField, nullspace, rows_additive
from rank2chev.rootdata import GroupId

SEARCH_PRIMES = (2, 3, 5)
CLASS_SEARCHES = ((GroupId.SP4, 7), (GroupId.G2, 7))
TABLE_PRIMES = (2, 3, 5, 7)
TABLE_F_MAX = 3
EXISTENCE_PRIMES = (2, 3, 5, 7, 11, 13)
WITNESS_PRIMES = (2, 3, 5, 7, 11, 13)
WITNESS_F_MAX = 1
PRINCIPAL_F_MAX = 2


def mismatches(spec) -> list[str]:
    """What differs between kernel and reference for the spec, per module."""
    bad = []
    p = spec.field.p
    for module in chevrep.all_modules(spec.group):
        rep = chevrep.build_rep(spec.group, module, spec.field)
        rows = rep.u_rows(spec.factors)
        additive = rows_additive(rows, p)
        if rows != row_reference.u_rows(rep, spec.factors):
            bad.append(f"{spec} in {module}: u_rows differs")
        elif additive != row_reference.rows_additive(rows, p):
            bad.append(f"{spec} in {module}: rows_additive differs")
        elif subgrp.check_additive(spec, rep) != additive:
            bad.append(f"{spec} in {module}: check_additive differs")
    return bad


def class_mismatches(spec) -> list[str]:
    """The modules in which check_additive and the direct kernel differ."""
    return [
        f"{spec} in {module}: check_additive differs"
        for module in chevrep.all_modules(spec.group)
        for rep in [chevrep.build_rep(spec.group, module, spec.field)]
        if subgrp.check_additive(spec, rep)
        != rows_additive(rep.u_rows(spec.factors), spec.field.p)
    ]


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


def existence_mismatches(spec) -> list[str]:
    """Which of u+(x), u-(x), u_c(x) differ from the reference fold."""
    rep = chevrep.faithful_rep(spec.group, spec.field)
    i, j = spec.pair
    q = spec.q
    want = (
        [(i, 1, 1), (j, 1, q)],
        [(-i, 1, 1), (-j, 1, q)],
        [(spec.companion, 1, 1)],
    )
    return [
        f"{spec.group} p={spec.field.p} q={q}: u{name}(x) differs"
        for name, rows, factors in zip(("+", "-", "_c"), spec.rows, want)
        if rows != row_reference.u_rows(rep, factors)
    ]


def existence_specs():
    return [
        existence.DiagonalA1Spec(group, PrimeField(p), q)
        for group in (GroupId.SP4, GroupId.G2)
        for p in EXISTENCE_PRIMES
        for q in (p, p * p)
    ]


def witness_kernel_systems() -> list[tuple[list, int, int]]:
    """The (rows, ncols, p) of every kernel the witnesses solve at
    WITNESS_PRIMES, read off the calls of ``witness.nullspace``."""
    systems = []

    def solve(rows, ncols, p):
        rows = [list(r) for r in rows]
        systems.append((rows, ncols, p))
        return nullspace(rows, ncols, p)

    def fallback(wrow, f_assign):
        def check(spec, t, _coeffs, key):
            field = spec.field
            q_env = {s: field.p**f for s, f in f_assign.items()}
            expr = witness.parse_module_expr(wrow.module_src, wrow.group, field, q_env)
            leaf_mats = {
                name: subgrp.u_matrix(spec, chevrep.build_rep(wrow.group, name, field))
                for name in chevrep.leaf_names(expr)
            }
            witness._fallback_witness(expr, leaf_mats, t, field)
            return subgrp.record("-", "pass", "", key)

        return check

    witness.nullspace = solve
    try:
        for wrow in witness.load_witness_rows():
            row = witness._case_row(wrow.group, wrow.case)
            rule = witness._guard_rule(wrow.guard)
            for p in filter(row.allows_p, WITNESS_PRIMES):
                for fs in product(range(WITNESS_F_MAX + 1), repeat=len(row.q_symbols)):
                    f_assign = dict(zip(row.q_symbols, fs))
                    env = {"p": p, **{s: p**f for s, f in f_assign.items()}}
                    if rule is None or symexpr.holds(rule, env):
                        check = fallback(wrow, f_assign)
                        subgrp.instantiations(row, wrow.label(), p, f_assign, check)
        for group in GroupId:
            row = witness._case_row(group, "1")
            for p in filter(row.allows_p, WITNESS_PRIMES):
                for f in range(PRINCIPAL_F_MAX + 1):
                    witness.check_principal_a1(group, p, f)
    finally:
        witness.nullspace = nullspace
    return systems


def kernel_mismatches(system) -> list[str]:
    rows, ncols, p = system
    if nullspace(rows, ncols, p) == row_reference.nullspace(rows, ncols, p):
        return []
    return [f"{len(rows)}x{ncols} system at p={p}: nullspace differs"]


def report(name: str, specs, start: float, check=mismatches) -> int:
    bad = [line for spec in specs for line in check(spec)]
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
    for group, p in CLASS_SEARCHES:
        start = time.perf_counter()
        hits = subgrp.search_solutions(group, p, p * p)
        failures += report(
            f"{group} p={p} search hits, classes only",
            [s for s, _t in hits],
            start,
            class_mismatches,
        )
    start = time.perf_counter()
    failures += report("tables instantiations", table_specs(), start)
    start = time.perf_counter()
    failures += report(
        "existence rows", existence_specs(), start, existence_mismatches
    )
    start = time.perf_counter()
    failures += report(
        "witness kernels", witness_kernel_systems(), start, kernel_mismatches
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
