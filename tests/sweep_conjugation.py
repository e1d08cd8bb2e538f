"""Compare compiled Weyl conjugation and SL3 duality with the matrix path.

For every group and p in {2, 3, 5}, every search hit (q_max = p^2) is
conjugated by every Weyl word, once by the engine's formulas
(``conjugate_by_word``) and once by matrices (``matrix_path.weyl_image``,
with no support screen: a support that leaves the positive roots must show
as a non-unipotent product).  SL3 hits are
also compared under the duality.  Standard library only; pytest does not
collect this file.  Run from the repository root:

    PYTHONPATH=src python tests/sweep_conjugation.py

It prints one line per (group, p) and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
import time

import matrix_path

from rank2chev.rootdata import GroupId

PRIMES = (2, 3, 5)


def main() -> int:
    failures = 0
    for group in GroupId:
        for p in PRIMES:
            start = time.perf_counter()
            count, bad = matrix_path.hit_mismatches(group, p)
            elapsed = time.perf_counter() - start
            print(
                f"{group} p={p}: {count} comparisons, {len(bad)} mismatches,"
                f" {elapsed:.1f} s"
            )
            for spec, word, got, want in bad[:5]:
                print(f"  {spec} {word}: {got} != matrices {want}")
            failures += len(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
