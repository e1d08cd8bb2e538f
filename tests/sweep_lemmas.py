"""Compare the lemma checker with the unpruned enumeration.

For every polynomial case at p in {2, 3, 5, 7, 11, 13} with z_max = 200,
the bound of the report: ``lemmas.check_poly_lemma`` must give the same
number of solutions and the same sets of extra and missing tuples as
``lemma_reference.check``, which solves every family at every z in range.
Cases 3 and 4 are vacuous at p = 2 and are not compared.  Standard
library only; pytest does not collect this file.  Run from the repository
root:

    PYTHONPATH=src python tests/sweep_lemmas.py

It prints one line per p and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
import time

import lemma_reference

from rank2chev import lemmas

PRIMES = (2, 3, 5, 7, 11, 13)
Z_MAX = 200


def main() -> int:
    failures = 0
    for p in PRIMES:
        start = time.perf_counter()
        bad = []
        for case in range(1, 7):
            if case in (3, 4) and p == 2:
                continue
            r = lemmas.check_poly_lemma(case, p, Z_MAX)
            got = (r.solutions, set(r.extra), set(r.missing))
            want = lemma_reference.check(case, p, Z_MAX)
            if got != want:
                counts = [(n, len(extra), len(missing)) for n, extra, missing in (got, want)]
                bad.append(f"poly-{case}: (solutions, extra, missing) {counts[0]}, "
                           f"reference {counts[1]}")
        elapsed = time.perf_counter() - start
        print(f"p={p}: {len(bad)} mismatches, {elapsed:.1f} s")
        for line in bad:
            print(f"  {line}")
        failures += len(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
