"""Pin which case row, and by which transform, every search hit matches.

The golden reports give only "N solutions, 0 unmatched" per search job,
and the default run never searches G2 beyond p = 3, so they cannot show a
hit moving to another row.  This sweep runs the search for every group at
p in {2, 3, 5, 7, 11} with q_max = p^2, matches every hit with
``subgrp.match_to_table`` and counts the hits per (group, p, label,
transform); an unmatched hit counts under the label null.  The counts
must equal ``tests/golden/matches.json`` exactly.  The search runs with
its torus prune, and the fixture was written by a search without it, so
the sweep also shows that the prune loses no hit.  Standard library only;
pytest does not collect this file.  Run from the repository root:

    PYTHONPATH=src python tests/sweep_matches.py

It prints one line per (group, p) and exits 1 on any difference.  The
fixture is ``fixture_text(match_counts())``, written from a tree whose
matching is trusted.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from collections import Counter

from rank2chev import subgrp
from rank2chev.rootdata import GroupId

PRIMES = (2, 3, 5, 7, 11)
FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "matches.json"


def job_counts(group: GroupId, p: int) -> Counter:
    """Hits per (label, transform) of one search job."""
    counts: Counter = Counter()
    for sol in subgrp.search_solutions(group, p, p * p):
        counts[subgrp.match_to_table(sol) or (None, None)] += 1
    return counts


def _entries(group: GroupId, p: int, counts: Counter) -> list[dict]:
    return [
        {"group": str(group), "p": p, "label": label, "transform": transform,
         "hits": n}
        for (label, transform), n in sorted(counts.items(), key=str)
    ]


def match_counts() -> list[dict]:
    """One entry per (group, p, label, transform) over the whole sweep."""
    return [
        entry
        for group in GroupId
        for p in PRIMES
        for entry in _entries(group, p, job_counts(group, p))
    ]


def fixture_text(entries: list[dict]) -> str:
    """A JSON list with one entry per line."""
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    return f"[\n{lines}\n]\n"


def main() -> int:
    want = json.loads(FIXTURE.read_text())
    differences = 0
    for group in GroupId:
        for p in PRIMES:
            start = time.perf_counter()
            got = _entries(group, p, job_counts(group, p))
            elapsed = time.perf_counter() - start
            expected = [e for e in want if (e["group"], e["p"]) == (str(group), p)]
            hits = sum(e["hits"] for e in got)
            ok = got == expected
            print(
                f"{group} p={p}: {hits} hits, {len(got)} (label, transform)"
                f" entries, {'as pinned' if ok else 'DIFFERENT'}, {elapsed:.1f} s"
            )
            if not ok:
                differences += 1
                for e in got:
                    if e not in expected:
                        print(f"  now    {e}")
                for e in expected:
                    if e not in got:
                        print(f"  pinned {e}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
