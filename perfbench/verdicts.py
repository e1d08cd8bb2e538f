"""Check a machine report against the reference verdicts of its workload.

A reference is the list of ``[suite, group, case, instantiation, status,
hits]`` entries of a report made at a known-good commit; ``hits`` is the
solution count of a search record and ``None`` elsewhere.  A record fails
when its status is ``fail``, when its reference entry is missing from the
report, or when the report gives it another status or hit count.  A record
the reference does not know is listed but does not fail, so that added
records (uncapped searches, funnel counts) do not read as failures while
a changed verdict does.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

_HITS = re.compile(r"^(\d+) solutions\b")


def report_records(text: str) -> list[dict]:
    """The records of a machine report, without its metadata line."""
    lines = text.splitlines()
    if not lines or '"engine":"rank2chev"' not in lines[0]:
        raise ValueError("not a rank2chev machine report")
    return [json.loads(line) for line in lines[1:] if line]


def _key(entry) -> tuple[str, str, str, str]:
    return tuple(entry[:4])


def entry(rec: dict) -> list:
    """The reference entry of one report record."""
    hits = None
    if rec["suite"] == "search":
        m = _HITS.match(rec["detail"])
        hits = int(m.group(1)) if m else None
    return [
        rec["suite"], rec["group"], rec["case"], rec["instantiation"],
        rec["status"], hits,
    ]


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extras: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.extras += other.extras


def check(reference: list[list], text: str) -> Verdict:
    """Compare a machine report with reference entries, record by record."""
    found: dict[tuple, list] = {}
    verdict = Verdict()
    for rec in report_records(text):
        e = entry(rec)
        if _key(e) in found:
            verdict.failed += 1
            verdict.problems.append(f"duplicate record {'/'.join(_key(e))}")
        found[_key(e)] = e
    for ref in reference:
        key = "/".join(_key(ref))
        got = found.pop(_key(ref), None)
        verdict.attempted += 1
        if got is None:
            verdict.failed += 1
            verdict.problems.append(f"missing {key} (reference {ref[4]})")
        elif got[4] == "fail":
            verdict.failed += 1
            verdict.problems.append(f"fail {key}")
        elif got[4:] != ref[4:]:
            verdict.failed += 1
            verdict.problems.append(
                f"changed {key}: status/hits {got[4:]} vs reference {ref[4:]}"
            )
    for e in found.values():
        verdict.attempted += 1
        if e[4] == "fail":
            verdict.failed += 1
            verdict.problems.append(f"fail {'/'.join(_key(e))}")
        else:
            verdict.extras.append(f"{'/'.join(_key(e))} {e[4]}")
    return verdict


def differing_lines(a: str, b: str) -> int:
    """How many lines of two reports differ, 0 only for identical reports."""
    if a == b:
        return 0
    la, lb = a.splitlines(), b.splitlines()
    diff = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    return max(diff, 1)
