"""Run configuration, suite execution, and deterministic reporting.

A report is a sorted list of records {suite, group, case, instantiation,
status, detail} plus summary counts and a config echo.  Status "fail" is
reserved for contradictions with the recorded mathematical claims;
"discrepant" marks printed-value mismatches that were resolved (and are
listed in the data files or fallback details).  Two runs with the same
config produce byte-identical machine reports: no timestamps, no floats,
stable ordering.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import inf

from . import __version__, lemmas, subgrp
from .exactalg import ExponentOverflow, is_prime
from .rootdata import GroupId
from .subgrp import record

_BUDGET_EXCEEDED = "budget exceeded before completing enumeration"


def _search_jobs(config: RunConfig):
    caps = {GroupId.SL3: 5, GroupId.SP4: 3, GroupId.G2: 3}
    for group in (GroupId.SL3, GroupId.SP4, GroupId.G2):
        for p in sorted(config.primes):
            if p <= caps[group]:
                q_max = config.q_max if config.q_max is not None else p * p
                yield group, p, q_max


def _systems(config: RunConfig):
    for group in GroupId:
        yield subgrp.verify_system(group)


def _tables(config: RunConfig):
    for row in subgrp.load_case_rows():
        yield from subgrp.verify_case(row, config.primes, config.f_max)


def _search(config: RunConfig):
    for group, p, q_max in _search_jobs(config):
        case, inst = f"{group}/search", f"p={p},q_max={q_max}"
        try:
            hits = subgrp.search_solutions(group, p, q_max, config.budget_seconds)
            unmatched = [sol for sol in hits if subgrp.match_to_table(sol) is None]
        except subgrp.BudgetExceeded:
            yield record(case, "fail", _BUDGET_EXCEEDED, inst)
            continue
        except ExponentOverflow as exc:
            yield record(case, "fail", f"stopped at EXPONENT_BOUND: {exc}", inst)
            continue
        detail = f"{len(hits)} solutions, {len(unmatched)} unmatched"
        if unmatched:
            s, t = unmatched[0]
            detail += f"; first: c={s.coeffs} q={s.exps}"
        yield record(case, "fail" if unmatched else "pass", detail, inst)


def _lemmas(config: RunConfig):
    for case in range(1, 7):
        for p in sorted(config.primes):
            r = lemmas.check_poly_lemma(case, p)
            detail = r.note or f"{r.solutions} solutions, set equality " + (
                "holds" if r.ok else "fails; " + _set_difference(r)
            )
            yield record(f"arith/{r.case}", _status(r.ok), detail, f"p={p}")
    for expr in range(1, 6):
        for p in sorted(config.primes):
            r = lemmas.check_ppower_lemma(expr, p)
            detail = f"{r.solutions} integral values, " + (
                "none a power"
                if r.ok
                else f"{len(r.extra)} a power, first (f, value, m) = {r.extra[0]}"
            )
            yield record(f"arith/{r.case}", _status(r.ok), detail, f"p={p}")


def _set_difference(r: lemmas.LemmaReport) -> str:
    """How many solutions violate the conclusion and how many conclusion
    tuples do not solve, each with its first tuple."""
    return "; ".join(
        f"{len(tuples)} {name}" + (f", first {tuples[0]}" if tuples else "")
        for name, tuples in (("extra", r.extra), ("missing", r.missing))
    )


def _witnesses(config: RunConfig):
    from . import witness  # compiled only by runs that check witnesses

    # the witnesses read the case rows: a corrupt case table is reported as
    # itself, before any witness row that would name it
    subgrp.load_case_rows()
    for wrow in witness.load_witness_rows():
        yield from witness.verify_witness(wrow)
    yield from witness.weight_row_records()
    for group in GroupId:
        yield witness.check_principal_a1(group)
    for group, case in witness.membership_cases():
        yield witness.check_membership(group, case)


def _existence(config: RunConfig):
    from . import existence  # compiled only by runs that check existence

    return existence.existence_records(config.primes)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# Each suite's records, in the order the suites run.
SUITES = {
    "systems": _systems,
    "tables": _tables,
    "search": _search,
    "lemmas": _lemmas,
    "witnesses": _witnesses,
    "existence": _existence,
}
ALL_SUITES = tuple(SUITES)


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    primes: tuple[int, ...] = (2, 3, 5)
    f_max: int = 2
    q_max: int | None = None  # None: p^2 per prime in the search
    suites: tuple[str, ...] = ALL_SUITES
    budget_seconds: float | None = None
    out: str | None = None
    fmt: str = "text"

    def validate(self) -> None:
        if not self.primes:
            raise ConfigInvalid("at least one prime is required")
        for p in self.primes:
            if not is_prime(p):
                raise ConfigInvalid(f"{p} is not prime")
        if len(set(self.primes)) != len(self.primes):
            raise ConfigInvalid(f"repeated prime in {list(self.primes)}")
        if self.f_max < 0:
            raise ConfigInvalid("f_max must be >= 0")
        if self.q_max is not None and self.q_max < 1:
            raise ConfigInvalid("q_max must be >= 1")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ConfigInvalid(f"unknown suite {s!r}")
        if len(set(self.suites)) != len(self.suites):
            raise ConfigInvalid(f"repeated suite in {list(self.suites)}")
        if self.fmt not in ("text", "machine"):
            raise ConfigInvalid(f"unknown format {self.fmt!r}")
        if self.budget_seconds is not None and not 0 < self.budget_seconds < inf:
            raise ConfigInvalid("budget must be finite and positive")
        if self.out and not _writable(self.out):
            raise ConfigInvalid(f"cannot write the report to {self.out!r}")

    def echo(self) -> dict:
        """The config in canonical order: the same work echoes the same bytes."""
        return {
            "primes": sorted(self.primes),
            "f_max": self.f_max,
            "q_max": self.q_max,
            "suites": [s for s in ALL_SUITES if s in self.suites],
            "budget_seconds": self.budget_seconds,
        }


def _writable(path: str) -> bool:
    """Whether a file can be written at path without making a directory."""
    if os.path.exists(path):
        return os.path.isfile(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


@dataclass
class Report:
    records: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def add(self, suite: str, rec: dict) -> None:
        """File a ``subgrp.record`` under its suite, its case split at the
        first "/" into group and case."""
        group, _, case = rec["case"].partition("/")
        self.records.append(
            {**rec, "suite": suite, "group": group, "case": case or group}
        )

    def finalize(self) -> None:
        self.records.sort(
            key=lambda r: (r["suite"], r["group"], r["case"], r["instantiation"])
        )

    def counts(self) -> dict:
        return _tally(self.records)

    @property
    def ok(self) -> bool:
        return all(r["status"] != "fail" for r in self.records)

    @property
    def partial(self) -> bool:
        """Whether a search ran out of budget before finishing."""
        return any(r["detail"] == _BUDGET_EXCEEDED for r in self.records)

    def machine_lines(self) -> list[str]:
        meta = {
            "engine": "rank2chev",
            "version": __version__,
            "config": self.config,
            "counts": self.counts(),
            "partial": self.partial,
        }
        lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
        for r in self.records:
            lines.append(json.dumps(r, sort_keys=True, separators=(",", ":")))
        return lines

    def text_lines(self) -> list[str]:
        counts = self.counts()
        lines = [
            f"rank2chev {__version__}",
            f"config: {json.dumps(self.config, sort_keys=True)}",
            f"records: {len(self.records)}  pass: {counts['pass']}  "
            f"discrepant: {counts['discrepant']}  fail: {counts['fail']}"
            + ("  [PARTIAL: budget exceeded]" if self.partial else ""),
            "",
        ]
        by_suite: dict[str, list] = {}
        for r in self.records:
            by_suite.setdefault(r["suite"], []).append(r)
        for suite in sorted(by_suite):
            recs = by_suite[suite]
            c = _tally(recs)
            lines.append(
                f"[{suite}] {len(recs)} checks: {c['pass']} pass, "
                f"{c['discrepant']} discrepant, {c['fail']} fail"
            )
            for r in recs:
                if r["status"] != "pass":
                    lines.append(
                        f"  {r['status'].upper():10s} {r['group']}/{r['case']} "
                        f"@ {r['instantiation']}: {r['detail']}"
                    )
        return lines


def _tally(records) -> dict:
    out = {"pass": 0, "discrepant": 0, "fail": 0}
    for r in records:
        out[r["status"]] += 1
    return out


def run_suite(config: RunConfig) -> Report:
    """Execute the selected suites and assemble the deterministic report.

    A check that raises AssertionError ends its suite with one fail record
    naming the exception; the records before it and the other suites stay.
    """
    config.validate()
    report = Report(config=config.echo())
    for name, suite in SUITES.items():
        if name not in config.suites:
            continue
        try:
            for rec in suite(config):
                report.add(name, rec)
        except AssertionError as exc:
            detail = f"{type(exc).__name__}: {exc}; the {name} suite stopped here"
            report.add(name, record("suite/stopped", "fail", detail))
    report.finalize()
    return report


def write_report(report: Report, config: RunConfig) -> str:
    lines = (
        report.machine_lines() if config.fmt == "machine" else report.text_lines()
    )
    text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
