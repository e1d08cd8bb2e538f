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

from . import __version__, existence, lemmas, subgrp, witness
from .exactalg import is_prime
from .rootdata import GroupId

ALL_SUITES = ("systems", "tables", "search", "lemmas", "witnesses", "existence")


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
        if self.q_max is not None and self.q_max < 0:
            raise ConfigInvalid("q_max must be >= 0")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ConfigInvalid(f"unknown suite {s!r}")
        if len(set(self.suites)) != len(self.suites):
            raise ConfigInvalid(f"repeated suite in {list(self.suites)}")
        if self.fmt not in ("text", "machine"):
            raise ConfigInvalid(f"unknown format {self.fmt!r}")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigInvalid("budget must be positive")
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
    partial: bool = False
    config: dict = field(default_factory=dict)

    def add(self, suite: str, rec: dict) -> None:
        case = rec["case"]
        group, _, rest = case.partition("/")
        self.records.append(
            {
                "suite": suite,
                "group": group,
                "case": rest or case,
                "instantiation": rec.get("instantiation", "-"),
                "status": rec["status"],
                "detail": rec.get("detail", ""),
            }
        )

    def finalize(self) -> None:
        self.records.sort(
            key=lambda r: (r["suite"], r["group"], r["case"], r["instantiation"])
        )

    def counts(self) -> dict:
        out = {"pass": 0, "discrepant": 0, "fail": 0}
        for r in self.records:
            out[r["status"]] += 1
        return out

    @property
    def ok(self) -> bool:
        return all(r["status"] != "fail" for r in self.records)

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
            c = {"pass": 0, "discrepant": 0, "fail": 0}
            for r in recs:
                c[r["status"]] += 1
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


def _search_jobs(config: RunConfig):
    caps = {GroupId.SL3: 5, GroupId.SP4: 3, GroupId.G2: 3}
    for group in (GroupId.SL3, GroupId.SP4, GroupId.G2):
        for p in sorted(config.primes):
            if p <= caps[group]:
                q_max = config.q_max if config.q_max is not None else p * p
                yield group, p, q_max


def run_suite(config: RunConfig) -> Report:
    """Execute the selected suites and assemble the deterministic report."""
    config.validate()
    report = Report(config=config.echo())

    if "systems" in config.suites:
        for group in GroupId:
            rec = subgrp.verify_system(group)
            detail = (
                "; ".join(
                    f"eq{eq} {key}: derived {dv} vs recorded {pv}"
                    for eq, key, dv, pv in rec["diffs"]
                )
                if rec["diffs"]
                else "matches the recorded system term for term"
            )
            report.add(
                "systems",
                {
                    "case": f"{group}/system",
                    "instantiation": "-",
                    "status": rec["status"],
                    "detail": detail,
                },
            )

    if "tables" in config.suites:
        for row in subgrp.load_case_rows():
            for rec in subgrp.verify_case(row, config.primes, config.f_max):
                report.add("tables", rec)

    if "search" in config.suites:
        for group, p, q_max in _search_jobs(config):
            try:
                hits = subgrp.search_solutions(group, p, q_max, config.budget_seconds)
            except subgrp.BudgetExceeded:
                report.partial = True
                report.add(
                    "search",
                    {
                        "case": f"{group}/search",
                        "instantiation": f"p={p},q_max={q_max}",
                        "status": "fail",
                        "detail": "budget exceeded before completing enumeration",
                    },
                )
                continue
            unmatched = [
                sol for sol in hits if subgrp.match_to_table(sol) is None
            ]
            status = "pass" if not unmatched else "fail"
            detail = f"{len(hits)} solutions, {len(unmatched)} unmatched"
            if unmatched:
                s, t = unmatched[0]
                detail += f"; first: c={s.coeffs} q={s.exps}"
            report.add(
                "search",
                {
                    "case": f"{group}/search",
                    "instantiation": f"p={p},q_max={q_max}",
                    "status": status,
                    "detail": detail,
                },
            )

    if "lemmas" in config.suites:
        for case in range(1, 7):
            for p in sorted(config.primes):
                r = lemmas.check_poly_lemma(case, p)
                report.add(
                    "lemmas",
                    {
                        "case": f"arith/{r.case}",
                        "instantiation": f"p={p}",
                        "status": "pass" if r.ok else "fail",
                        "detail": r.note
                        or f"{r.solutions} solutions, set equality holds",
                    },
                )
        for expr in range(1, 6):
            for p in sorted(config.primes):
                r = lemmas.check_ppower_lemma(expr, p)
                report.add(
                    "lemmas",
                    {
                        "case": f"arith/{r.case}",
                        "instantiation": f"p={p}",
                        "status": "pass" if r.ok else "fail",
                        "detail": f"{r.solutions} integral values, none a power",
                    },
                )

    if "witnesses" in config.suites:
        for wrow in witness.load_witness_rows():
            for rec in witness.verify_witness(wrow):
                report.add("witnesses", rec)
        for case in sorted(witness._G2_WEIGHT_ROWS, key=lambda c: c[0]):
            for case_id in case:
                crow = witness._case_row(GroupId.G2, case_id)
                p = next(
                    (p for p in (2, 3, 5, 7) if crow.allows_p(p)), None
                )
                f_assign = {s: 0 for s in crow.q_symbols}
                report.add("witnesses", witness.verify_weight_row(case_id, p, f_assign))
        for group in GroupId:
            report.add("witnesses", witness.check_principal_a1(group))
        for group, case in witness.membership_cases():
            report.add("witnesses", witness.check_membership(group, case))

    if "existence" in config.suites:
        for rec in existence.existence_records(config.primes):
            report.add("existence", rec)

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
