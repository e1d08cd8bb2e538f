"""Command-line driver.

Flags mirror environment variables with the RANK2CHEV_ prefix (flags win):
RANK2CHEV_PRIMES, RANK2CHEV_F_MAX, RANK2CHEV_Q_MAX, RANK2CHEV_SUITE,
RANK2CHEV_BUDGET_SECONDS, RANK2CHEV_OUT, RANK2CHEV_FORMAT.

Exit codes: 0 all checks pass (discrepancies allowed), 1 mathematical
failure, 2 invalid configuration or corrupt data file, 3 budget exceeded
(partial report written).
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import ALL_SUITES, ConfigInvalid, RunConfig, run_suite, write_report
from .subgrp import DataFileCorrupt

_ENV_PREFIX = "RANK2CHEV_"


def _env(name: str) -> str | None:
    return os.environ.get(_ENV_PREFIX + name)


def build_parser() -> argparse.ArgumentParser:
    # Environment defaults stay strings so that argparse converts them with
    # the flag's type: a malformed value is a usage error (exit 2).
    parser = argparse.ArgumentParser(
        prog="rank2chev",
        description=(
            "Exact-arithmetic verification of one-parameter subgroup "
            "classifications in the rank-2 Chevalley groups SL3, Sp4, G2."
        ),
    )
    parser.add_argument(
        "--primes",
        default=_env("PRIMES") or "2,3,5",
        help="comma-separated primes (default 2,3,5)",
    )
    parser.add_argument(
        "--f-max",
        type=int,
        default=_env("F_MAX") or "2",
        help="largest Frobenius exponent f for table instantiations",
    )
    parser.add_argument(
        "--q-max",
        type=int,
        default=_env("Q_MAX") or None,
        help="search exponent bound (default: p^2 per prime)",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=ALL_SUITES,
        default=None,
        help="suite to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=_env("BUDGET_SECONDS") or None,
        help="per-search time cap; exceeded budgets yield a partial report",
    )
    parser.add_argument(
        "--out", default=_env("OUT"), help="write the report to this path"
    )
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default=_env("FORMAT") or "text",
        help="text summary or canonical machine (JSON lines) report",
    )
    return parser


def config_from_args(args) -> RunConfig:
    try:
        primes = tuple(int(t) for t in str(args.primes).split(",") if t.strip())
    except ValueError as exc:
        raise ConfigInvalid(f"bad primes {args.primes!r}") from exc
    suites = tuple(args.suite) if args.suite else (
        tuple(t for t in (_env("SUITE") or "").split(",") if t) or ALL_SUITES
    )
    return RunConfig(
        primes=primes,
        f_max=args.f_max,
        q_max=args.q_max,
        suites=suites,
        budget_seconds=args.budget_seconds,
        out=args.out,
        fmt=args.format,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run_suite(config)
    except ConfigInvalid as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return 2
    except DataFileCorrupt as exc:
        print(f"data file corrupt: {exc}", file=sys.stderr)
        return 2
    text = write_report(report, config)
    if not config.out:
        sys.stdout.write(text)
    else:
        print(f"report written to {config.out}")
    if report.partial:
        return 3
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
