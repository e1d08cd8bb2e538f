"""Benchmark of the rank2chev CLI: end-to-end time, set-up time and memory,
or, with ``--trace 1``, the time and counts of each layer.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the engine is imported from
``src/``.  Each workload is a fixed CLI configuration run closed-loop by one
client: one fresh child process at a time, the next one only after the
previous has exited.  ``--trace 0`` first takes ``SETUP_SAMPLES`` set-up
samples, each in a fresh interpreter, then runs the workload until
``--seconds`` would be exceeded by one more child (at least one child).
``--trace 1`` runs it once untraced and once under ``tracer.py``.

Every report is checked against ``reference/<workload>.json`` (see
``verdicts.py``) and against every other report of the same engine source
and arguments: the other children of the run, and the first such report
kept in ``perfbench/.runs/reports`` by an earlier run in this checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import verdicts  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUNS = BENCH / ".runs"
ENGINE = ROOT / "src" / "rank2chev"

SETUP_SAMPLES = 21
# A run must end within 180 s; no child is started or waited for past this.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    primes: str  # the primes the run uses, for the set-up probe
    flags: tuple[str, ...]
    suites: tuple[str, ...] = ()  # empty: every suite

    def argv(self, seed: int) -> list[str]:
        """CLI arguments; the seed orders the ``--suite`` flags."""
        suites = list(self.suites)
        random.Random(seed).shuffle(suites)
        return [*self.flags, *(a for s in suites for a in ("--suite", s))]


# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("default", "2,3,5", ()),
        Workload(
            "tables-deep", "2,3,5,7", ("--primes", "2,3,5,7", "--f-max", "3"),
            ("tables",),
        ),
        Workload(
            "algebra", "2,3,5", (),
            ("systems", "lemmas", "witnesses", "existence"),
        ),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Layer functions reported with .calls, .total_s and .self_s.
LAYER_FUNCTIONS = (
    "subgrp.match_to_table",
    "rootdata.conjugate_by_word",
    "subgrp.normal_form_factorize",
    "subgrp.load_case_rows",
    "subgrp.search_solutions",
    "subgrp._enumerate_additive",
    "subgrp.check_additive",
    "subgrp.solve_torus",
    "subgrp.verify_case",
    "exactalg.PolyMatrix.__mul__",
    "exactalg.PolyFp.__mul__",
    "exactalg.PolyFp.__add__",
    "chevrep.build_rep",
    "lemmas.check_poly_lemma",
    "lemmas.check_ppower_lemma",
    "existence.burnside_irreducible",
    "witness.verify_witness",
    "witness._fallback_witness",
)

# The entry points each suite calls from report.run_suite.
SUITE_ENTRIES = {
    "systems": ("subgrp.verify_system",),
    "tables": ("subgrp.load_case_rows", "subgrp.verify_case"),
    "search": ("subgrp.search_solutions", "subgrp.match_to_table"),
    "lemmas": ("lemmas.check_poly_lemma", "lemmas.check_ppower_lemma"),
    "witnesses": (
        "witness.load_witness_rows",
        "witness.verify_witness",
        "witness._case_row",
        "witness.verify_weight_row",
        "witness.check_principal_a1",
        "witness.membership_cases",
        "witness.check_membership",
    ),
    "existence": ("existence.existence_records",),
}


class ChildTimeout(Exception):
    pass


@dataclass
class Child:
    code: int | None  # None: killed at the run deadline
    wall_s: float
    rss_mb: float
    stderr: str


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(cmd: list[str], env: dict, stderr_path: Path, deadline: float) -> Child:
    """Run one child to completion; wall time from spawn to exit, its ru_maxrss."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return Child(None, 0.0, 0.0, "not started: run deadline reached")
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if not isinstance(exc, ChildTimeout):
                raise
            return Child(None, time.perf_counter() - start, 0.0, "killed at run deadline")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = stderr_path.read_text(errors="replace")[-2000:]
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RANK2CHEV_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def engine_digest(argv: list[str]) -> str:
    """Identifies the engine source and the arguments a report came from."""
    h = hashlib.sha256("\0".join(argv).encode())
    for path in sorted(ENGINE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(ENGINE)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """One benchmark run of one workload: its children, checks and verdict."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.argv = workload.argv(seed)
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        with open(BENCH / "reference" / f"{workload.name}.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)["records"]
        self.verdict = verdicts.Verdict()
        self.reports: list[str] = []
        self.count = 0

    def workload_child(self, traced: bool = False) -> tuple[Child, str | None]:
        """Run the workload once, check its report, return it (None if absent)."""
        self.count += 1
        out = self.workdir / f"report{self.count}.jsonl"
        cmd = [sys.executable]
        if traced:
            cmd += [str(BENCH / "tracer.py"), str(self.workdir / "trace.json"), "--"]
        else:
            cmd += ["-m", "rank2chev.cli"]
        cmd += [*self.argv, "--format", "machine", "--out", str(out)]
        child = run_child(cmd, self.env, self.workdir / "stderr.txt", self.deadline)
        text = out.read_text(encoding="utf-8") if out.is_file() else None
        if text is None:
            self.fail(len(self.reference), f"child {self.count} wrote no report "
                      f"(exit {child.code}): {child.stderr.strip()[-500:]}")
            return child, None
        try:
            v = verdicts.check(self.reference, text)
        except ValueError as exc:
            self.fail(len(self.reference), f"child {self.count}: {exc}")
            return child, None
        if child.code != 0:
            v.problems.append(f"child {self.count} exited with {child.code}")
            v.failed = v.attempted
        self.verdict.add(v)
        self.compare(text)
        return child, text

    def fail(self, n: int, problem: str) -> None:
        self.verdict.attempted += n
        self.verdict.failed += n
        self.verdict.problems.append(problem)

    def compare(self, text: str) -> None:
        """Fail the records in which this report differs from the kept one."""
        if not self.reports:
            kept = RUNS / "reports" / f"{engine_digest(self.argv)}.jsonl"
            if kept.is_file():
                self.reports.append(kept.read_text(encoding="utf-8"))
            else:
                kept.parent.mkdir(parents=True, exist_ok=True)
                tmp = kept.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, kept)
                self.reports.append(text)
        n = verdicts.differing_lines(self.reports[0], text)
        if n:
            self.verdict.failed += n
            self.verdict.problems.append(
                f"report of child {self.count} differs from an earlier report "
                f"of the same engine and arguments in {n} lines"
            )

    def setup_samples(self) -> list[float]:
        """Set-up times of fresh interpreters, after one unrecorded warm-up."""
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), self.workload.primes]
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            if time.monotonic() > self.deadline:
                break
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
            if proc.returncode != 0:
                self.fail(1, f"set-up probe failed: {proc.stderr.strip()[-500:]}")
                return samples
            if i:
                samples.append(float(proc.stdout.split()[-1]))
        return samples

    def end_to_end(self, seconds: float) -> dict:
        setup = self.setup_samples()
        children: list[Child] = []
        start = time.monotonic()
        while not children or (
            time.monotonic() - start + statistics.median(c.wall_s for c in children)
            <= seconds
        ):
            child, text = self.workload_child()
            if text is None or child.code is None:
                break
            children.append(child)
        print(f"# {self.workload.name}: {len(children)} workload children, "
              f"{len(setup)} set-up samples")
        if not children or not setup:
            return {}
        return {
            "wall_s": statistics.median(c.wall_s for c in children),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        }

    def per_layer(self) -> dict:
        plain, plain_text = self.workload_child()
        traced, traced_text = self.workload_child(traced=True)
        trace_path = self.workdir / "trace.json"
        if plain_text is None or traced_text is None or not trace_path.is_file():
            return {}
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        metrics = layer_metrics(trace)
        metrics["trace_overhead_s"] = traced.wall_s - plain.wall_s
        # a hit is matched exactly once, so match_to_table runs once per hit
        hits = sum(
            e[5] or 0 for e in map(verdicts.entry, verdicts.report_records(traced_text))
            if e[0] == "search"
        )
        if metrics["subgrp.match_to_table.calls"] != hits:
            self.fail(1, f"match_to_table ran {metrics['subgrp.match_to_table.calls']}"
                      f" times for {hits} search hits")
        return metrics


def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics of one trace written by tracer.py."""
    fns = trace["functions"]
    counters = trace["counters"]
    out: dict = {}
    for name in LAYER_FUNCTIONS:
        f = fns[name]
        out[f"{name}.calls"] = f["calls"]
        out[f"{name}.total_s"] = f["total_s"]
        out[f"{name}.self_s"] = f["self_s"]
    edges = {(e["caller"], e["callee"]): e for e in trace["edges"]}
    matches = fns["subgrp.match_to_table"]["calls"]
    conj = edges.get(("subgrp.match_to_table", "rootdata.conjugate_by_word"))
    out["match.conjugations_per_hit"] = conj["calls"] / matches if matches and conj else 0.0
    candidates = counters["subgrp._enumerate_additive"]
    hits = counters["subgrp.search_solutions"]
    out["search.candidates"] = candidates
    out["search.hits"] = hits
    out["search.hit_ratio"] = hits / candidates if candidates else 0.0
    inserts = fns["existence._ExtSpan.insert"]["calls"]
    out["existence.span_inserts"] = inserts
    out["existence.span_insert_useful_ratio"] = (
        counters["existence._ExtSpan.insert"] / inserts if inserts else 0.0
    )
    for suite, entries in SUITE_ENTRIES.items():
        out[f"suite.{suite}.s"] = sum(
            (edges[("report.run_suite", e)]["span_s"]
             for e in entries if ("report.run_suite", e) in edges),
            0.0,
        )
    return out


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_hit"):
        return "ratio"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[verdicts.Verdict, dict]:
    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    try:
        run = Run(WORKLOADS[name], seed, workdir, time.monotonic() + RUN_DEADLINE_S)
        metrics = run.per_layer() if trace else run.end_to_end(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run.verdict, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ENGINE / "cli.py").is_file():
        print(f"no engine source at {ENGINE}; run from a rank2chev checkout",
              file=sys.stderr)
        return 2

    print("# env " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "engine": engine_digest([])[:16],
    }, sort_keys=True))
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    total = verdicts.Verdict()
    metrics: dict = {}
    for name, trace in plan:
        verdict, values = measure(name, args.seed, args.seconds, trace)
        total.add(verdict)
        print(f"# {name} trace={int(trace)} seed={args.seed}: "
              f"{verdict.attempted} records checked, {verdict.failed} failed, "
              f"{len(verdict.extras)} not in the reference")
        for line in verdict.problems[:20] + verdict.extras[:20]:
            print(f"#   {line}")
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in values.items():
            print(f"{name:12s} {key:44s} {value!r} {unit(key)}")
            metrics[prefix + key] = {"value": value, "unit": unit(key)}
    print(json.dumps({
        "correct": total.failed == 0 and bool(metrics),
        "attempted": max(total.attempted, 1),
        "failed": total.failed if metrics else max(total.failed, 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
