"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time

import pytest

import run
import verdicts
from tracer import TARGETS, Tracer

sys.path.insert(0, str(run.ROOT / "src"))


def _report(entries) -> str:
    """A machine report whose records carry the given reference entries."""
    lines = ['{"engine":"rank2chev","version":"test"}']
    for suite, group, case, inst, status, hits in entries:
        detail = f"{hits} solutions, 0 unmatched" if hits is not None else "ok"
        lines.append(json.dumps({
            "suite": suite, "group": group, "case": case,
            "instantiation": inst, "status": status, "detail": detail,
        }, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _reference(name):
    with open(run.BENCH / "reference" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["records"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_reference_matches_its_own_report(name):
    ref = _reference(name)
    v = verdicts.check(ref, _report(ref))
    assert (v.attempted, v.failed, v.problems, v.extras) == (len(ref), 0, [], [])


def test_one_flipped_status_is_a_failed_operation():
    ref = _reference("tables-deep")
    flipped = [list(e) for e in ref]
    i = next(i for i, e in enumerate(flipped) if e[4] == "discrepant")
    flipped[i][4] = "pass"
    v = verdicts.check(flipped, _report(ref))
    assert v.failed == 1 and v.attempted == len(ref)
    assert v.problems[0].startswith("changed tables/SL3/case2/")


def test_changed_hit_count_missing_and_failed_records_fail():
    ref = _reference("default")
    report = [list(e) for e in ref]
    search = next(e for e in report if e[0] == "search")
    search[5] += 1
    report.pop()
    report[0][4] = "fail"
    v = verdicts.check(ref, _report(report))
    assert v.failed == 3
    assert sorted(p.split()[0] for p in v.problems) == ["changed", "fail", "missing"]


def test_extra_record_is_listed_not_failed():
    ref = _reference("algebra")
    extra = ["search", "G2", "search", "p=5,q_max=25", "pass", 2784]
    v = verdicts.check(ref, _report([*ref, extra]))
    assert v.failed == 0 and v.attempted == len(ref) + 1
    assert v.extras == ["search/G2/search/p=5,q_max=25 pass"]
    v = verdicts.check(ref, _report([*ref, extra[:4] + ["fail", None]]))
    assert v.failed == 1


def test_differing_lines():
    a = _report(_reference("algebra"))
    assert verdicts.differing_lines(a, a) == 0
    assert verdicts.differing_lines(a, a.replace('"pass"', '"fail"', 1)) == 1
    assert verdicts.differing_lines(a, a + "x\n") == 1


def _bindings():
    """Every binding in rank2chev modules and in the classes the tracer patches."""
    import rank2chev.cli  # noqa: F401
    from rank2chev import existence, exactalg

    spaces = [m for n, m in sys.modules.items() if n.startswith("rank2chev")]
    spaces += [exactalg.PolyFp, exactalg.PolyMatrix, existence._ExtSpan]
    return {(id(s), k): v for s in spaces for k, v in vars(s).items()}


def test_tracer_is_alias_complete_and_restores():
    from rank2chev import cli, exactalg, lemmas, report, rootdata, subgrp, witness

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for alias, home in [
            (subgrp.conjugate_by_word, rootdata.conjugate_by_word),
            (witness.rows_for_group, subgrp.rows_for_group),
            (witness.u_matrix, subgrp.u_matrix),
            (lemmas.binomial_coeffs_modp, subgrp.binomial_coeffs_modp),
            (cli.run_suite, report.run_suite),
            (exactalg.PolyFp.__radd__, exactalg.PolyFp.__add__),
            (exactalg.PolyFp.__rmul__, exactalg.PolyFp.__mul__),
        ]:
            assert alias is home and hasattr(home, "__wrapped__")
        # lru_cache still caches behind the wrapper
        info = lemmas.binomial_coeffs_modp.cache_info()
        lemmas.binomial_coeffs_modp(12345, 7)
        lemmas.binomial_coeffs_modp(12345, 7)
        assert lemmas.binomial_coeffs_modp.cache_info().hits == info.hits + 1
        stats = tracer.stats["subgrp.binomial_coeffs_modp"]
        assert stats[0] == 2
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_traced_report_equals_untraced(tmp_path):
    from rank2chev import cli

    args = ["--suite", "systems", "--format", "machine"]
    assert cli.main(args + ["--out", str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(args + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "plain").read_bytes() == (tmp_path / "traced").read_bytes()
    trace = tracer.to_json()
    fns = trace["functions"]
    assert fns["subgrp.verify_system"]["calls"] == 3
    assert fns["report.run_suite"]["calls"] == 1
    root = fns["report.run_suite"]
    assert 0 <= root["self_s"] <= root["total_s"]
    metrics = run.layer_metrics(trace)
    assert metrics["subgrp.match_to_table.calls"] == 0
    assert metrics["suite.systems.s"] > 0 and metrics["suite.search.s"] == 0


def test_benchmark_json_names_what_run_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    tracer = Tracer()
    for name, *_ in TARGETS:
        tracer.stats[name] = [0, 0.0, 0.0]
    tracer.counters = {name: 0 for name, _, _, hook in TARGETS if hook}
    names = [*run.layer_metrics(tracer.to_json()), "trace_overhead_s"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: run.unit(n) for n in names
    }


def test_child_is_measured_and_killed_at_the_deadline(tmp_path):
    child = run.run_child([sys.executable, "-c", "pass"], {}, tmp_path / "err",
                          time.monotonic() + 60)
    assert child.code == 0 and child.wall_s > 0 and child.rss_mb > 0
    start = time.monotonic()
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], {},
                          tmp_path / "err", time.monotonic() + 0.5)
    assert child.code is None and time.monotonic() - start < 10
