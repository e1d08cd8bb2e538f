import json
import os
import pathlib
import re
import subprocess
import sys
from importlib import resources

import pytest

from rank2chev import cli, lemmas, report, subgrp, witness
from rank2chev.report import ConfigInvalid, RunConfig, run_suite
from rank2chev.rootdata import GroupId


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        RunConfig(primes=(4,)).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(primes=()).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(suites=("bogus",)).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(fmt="yaml").validate()
    RunConfig().validate()


def test_cli_rejects_bad_primes(capsys):
    assert cli.main(["--primes", "4"]) == 2
    assert "config invalid" in capsys.readouterr().err
    assert cli.main(["--primes", "3,3"]) == 2
    assert "config invalid" in capsys.readouterr().err


def test_cli_rejects_repeated_suite(capsys):
    assert cli.main(["--suite", "lemmas", "--suite", "lemmas"]) == 2
    assert "config invalid" in capsys.readouterr().err
    with pytest.raises(ConfigInvalid):
        RunConfig(suites=("lemmas", "lemmas")).validate()


def test_cli_rejects_unwritable_out_before_running(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(report.subgrp, "verify_system", ran.append)
    for out in (tmp_path / "no" / "such" / "r.jsonl", tmp_path):
        assert cli.main(["--suite", "systems", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config invalid: cannot write the report to")
        assert err.count("\n") == 1
    assert not ran
    assert not (tmp_path / "no").exists()


def test_failed_principal_claim_is_a_fail_record(tmp_path, monkeypatch):
    # G2's printed rescaling with gamma_0 = 2: the run still writes its
    # report, with the claim as a fail record, and exits 1
    n, gamma = witness._PRINCIPAL_DATA[GroupId.G2]
    monkeypatch.setitem(witness._PRINCIPAL_DATA, GroupId.G2, (n, (2,) + gamma[1:]))
    out = tmp_path / "r.jsonl"
    args = ["--suite", "witnesses", "--primes", "2", "--format", "machine"]
    assert cli.main(args + ["--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    failed = [r for r in records if r["status"] == "fail"]
    assert failed == [
        {
            "suite": "witnesses",
            "group": "G2",
            "case": "case1/principal-rank1",
            "instantiation": "p=7,f[q1]=0",
            "status": "fail",
            "detail": "G2: printed rescaling does not match the rank-1 model",
        }
    ]


def _failing_run(args, tmp_path) -> list[dict]:
    """The records of a run that must exit 1 and still write its report."""
    out = tmp_path / "r.jsonl"
    assert cli.main(args + ["--format", "machine", "--out", str(out)]) == 1
    return [json.loads(line) for line in out.read_text().splitlines()[1:]]


def _faulted_witnesses(tmp_path, monkeypatch, lineno, old, new) -> None:
    """Load the witness rows from a copy whose line ``lineno`` has ``old``
    replaced by ``new``."""
    text = (resources.files("rank2chev") / "data" / "witnesses.txt").read_text()
    lines = text.splitlines(keepends=True)
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    bad = tmp_path / "witnesses.txt"
    bad.write_text("".join(lines))
    load = witness.load_witness_rows
    monkeypatch.setattr(witness, "load_witness_rows", lambda: load(str(bad)))


def test_missing_witness_is_a_fail_record(tmp_path, monkeypatch):
    # line 24 with a vector that is neither fixed nor of T_H-weight 0, in a
    # module whose fixed space has no witness: that instantiation is a fail record, every
    # other witnesses check still runs, and the systems suite still reports
    _faulted_witnesses(
        tmp_path, monkeypatch, 24, "q1=2q3 | wedge2(V)   | w(e1,e2)", "q1=2q3 | V | e1+e2"
    )
    args = ["--suite", "witnesses", "--suite", "systems", "--primes", "2"]
    records = _failing_run(args, tmp_path)
    assert [r["group"] for r in records if r["suite"] == "systems"] == [
        "G2", "SL3", "SP4"
    ]
    assert len([r for r in records if r["suite"] == "witnesses"]) == 82
    failed = [r for r in records if r["status"] == "fail"]
    assert failed == [
        {
            "suite": "witnesses",
            "group": "SL3",
            "case": "case2[q1=2q3]",
            "instantiation": "p=2,f[q1]=1,f[q3]=0",
            "status": "fail",
            "detail": "printed vector fails (u(x)-fixedness fails; nonzero "
            "T_H-weight) and the fixed-space search found nothing: no U_H-fixed "
            "vector of T_H-weight 0",
        }
    ]


def test_unsatisfiable_guard_is_a_fail_record(tmp_path, monkeypatch):
    # G2/case12's second branch guarded by p>13: no instantiation in the
    # box, so the branch is one fail record in place of its four checks
    _faulted_witnesses(tmp_path, monkeypatch, 49, "| p>2    |", "| p>13 |")
    records = _failing_run(["--suite", "witnesses", "--primes", "2"], tmp_path)
    assert len(records) == 79
    (failed,) = [r for r in records if r["status"] == "fail"]
    assert (failed["group"], failed["case"], failed["instantiation"]) == (
        "G2", "case12[p>13]", "-"
    )
    assert failed["detail"] == (
        "no instantiation with p in (2, 3, 5, 7, 11, 13) and exponents below 7 "
        "meets p-constraint !=3 and guard p>13"
    )


def test_no_valid_instantiation_is_a_fail_record(monkeypatch):
    # every coefficient choice degenerate: one fail record for the branch
    def degenerate(*args):
        raise subgrp.DegenerateInstantiation

    monkeypatch.setattr(subgrp, "instantiate_case", degenerate)
    wrow = witness.load_witness_rows()[0]
    (rec,) = witness.verify_witness(wrow)
    assert (rec["status"], rec["case"]) == ("fail", wrow.label())
    assert rec["detail"].startswith("no valid instantiation")


# the copy is read where the shipped file would be, once, on first use
_ON_CASE_TABLES = """
import functools, sys
from rank2chev import cli, subgrp
subgrp._shipped_case_rows = functools.cache(
    lambda: subgrp.load_case_rows(sys.argv[1])
)
sys.exit(cli.main(sys.argv[2:]))
"""


def _cli_on_case_tables(tmp_path, args, edit):
    """The finished child process of a CLI run on a copy of case_tables.txt
    rewritten by ``edit``; a run that has not ended after 60 s fails the
    test instead of hanging it."""
    text = (resources.files("rank2chev") / "data" / "case_tables.txt").read_text()
    tables = tmp_path / "case_tables.txt"
    tables.write_text(edit(text))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", _ON_CASE_TABLES, str(tables), *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def _run_on_case_tables(tmp_path, args, edit=lambda text: text):
    """Exit code and records of a CLI run on an edited case_tables.txt."""
    out = tmp_path / "r.jsonl"
    args = [*args, "--format", "machine", "--out", str(out)]
    proc = _cli_on_case_tables(tmp_path, args, edit)
    assert out.exists(), proc.stderr
    lines = out.read_text().splitlines()[1:]
    return proc.returncode, [json.loads(line) for line in lines]


def _edit_line(start, old, new):
    """An edit replacing ``old`` by ``new`` on the one line that starts so."""

    def edit(text):
        (line,) = [ln for ln in text.splitlines() if ln.startswith(start)]
        assert old in line
        return text.replace(line, line.replace(old, new))

    return edit


@pytest.mark.parametrize("primes,count", [("2", 112), ("2,3,5", 171)])
def test_tables_at_f_max_0_end(tmp_path, primes, count):
    # rows pinned to =2 or =3 have one (p, f) pair when that prime is
    # configured and f_max is 0, and no other prime meets their constraint
    args = ["--suite", "tables", "--primes", primes, "--f-max", "0"]
    code, records = _run_on_case_tables(tmp_path, args)
    assert (code, len(records)) == (0, count)
    pinned = {r["case"] for r in records if r["group"] == "G2"}
    assert {"case3", "case6", "case16", "case19"} <= pinned


def test_row_no_prime_serves_is_a_fail_record(tmp_path):
    edit = _edit_line("SP4 | 5 ", "| >=3", "| <2")
    args = ["--suite", "tables", "--primes", "2"]
    code, records = _run_on_case_tables(tmp_path, args, edit)
    assert (code, len(records)) == (1, 151)
    (failed,) = [r for r in records if r["status"] == "fail"]
    assert (failed["group"], failed["case"], failed["instantiation"]) == (
        "SP4", "case5", "-"
    )
    assert failed["detail"] == (
        "no instantiation with p in (2, 3, 5, 7, 11, 13) and exponents below 7 "
        "meets p-constraint <2 and guard -"
    )


@pytest.mark.parametrize("start,old,case,inst,count", [
    ("SL3 | 1 ", ">=3", "case1/principal-rank1", "p=2,f[q1]=0", 82),
    ("G2  | 4 ", ">=5", "case4", "p=2,f[q1]=0,c6=1", 79),
])
def test_undefined_table_constant_is_a_witness_fail_record(
    tmp_path, start, old, case, inst, count
):
    # the row's constant 1/2 or 3/2 has no value at p = 2 once the row
    # allows every characteristic
    edit = _edit_line(start, old, "any")
    args = ["--suite", "witnesses", "--primes", "2"]
    code, records = _run_on_case_tables(tmp_path, args, edit)
    assert (code, len(records)) == (1, count)
    (failed,) = [r for r in records if r["status"] == "fail"]
    assert (failed["case"], failed["instantiation"]) == (case, inst)
    assert failed["detail"] == (
        "table constant undefined: denominator 2 vanishes in characteristic 2"
    )


def test_row_with_three_q_symbols_is_checked(tmp_path):
    # every f-assignment of q1, q2, q3 is checked; u(x) is not additive
    def edit(text):
        return text + "SL3 | 9 | q1,q2,q3 | 1,1,1 | q1,q2 | any\n"

    args = ["--suite", "tables", "--primes", "2"]
    code, records = _run_on_case_tables(tmp_path, args, edit)
    assert (code, len(records)) == (1, 179)
    case9 = [r for r in records if (r["group"], r["case"]) == ("SL3", "case9")]
    assert len(case9) == 27
    assert {(r["status"], r["detail"]) for r in case9} == {("fail", "additivity fails")}


@pytest.mark.parametrize("start,old,new,suite,message", [
    # a zero cocharacter, in the m-pattern or in alt=
    ("SP4 | 4 ", "q3,(2q3-q1)/2", "0,0", "tables",
     "line 22: m-pattern is zero: the cocharacter must be nonzero"),
    ("SL3 | 2 ", "alt=(q1+q3)/3,(2q3-q1)/3", "alt=0,0", "tables",
     "line 17: alt m-pattern is zero: the cocharacter must be nonzero"),
    # a recorded weight row needs m = 1 at every instantiation
    ("G2  | 2 ", "| 2q1,3q1", "| 2q1,(3/2)q1", "witnesses",
     "line 26: m-pattern of a row with a recorded weight row is not integral"),
])
def test_unusable_case_row_is_a_corrupt_data_file(
    tmp_path, start, old, new, suite, message
):
    # each was a traceback from deep in its suite; now the file is rejected
    # when it is read, naming the line, and no report is written
    out = tmp_path / "r.jsonl"
    args = ["--suite", suite, "--primes", "2", "--out", str(out)]
    proc = _cli_on_case_tables(tmp_path, args, _edit_line(start, old, new))
    assert proc.returncode == 2
    assert proc.stderr == f"data file corrupt: case_tables.txt {message}\n"
    assert not out.exists()
    with pytest.raises(subgrp.DataFileCorrupt, match=message):
        subgrp.load_case_rows(str(tmp_path / "case_tables.txt"))


_NO_TORUS = "table m-pattern gives no torus: cocharacter must be nonzero"


@pytest.mark.parametrize("suite,count,zero", [
    ("tables", 152, [
        ("case7", f"p=2,f[q1]={f},f[q5]={f}") for f in range(3)
    ]),
    ("witnesses", 82, [
        ("case7/weights", "p=2,f[q1]=0,f[q5]=0"),
        ("case7[q1=q5]", "p=2,f[q1]=0,f[q5]=0"),
    ]),
])
def test_zero_cocharacter_at_an_instantiation_is_a_fail_record(
    tmp_path, suite, count, zero
):
    # the m-pattern q5-q1,2q5-2q1 is nonzero, so the file parses, but it is
    # (0, 0) wherever f[q1] = f[q5]; that was a ValueError traceback
    edit = _edit_line("G2  | 7 ", "q5-q1,2q5-3q1", "q5-q1,2q5-2q1")
    args = ["--suite", suite, "--primes", "2"]
    code, records = _run_on_case_tables(tmp_path, args, edit)
    assert (code, len(records)) == (1, count)
    no_torus = [r for r in records if r["detail"] == _NO_TORUS]
    assert [(r["case"], r["instantiation"]) for r in no_torus] == zero
    assert all((r["group"], r["status"]) == ("G2", "fail") for r in no_torus)


def test_exponent_overflow_in_tables_is_a_fail_record(tmp_path):
    # 5^9 > EXPONENT_BOUND: each instantiation that needs a larger exponent
    # is a fail record naming it, and every other one is still checked
    args = ["--suite", "tables", "--primes", "5", "--f-max", "9"]
    code, records = _run_on_case_tables(tmp_path, args)
    assert (code, len(records)) == (1, 1010)
    failed = [r for r in records if r["status"] == "fail"]
    assert len(failed) == 154
    pattern = r"not checked within EXPONENT_BOUND: exponent (\d+) exceeds bound 1000000"
    exponents = {int(re.fullmatch(pattern, r["detail"])[1]) for r in failed}
    assert exponents == {1171875, 1953125, 3906250}


def test_exponent_overflow_in_search_is_a_fail_record(tmp_path):
    # a search whose q_max passes EXPONENT_BOUND stops there, one fail
    # record per job
    args = ["--suite", "search", "--primes", "3", "--q-max", "2000000"]
    code, records = _run_on_case_tables(tmp_path, args)
    assert code == 1
    detail = "stopped at EXPONENT_BOUND: exponent 1594323 exceeds bound 1000000"
    assert [(r["group"], r["status"], r["detail"]) for r in records] == [
        (group, "fail", detail) for group in ("G2", "SL3", "SP4")
    ]


def test_witness_of_an_unknown_case_is_a_corrupt_data_file(tmp_path, monkeypatch, capsys):
    _faulted_witnesses(tmp_path, monkeypatch, 49, "G2 | 12 |", "G2 | 99 |")
    args = ["--suite", "witnesses", "--primes", "2", "--out", str(tmp_path / "r")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == (
        "data file corrupt: line 49: witness G2/case99[p>2]: "
        "no case row G2/case99 in case_tables.txt\n"
    )
    assert not (tmp_path / "r").exists()


def test_failed_search_reverification_is_a_fail_record(tmp_path, monkeypatch):
    monkeypatch.setattr(report.subgrp, "check_additive", lambda *args: False)
    records = _failing_run(["--suite", "search", "--primes", "2"], tmp_path)
    assert len(records) == 1
    (stop,) = records
    assert (stop["suite"], stop["case"], stop["status"]) == (
        "search", "stopped", "fail"
    )
    assert stop["detail"].startswith(
        "AssertionError: search hit fails matrix additivity in natural: "
    )


def test_failed_lemma_is_a_fail_record(tmp_path, monkeypatch):
    # poly-2 with its first stated tuple dropped from the conclusion (a
    # solution it no longer admits) and a stated tuple that does not solve
    case = lemmas._POLY_CASES[2]

    def faulted(p, z_max):
        families, conclusion, stated = case(p, z_max)
        first = stated[0][0]
        bogus = ((4, 1, 1, 1), 4, 1, {(1, 2): 1, (2, 1): 1})
        return families, lambda t: t != first and conclusion(t), [*stated, bogus]

    monkeypatch.setitem(lemmas._POLY_CASES, 2, faulted)
    records = _failing_run(["--suite", "lemmas", "--primes", "5"], tmp_path)
    failed = [r for r in records if r["status"] == "fail"]
    assert [(r["case"], r["instantiation"], r["detail"]) for r in failed] == [
        (
            "poly-2",
            "p=5",
            "12 solutions, set equality fails; 1 extra, first (3, 2, 1, 1); "
            "1 missing, first (4, 1, 1, 1)",
        )
    ]


def test_power_value_is_a_fail_record(tmp_path, monkeypatch):
    # (3p^f+1)/2 replaced by p^f: every integral value is a power of p
    text, base, _ = lemmas._EXPRESSIONS[5]
    monkeypatch.setitem(lemmas._EXPRESSIONS, 5, (text, base, lambda p, f: (p**f, 1)))
    records = _failing_run(["--suite", "lemmas", "--primes", "3"], tmp_path)
    failed = [r for r in records if r["status"] == "fail"]
    assert [(r["case"], r["detail"]) for r in failed] == [
        (
            "ppower-5[(3p^f+1)/2]",
            "20 integral values, 20 a power, first (f, value, m) = (1, 3, 1)",
        )
    ]


def _machine_report(args, tmp_path, name) -> bytes:
    out = tmp_path / name
    assert cli.main(args + ["--format", "machine", "--out", str(out)]) == 0
    return out.read_bytes()


def test_config_echo_is_canonical(tmp_path):
    # the same work gives the same bytes whatever the order of the flags
    a = _machine_report(["--primes", "5,3", "--suite", "lemmas"], tmp_path, "a")
    b = _machine_report(["--primes", "3,5", "--suite", "lemmas"], tmp_path, "b")
    assert a == b
    assert json.loads(a.splitlines()[0])["config"]["primes"] == [3, 5]
    swapped = [
        _machine_report(
            ["--primes", "2", "--suite", s1, "--suite", s2], tmp_path, s1
        )
        for s1, s2 in (("lemmas", "systems"), ("systems", "lemmas"))
    ]
    assert swapped[0] == swapped[1]
    meta = json.loads(swapped[0].splitlines()[0])
    assert meta["config"]["suites"] == ["systems", "lemmas"]


def test_suite_filtering():
    rep = run_suite(RunConfig(suites=("lemmas",), primes=(2,)))
    assert rep.records
    assert {r["suite"] for r in rep.records} == {"lemmas"}


def test_systems_suite_records():
    rep = run_suite(RunConfig(suites=("systems",)))
    by_group = {r["group"]: r for r in rep.records}
    assert by_group["SP4"]["status"] == "pass"
    assert by_group["G2"]["status"] == "pass"
    assert by_group["SL3"]["status"] == "discrepant"
    assert rep.ok


def test_machine_report_determinism(tmp_path):
    cfg = dict(suites=("systems", "lemmas"), primes=(2, 3), fmt="machine")
    out1 = report.write_report(run_suite(RunConfig(**cfg)), RunConfig(**cfg))
    out2 = report.write_report(run_suite(RunConfig(**cfg)), RunConfig(**cfg))
    assert out1 == out2
    lines = out1.strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["engine"] == "rank2chev"
    # every record line parses and has the stable field set
    for line in lines[1:]:
        rec = json.loads(line)
        assert set(rec) == {
            "suite", "group", "case", "instantiation", "status", "detail",
        }


def test_machine_report_has_no_floats():
    cfg = RunConfig(suites=("systems",), fmt="machine")
    text = report.write_report(run_suite(cfg), cfg)
    for line in text.strip().splitlines():
        for v in json.loads(line).values():
            assert not isinstance(v, float)


def test_exit_code_ignores_discrepancies(tmp_path):
    out = tmp_path / "r.txt"
    code = cli.main(["--suite", "systems", "--out", str(out)])
    assert code == 0
    assert "DISCREPANT" in out.read_text()


def test_env_mirroring(monkeypatch, capsys):
    monkeypatch.setenv("RANK2CHEV_PRIMES", "2")
    monkeypatch.setenv("RANK2CHEV_SUITE", "lemmas")
    assert cli.main([]) == 0
    text = capsys.readouterr().out
    assert '"primes": [2]' in text and '"suites": ["lemmas"]' in text
    # flags win over the environment
    monkeypatch.setenv("RANK2CHEV_PRIMES", "4")
    assert cli.main(["--primes", "2", "--suite", "lemmas"]) == 0


@pytest.mark.parametrize("name", ["F_MAX", "Q_MAX", "BUDGET_SECONDS"])
def test_malformed_env_number_is_usage_error(monkeypatch, capsys, name):
    monkeypatch.setenv(f"RANK2CHEV_{name}", "two")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "systems"])
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_env_numbers_are_converted(monkeypatch):
    monkeypatch.setenv("RANK2CHEV_F_MAX", "3")
    monkeypatch.setenv("RANK2CHEV_Q_MAX", "9")
    monkeypatch.setenv("RANK2CHEV_BUDGET_SECONDS", "2.5")
    args = cli.build_parser().parse_args([])
    assert (args.f_max, args.q_max, args.budget_seconds) == (3, 9, 2.5)
    args = cli.build_parser().parse_args(["--f-max", "1"])
    assert args.f_max == 1


def test_budget_partial_exit(tmp_path):
    out = tmp_path / "r.txt"
    code = cli.main(
        ["--suite", "search", "--budget-seconds", "1e-9", "--out", str(out)]
    )
    assert code == 3
    assert "PARTIAL" in out.read_text()


_STDLIB_ONLY = """
import sys
before = set(sys.modules)
import rank2chev.cli
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(new - {"rank2chev"} - set(sys.stdlib_module_names)))
"""


def test_runtime_imports_only_the_standard_library():
    # -S keeps site's own imports (setuptools' distutils hook, certifi)
    # out of the count
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB_ONLY],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
