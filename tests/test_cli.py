import json

import pytest

from rank2chev import cli, report
from rank2chev.report import ConfigInvalid, RunConfig, run_suite


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
