"""The golden matrix: machine reports pinned byte for byte.

``golden/default.jsonl`` is checked by test_acceptance.py; these are the
further configurations whose reports a refactor must leave unchanged.
README's "Golden report" section gives the command that regenerates each.
"""

import pathlib

import pytest

from rank2chev import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

MATRIX = {
    "primes-7": ["--primes", "7"],
    "primes-11-witnesses": ["--primes", "11", "--suite", "witnesses"],
    "primes-2-3-5-7-f3-tables-witnesses": [
        "--primes", "2,3,5,7", "--f-max", "3", "--suite", "tables", "--suite", "witnesses",
    ],
    "primes-13-witnesses-tables": [
        "--primes", "13", "--suite", "witnesses", "--suite", "tables",
    ],
}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_machine_report_matches_golden_file(name, tmp_path, capsys):
    out = tmp_path / f"{name}.jsonl"
    assert cli.main([*MATRIX[name], "--format", "machine", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes(), (
        f"machine report differs from tests/golden/{name}.jsonl"
    )
