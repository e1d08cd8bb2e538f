"""Acceptance criteria, one test per criterion, exact tolerances (zero).

Each test prints one PASS line on success; deviations from the recorded
reference values are allowed only where pinned below (and each pinned
deviation is a verified print defect in the reference data, resolved by
the engine's fallback paths and reported as "discrepant", never hidden).
"""

import collections
import pathlib
import time

import pytest
from rep_validation import validate_rep

from rank2chev import chevrep, existence, lemmas, report, subgrp, witness
from rank2chev.exactalg import PrimeField
from rank2chev.report import RunConfig, run_suite
from rank2chev.rootdata import GroupId


def _announce(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_system_derivation():
    t0 = time.monotonic()
    assert subgrp.system_diffs(GroupId.SP4) == []
    assert subgrp.system_diffs(GroupId.G2) == []
    sl3 = subgrp.system_diffs(GroupId.SL3)
    assert sl3 == list(subgrp.KNOWN_SYSTEM_DISCREPANCIES[GroupId.SL3]), (
        "SL3 must differ from the reference system in exactly the one "
        "documented cross-term sign"
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _announce(
        1,
        f"additivity systems derived and matched term for term in "
        f"{elapsed:.2f}s (SP4, G2 exact; SL3 with the one documented "
        f"cross-sign discrepancy)",
    )


def test_criterion_2_representation_validation():
    checked = 0
    for group in GroupId:
        for module in chevrep.all_modules(group):
            for p in (2, 3, 5, 7):
                rep = chevrep.build_rep(group, module, PrimeField(p))
                result = validate_rep(rep)
                assert result.ok, (group, module, p, result.failures())
                checked += 1
    _announce(2, f"{checked} (module, p) validations: additivity, torus "
                 f"grading and unipotence all exact")


def test_criterion_3_table_verification():
    t0 = time.monotonic()
    statuses = collections.Counter()
    discrepant_rows = set()
    for row in subgrp.load_case_rows():
        recs = subgrp.verify_case(row, primes=(2, 3, 5), f_max=1)
        assert len(recs) >= 2, f"{row.label()} needs >= 2 instantiations"
        for rec in recs:
            statuses[rec["status"]] += 1
            assert rec["status"] != "fail", rec
            if rec["status"] == "discrepant":
                discrepant_rows.add(rec["case"])
    assert discrepant_rows == {"SL3/case2"}, (
        "the only m-column discrepancy is the documented one"
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _announce(
        3,
        f"{statuses['pass']} instantiations pass, {statuses['discrepant']} "
        f"discrepant (all on the documented SL3 case 2 m-column) in "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_completeness_search():
    t0 = time.monotonic()
    jobs = [
        (GroupId.SL3, (2, 3, 5)),
        (GroupId.SP4, (2, 3)),
        (GroupId.G2, (2, 3)),
    ]
    total = 0
    for group, primes in jobs:
        for p in primes:
            hits = subgrp.search_solutions(group, p, p * p)
            unmatched = [
                sol for sol in hits if subgrp.match_to_table(sol) is None
            ]
            assert not unmatched, (group, p, unmatched[:3])
            total += len(hits)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    _announce(
        4,
        f"{total} search solutions across all groups/primes, zero unmatched, "
        f"{elapsed:.1f}s",
    )


# Verified print defects in the witness tables beyond the documented
# Table 4 row 5: the row-14 vector is not fixed under the reference
# matrices (wrong v3 coefficient), and the row-10/13 vectors vanish
# identically at the all-ones coefficient choice.  All are resolved by the
# kernel-intersection fallback and reported as discrepant.
_EXPECTED_WITNESS_DISCREPANCIES = {
    ("SP4", "5"),
    ("G2", "14"),
    ("G2", "10"),
    ("G2", "13"),
}


def test_criterion_5_witnesses():
    t0 = time.monotonic()
    statuses = collections.Counter()
    discrepant = set()
    for wrow in witness.load_witness_rows():
        recs = witness.verify_witness(wrow)
        for rec in recs:
            statuses[rec["status"]] += 1
            assert rec["status"] != "fail", rec
            if rec["status"] == "discrepant":
                discrepant.add((str(wrow.group), wrow.case))
                assert "fallback witness" in rec["detail"], rec
    assert discrepant == _EXPECTED_WITNESS_DISCREPANCIES, discrepant
    # rows 10 and 13 are discrepant only at their degenerate combination
    for case in ("10", "13"):
        wrow = next(
            w for w in witness.load_witness_rows()
            if w.group is GroupId.G2 and w.case == case
        )
        recs = witness.verify_witness(wrow)
        bad = [r for r in recs if r["status"] == "discrepant"]
        assert len(bad) == 1 and "zero at this instantiation" in bad[0]["detail"]
    # Table 5 weight rows at every recorded case
    for cases in subgrp.G2_WEIGHT_ROWS:
        for case in cases:
            crow = witness._case_row(GroupId.G2, case)
            p = next(q for q in (2, 3, 5, 7) if crow.allows_p(q))
            rec = witness.verify_weight_row(
                case, p, {s: 0 for s in crow.q_symbols}
            )
            assert rec["status"] == "pass", rec
    # reductive rows by membership
    for group, case in witness.membership_cases():
        assert witness.check_membership(group, case)["status"] == "pass"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _announce(
        5,
        f"{statuses['pass']} witness instantiations pass, "
        f"{statuses['discrepant']} resolved by the kernel fallback "
        f"(Table 4 row 5 plus three verified print defects: row 14's vector "
        f"and the rows 10/13 degenerate combination), zero missing witnesses, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_principal_rank1():
    rec = witness.check_principal_a1(GroupId.G2, 7, 0)
    assert rec["status"] == "pass"
    gamma = tuple(g % 7 for g in (1, 1, -2, -3, -12, -60, -360))
    assert str(gamma) in rec["detail"], "printed gamma vector used as-is"
    rec_sp4 = witness.check_principal_a1(GroupId.SP4, 5, 0)
    assert rec_sp4["status"] == "pass"
    rec_sl3 = witness.check_principal_a1(GroupId.SL3, 3, 0)
    assert rec_sl3["status"] == "discrepant"  # dimension wording, math passes
    assert "rescaling" in rec_sl3["detail"]
    _announce(
        6,
        "exact matrix equality with twisted degree-n forms: G2 (p=7, "
        "printed rescaling), SP4 (p=5, solved), SL3 (p=3, solved; recorded "
        "dimension wording flagged)",
    )


def test_criterion_7_lemma_suites():
    for case in range(1, 7):
        for p in (2, 3, 5, 7):
            r = lemmas.check_poly_lemma(case, p, z_max=200)
            assert r.ok, (case, p, r.extra[:2], r.missing[:2])
    for expr in range(1, 6):
        for p in (2, 3, 5, 7):
            r = lemmas.check_ppower_lemma(expr, p, f_max=20, m_max=64)
            assert r.ok, (expr, p, r.extra)
    _announce(
        7,
        "polynomial cases 1-6 at p in {2,3,5,7} with z <= 200: solution sets "
        "equal conclusion sets exactly; the five expressions are never "
        "base-powers for f <= 20",
    )


def test_criterion_8_existence():
    t0 = time.monotonic()
    for group in (GroupId.SP4, GroupId.G2):
        for p in (2, 3, 5):
            spec = existence.DiagonalA1Spec(group, PrimeField(p), p)
            assert existence.check_h_torus(spec)["status"] == "pass"
            assert existence.check_normalization(spec)["status"] == "pass"
            assert existence.check_a_summands(spec)["status"] == "pass"
    for p in (3, 5):
        spec = existence.DiagonalA1Spec(GroupId.SP4, PrimeField(p), p)
        rec = existence.check_burnside(spec)[0]
        assert rec["status"] == "pass" and "16 of 16" in rec["detail"]
    for p in (3, 5, 7):
        spec = existence.DiagonalA1Spec(GroupId.G2, PrimeField(p), p)
        rec = existence.check_burnside(spec)[0]
        assert rec["status"] == "pass" and "49 of 49" in rec["detail"]
    rec = existence.check_burnside(
        existence.DiagonalA1Spec(GroupId.G2, PrimeField(2), 2)
    )[0]
    assert rec["status"] == "discrepant"  # reported, not asserted
    assert "7-dim" in rec["detail"] and "6-dim" in rec["detail"]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _announce(
        8,
        f"torus/normalization/summand identities symbolic at q = p in "
        f"{{2,3,5}}; full spans 16 (SP4) and 49 (G2); G2 p=2 ambiguity "
        f"reported; {elapsed:.1f}s",
    )


def test_criterion_9_determinism():
    cfg = RunConfig(
        suites=("systems", "lemmas", "witnesses"), primes=(2, 3), fmt="machine"
    )
    lines1 = run_suite(cfg).machine_lines()
    lines2 = run_suite(cfg).machine_lines()
    assert lines1 == lines2
    text1 = "\n".join(lines1)
    text2 = "\n".join(lines2)
    assert text1.encode() == text2.encode()
    _announce(9, f"two identical runs produce byte-identical machine reports "
                 f"({len(lines1)} lines)")


GOLDEN_DEFAULT = pathlib.Path(__file__).parent / "golden" / "default.jsonl"


def test_default_run_known_discrepancies():
    """The default configuration passes with exactly the documented
    discrepant records (the spec's three plus the verified print defects
    recorded in the decisions ledger), and its machine report equals the
    committed golden file byte for byte."""
    rep = run_suite(RunConfig())
    assert rep.ok
    text = "\n".join(rep.machine_lines()) + "\n"
    assert text.encode("utf-8") == GOLDEN_DEFAULT.read_bytes(), (
        "default machine report differs from tests/golden/default.jsonl"
    )
    discs = {
        (r["suite"], r["group"], r["case"].split("[")[0])
        for r in rep.records
        if r["status"] == "discrepant"
    }
    assert discs == {
        ("tables", "SL3", "case2"),          # m-column vs proof text
        ("witnesses", "SP4", "case5"),       # Table 4 row 5
        ("witnesses", "SL3", "case1/principal-rank1"),  # wording
        ("systems", "SL3", "system"),        # eq 3 cross sign
        ("witnesses", "G2", "case14"),       # row 14 vector
        ("witnesses", "G2", "case10"),       # degenerate combination
        ("witnesses", "G2", "case13"),       # degenerate combination
        ("existence", "G2", "existence/burnside"),      # p=2 module ambiguity
    }, discs
