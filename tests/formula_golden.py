"""The derived integer formulas, as pinned in ``tests/golden/formulas.json``.

``formulas()`` lists every derivation of the engine: the additivity system
of each group, the SL3 duality and the Weyl conjugation of each group by
every Weyl word.  The fixture holds them as
written by a trusted tree, one JSON record per line; ``test_subgrp``
compares a fresh derivation with it.  Run from the repository root to
rewrite it:

    PYTHONPATH=src python tests/formula_golden.py
"""

from __future__ import annotations

import json
import pathlib

from rank2chev import rootdata, subgrp
from rank2chev.rootdata import GroupId, root_datum

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "formulas.json"


def formulas() -> list[dict]:
    """One record per derivation, in JSON form (lists for tuples)."""
    out = [
        {
            "kind": "additivity",
            "group": group.value,
            "value": [
                [[*key, coef] for key, coef in eq.items()]
                for eq in subgrp.derive_additivity_system(group)
            ],
        }
        for group in GroupId
    ]
    out.append(
        {"kind": "duality", "group": "SL3", "value": subgrp.duality_formula().terms}
    )
    out += [
        {
            "kind": "weyl",
            "group": group.value,
            "word": word,
            "value": rootdata.weyl_formula(group, word).terms,
        }
        for group in GroupId
        for word in root_datum(group).weyl_words()
    ]
    return json.loads(json.dumps(out))


def fixture_text(records: list[dict]) -> str:
    lines = (json.dumps(r, sort_keys=True) for r in records)
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    FIXTURE.write_text(fixture_text(formulas()))
