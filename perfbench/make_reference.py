"""Write the reference verdicts of each workload from the current engine.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only at a commit whose verdicts have been checked by hand, and say
in the commit why the verdicts changed.  Each file lists every record of
the workload's report as ``[suite, group, case, instantiation, status,
hits]``.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS, child_env
import verdicts


def make(name: str) -> dict:
    argv = WORKLOADS[name].argv(0)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.jsonl"
        subprocess.run(
            [sys.executable, "-m", "rank2chev.cli", *argv,
             "--format", "machine", "--out", str(out)],
            cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
        )
        text = out.read_text(encoding="utf-8")
    meta = json.loads(text.splitlines()[0])
    return {
        "workload": name,
        "argv": argv,
        "version": meta["version"],
        "counts": meta["counts"],
        "records": [verdicts.entry(r) for r in verdicts.report_records(text)],
    }


def main(names: list[str]) -> None:
    for name in names or WORKLOADS:
        ref = make(name)
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = [json.dumps(r) for r in ref.pop("records")]
        head = json.dumps(ref, sort_keys=True)[:-1]
        path.write_text(
            head + ', "records": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8"
        )
        print(f"{path.relative_to(ROOT)}: {len(lines)} records, {ref['counts']}")


if __name__ == "__main__":
    main(sys.argv[1:])
