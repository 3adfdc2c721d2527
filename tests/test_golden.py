"""Byte-for-byte snapshots of the command-line output.

``tests/golden/cases.json`` lists each case: its argv (``{root}`` stands for
the repository root), its exit code and the file in ``tests/golden/`` that
holds its exact stdout.  A refactor that claims "no behaviour change" must
leave every snapshot passing unchanged.

To regenerate the snapshots after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from certaintrust import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.replace("{root}", str(ROOT)) for arg in argv])
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_snapshot(case):
    code, out = _run(case["argv"])
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        case["exit"], out = _run(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")
