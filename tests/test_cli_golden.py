"""Golden CLI transcripts: exact stdout, stderr and exit code per argv.

``cli_golden.json`` pins the CLI's whole observable behaviour on the README
examples, one call per subcommand and ``family-dim`` variant, and the usage
and domain error paths.  Usage errors raised by argparse carry its wording,
which is that of Python 3.11, the version the file was recorded with.  After
an intended change of output, re-record the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ruledmoduli.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_transcript_matches_golden(case):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
    assert transcript(case["argv"]) == expected


if __name__ == "__main__":
    recorded = [{"name": c["name"], "argv": c["argv"], **transcript(c["argv"])} for c in CASES]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
