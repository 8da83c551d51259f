"""Golden CLI transcripts: exact stdout, stderr and exit code per argv.

``cli_golden.json`` pins the CLI's whole observable behaviour on the README
examples, one call per subcommand and ``family-dim`` variant, and the usage
and domain error paths.  The same module checks that every successful
result has exactly the keys its ``--schema`` documents, and that the module
entry point ``python -m ruledmoduli.cli`` behaves as ``run``.  Usage errors
are worded by the package, which reads argv against its command table; only
the JSON decoder's and the operating system's messages quoted in some of
them come from Python, whose version 3.11 the file was recorded with.  After
an intended change of output, re-record the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruledmoduli
from ruledmoduli.cli import COMMANDS, run

GOLDEN = Path(__file__).with_name("cli_golden.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))
BY_NAME = {case["name"]: case for case in CASES}
# the successful subcommand calls; a --schema call prints no result
RESULT_CASES = [case for case in CASES if case["exit"] == 0 and case["argv"][0] in COMMANDS]


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_transcript_matches_golden(case):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
    assert transcript(case["argv"]) == expected


@pytest.mark.parametrize("case", RESULT_CASES, ids=[case["name"] for case in RESULT_CASES])
def test_schema_names_the_result_keys(case):
    subcommand, variant = case["argv"][:2]
    command = COMMANDS[subcommand]
    if isinstance(command, dict):
        command = command[variant]
    assert set(json.loads(case["stdout"])["result"]) == set(command.result)


@pytest.mark.parametrize("name", ["readme-family-dim-example", "example-n-zero", "missing-flag"])
def test_module_entry_point_matches_run(name):
    argv = BY_NAME[name]["argv"]
    src = str(Path(ruledmoduli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-m", "ruledmoduli.cli", *argv],
                           capture_output=True, text=True, env=env, check=False)
    assert {"exit": child.returncode, "stdout": child.stdout, "stderr": child.stderr} == transcript(argv)


if __name__ == "__main__":
    recorded = [{"name": c["name"], "argv": c["argv"], **transcript(c["argv"])} for c in CASES]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
