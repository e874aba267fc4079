"""Replay ``cli_golden.json`` through ``cli.main`` and the pinned witnesses
of ``witness_cases.py``, standard library only.

    PYTHONPATH=src python tests/replay_cli_golden.py

The same checks as ``test_cli_golden.py`` (exit status and stdout bytes of
every golden command line) and ``test_witnesses.py`` (reason, indices and
both sides of each pinned witness, some of which no command line reaches),
for interpreters that have no pytest.  Prints one line per mismatch and a
summary; exits 1 if anything differs.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from leibniz_lab.cli import main
from witness_cases import CASES, EXPECTED

CORPUS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "cli_golden.json").read_text())


def replay() -> int:
    cases, failed = CORPUS["cases"], 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        for name, doc in CORPUS["documents"].items():
            pathlib.Path(root, name).write_text(json.dumps(doc))
        for name, text in CORPUS["raw"].items():
            pathlib.Path(root, name).write_text(text)
        os.chdir(root)
        try:
            for case in cases:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = main(case["argv"])
                got = (status, out.getvalue())
                if got != (case["status"], case["stdout"]):
                    failed += 1
                    print("MISMATCH %s: status %d, expected %d"
                          % (case["id"], status, case["status"]))
        finally:
            os.chdir(home)
    print("%d/%d golden command lines identical on Python %s"
          % (len(cases) - failed, len(cases), sys.version.split()[0]))
    return failed


def replay_witnesses() -> int:
    failed = 0
    for name in sorted(CASES):
        check = CASES[name]()
        got = None if check.ok else (
            check.reason, check.indices,
            [str(c) for c in check.lhs], [str(c) for c in check.rhs])
        if got != EXPECTED[name]:
            failed += 1
            print("MISMATCH witness %s: %r" % (name, got))
    print("%d/%d pinned witnesses identical" % (len(CASES) - failed, len(CASES)))
    return failed


if __name__ == "__main__":
    sys.exit(1 if replay() + replay_witnesses() else 0)
