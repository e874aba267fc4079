"""Replay ``cli_golden.json`` through ``cli.main``, standard library only.

    PYTHONPATH=src python tests/replay_cli_golden.py

The same check as ``test_cli_golden.py`` (exit status and stdout bytes of
every golden command line), for interpreters that have no pytest.  Prints
one line per mismatch and a summary; exits 1 if any case differs.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from leibniz_lab.cli import main

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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(replay())
