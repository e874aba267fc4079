"""Golden command lines: exact exit status and stdout bytes.

``cli_golden.json`` holds a fixed corpus of documents (``documents`` as
JSON values, ``raw`` as literal file text) and, for each case, the argv
run from the corpus directory together with the exit status and the
stdout it produced when the corpus was recorded.  Every command group is
covered, including the Q(i) paths (a Gaussian ``verify leibniz``,
``construct complexify``/``realify`` and ``classify complex``), passing
and failing verdicts with witnesses, and input errors.  Any change to a
verdict, a witness, a payload or the JSON layout fails here.
"""

import json
import pathlib

import pytest

from leibniz_lab.cli import main

CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "cli_golden.json").read_text())


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name, doc in CORPUS["documents"].items():
        (root / name).write_text(json.dumps(doc))
    for name, text in CORPUS["raw"].items():
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda c: c["id"])
def test_cli_golden(case, corpus_dir, monkeypatch, capsysbinary):
    monkeypatch.chdir(corpus_dir)
    status = main(case["argv"])
    out = capsysbinary.readouterr().out
    assert (status, out) == (case["status"], case["stdout"].encode())
