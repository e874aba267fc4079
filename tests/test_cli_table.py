"""The command table: fuzzed documents, tracer reach and the README.

``cli.COMMANDS`` is the one list of commands, so the fuzz draws from it,
the tracer test checks that its entries reach the library through names a
tracer can rebind, and the README's command table, document examples and
Python example are pinned to it, to the parsers and to the library.
"""

import json
import pathlib
import re
import types

from hypothesis import HealthCheck, given, settings, strategies as st

from leibniz_lab import cli
from leibniz_lab.scalars import format_scalar, parse_scalar

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
BAD_INPUT = {"ParseError", "ValidationError", "DimensionMismatch", "USAGE",
             "WrongField", "FieldMismatch", "TooLarge"}

# Golden command lines that run a table command on stored documents, with
# their golden exit status (2: one of the documents is already malformed).
SEEDS = [(key, names, case["status"]) for key, names, case in
         ((tuple(case["argv"][:2]), case["argv"][2:], case)
          for case in GOLDEN["cases"])
         if key in cli.COMMANDS and len(names) == len(cli.COMMANDS[key][0])
         and all(name in GOLDEN["documents"] for name in names)]


def test_every_command_has_a_golden_seed():
    assert {key for key, _, _ in SEEDS} == set(cli.COMMANDS)


# -- mutations ---------------------------------------------------------------


def _nodes(value, path=()):
    """Every (path, value) below the root of a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _mutations(doc, kind):
    """(name, path, type name of the old value) for every mutation of one
    document; a resize replaces the whole matrix."""
    out = []
    for path, value in _nodes(doc):
        if isinstance(path[-1], str):
            out.append(("drop", path, None))
            if path[-1] in ("i", "j", "k"):
                out.append(("index", path, None))
        out.append(("retype", path, type(value).__name__))
    if kind == "matrix":
        out.append(("resize", (), None))
    return out


def _apply(doc, mutation, data):
    name, path, old_type = mutation
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if name == "drop":
        del parent[path[-1]]
    elif name == "index":
        parent[path[-1]] = data.draw(st.sampled_from([-1, 10, 10 ** 6]))
    elif name == "retype":
        others = [v for v in (None, True, 3, "x", [], {})
                  if type(v).__name__ != old_type]
        parent[path[-1]] = data.draw(st.sampled_from(others))
    else:
        n = len(doc["matrix"])
        shape = data.draw(st.tuples(st.integers(0, n + 1),
                                    st.integers(0, n + 1))
                          .filter(lambda rc: rc != (n, n)))
        doc["matrix"] = [["1" if i == j else "0" for j in range(shape[1])]
                         for i in range(shape[0])]
    return doc


def _floats(value):
    """Every JSON float below a value."""
    if isinstance(value, float):
        yield value
    for child in (value.values() if isinstance(value, dict)
                  else value if isinstance(value, list) else ()):
        yield from _floats(child)


def _scalar_strings(value):
    """The scalar strings of a witness or payload: bracket coefficients
    ``"c"`` and the entries of every list except an algebra's labels."""
    if isinstance(value, dict):
        for key, child in value.items():
            if isinstance(child, str):
                if key == "c":
                    yield child
            elif not (key == "basis" and "brackets" in value):
                yield from _scalar_strings(child)
    elif isinstance(value, list):
        for child in value:
            if isinstance(child, str):
                yield child
            else:
                yield from _scalar_strings(child)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(data, tmp_path):
    key, names, seed_status = data.draw(st.sampled_from(SEEDS),
                                        label="command")
    kinds = cli.COMMANDS[key][0]
    pos = data.draw(st.integers(0, len(names) - 1), label="document")
    doc = GOLDEN["documents"][names[pos]]
    mutation = data.draw(st.sampled_from(
        _mutations(doc, kinds[pos].split()[-1])), label="mutation")
    paths = []
    for at, name in enumerate(names):
        text = json.dumps(_apply(doc, mutation, data) if at == pos
                          else GOLDEN["documents"][name])
        path = tmp_path / ("%d.json" % at)
        path.write_text(text)
        paths.append(str(path))
    verdict, status = cli.run_command(list(key) + paths)
    assert status in (0, 1, 2)
    assert not list(_floats(verdict))
    for text in _scalar_strings([verdict["witnesses"],
                                 verdict.get("payload")]):
        assert format_scalar(parse_scalar(text)) == text
    if status == 1:
        assert verdict["reason"] not in BAD_INPUT
    if mutation[0] == "resize":
        # A malformed document elsewhere in the seed may be reported first.
        expected = BAD_INPUT if seed_status == 2 else {"DimensionMismatch"}
        assert status == 2 and verdict["reason"] in expected


# Words that look like options but are none: each is misuse wherever it
# stands, and so is the word after a ``--seed`` that is not an integer.
NOT_OPTIONS = ["--sed", "-x", "--", "--seed", "--seed=", "--seed=x",
               "--seedx", "---seed"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_argv_keeps_the_exit_contract(data, tmp_path):
    """Dropping or duplicating a word of a golden command line, or inserting
    an option-like word, is misuse (a USAGE verdict, exit 2); moving its
    ``--seed N`` leaves the verdict as it was."""
    key, names, seed_status = data.draw(st.sampled_from(SEEDS),
                                        label="command")
    paths = []
    for at, name in enumerate(names):
        path = tmp_path / ("%d.json" % at)
        path.write_text(json.dumps(GOLDEN["documents"][name]))
        paths.append(str(path))
    seed = ["--seed", str(data.draw(st.integers(0, 10 ** 6), label="seed"))]
    argv = list(key) + paths + seed
    mutation = data.draw(st.sampled_from(["drop", "duplicate", "insert",
                                          "move"]), label="mutation")
    at = data.draw(st.integers(0, len(argv) - (mutation != "insert")),
                   label="position")
    if mutation == "drop":
        mutated = argv[:at] + argv[at + 1:]
    elif mutation == "duplicate":
        mutated = argv[:at + 1] + argv[at:]
    elif mutation == "insert":
        mutated = argv[:at] + [data.draw(st.sampled_from(NOT_OPTIONS),
                                         label="word")] + argv[at:]
    else:
        words = argv[:-2]
        at = min(at, len(words))
        mutated = words[:at] + seed + words[at:]
    verdict, status = cli.run_command(mutated)
    assert status in (2, seed_status)
    if mutation == "move":
        assert (verdict, status) == cli.run_command(argv)
    else:
        assert (verdict["reason"], status) == ("USAGE", 2)


# -- the tracer sees the library through the table ----------------------------


def load_spans():
    spans_py = ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(spans_py)
    exec(compile(spans_py.read_text(), str(spans_py), "exec"), module.__dict__)
    return module


def test_tracer_records_the_library_calls_of_table_commands(tmp_path,
                                                            monkeypatch):
    for name, doc in GOLDEN["documents"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    tracer = load_spans().Tracer()
    tracer.install_spans()
    try:
        tracer.on = True
        for argv in (["verify", "leibniz", "heis.json"],
                     ["classify", "product", "heis.json", "E_heis.json"],
                     ["check", "para-kahler", "heis.json", "B_heis.json",
                      "E_split4.json"]):
            assert cli.run_command(argv)[1] == 0
        tracer.on = False
        table = tracer.table()
    finally:
        tracer.uninstall()
    names = [table["names"][i] for i in table["name"]]
    # Spans called straight from run_command: the verdicts themselves, not
    # the validation that parsing runs.
    direct = {names[i] for i, p in enumerate(table["parent"])
              if p >= 0 and names[p] == "cli.run_command"}
    assert {"leibniz.verify_leibniz", "structures.classify_product",
            "kahler.check_para_kahler"} <= direct


# -- README ------------------------------------------------------------------

README = (ROOT / "README.md").read_text()


def test_readme_command_table_lists_exactly_the_commands():
    rows = re.findall(r"^\| `(\S+) (\S+)` \| ([^|]+) \|", README, re.M)
    listed = {(group, kind): len(paths.split(","))
              for group, kind, paths in rows}
    assert listed == {key: len(kinds)
                      for key, (kinds, _) in cli.COMMANDS.items()}


def test_readme_document_examples_parse():
    section = README.split("### Document formats", 1)[1]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    decoder, docs = json.JSONDecoder(), []
    for block in blocks:
        text = block.strip()
        while text:
            doc, end = decoder.raw_decode(text)
            docs.append(doc)
            text = text[end:].strip()
    kinds = ("algebra", "dendriform", "representation", "matrix", "subspace")
    assert len(docs) == len(kinds)
    for kind, doc in zip(kinds, docs):
        cli._PARSERS[kind](doc, "Q")


def test_readme_python_example_runs(capsys):
    section = README.split("A minimal example:", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "7\n"
