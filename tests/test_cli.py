"""Command-line interface: verdicts, payload round-trips, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from leibniz_lab.cli import main, run_command
from leibniz_lab.io import (parse_algebra, parse_dendriform, parse_matrix,
                            parse_representation, parse_subspace,
                            serialize_algebra, serialize_dendriform,
                            serialize_matrix, serialize_representation)
from leibniz_lab.errors import ParseError, ValidationError
from leibniz_lab import (LeibnizAlgebra, regular_rep, subadjacent,
                         verify_leibniz)
from leibniz_lab.scalars import Scalar

ALGEBRA_DOC = {"dim": 4, "field": "Q", "basis": ["e1", "e2", "e3", "e4"],
               "brackets": [{"i": 0, "j": 2, "value": [{"k": 3, "c": "2"}]}]}
ZERO_DENDRIFORM_DOC = {"dim": 2, "field": "Q", "left": [], "right": []}
NON_LEIBNIZ_DOC = {"dim": 2, "brackets": [
    {"i": 0, "j": 1, "value": [{"k": 0, "c": "1"}]},
    {"i": 1, "j": 0, "value": [{"k": 1, "c": "1"}]}]}


@pytest.fixture
def write_doc(tmp_path):
    counter = [0]

    def write(doc):
        counter[0] += 1
        path = tmp_path / ("doc%d.json" % counter[0])
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def endo(rows):
    return {"matrix": [[str(e) for e in row] for row in rows]}


def test_parse_algebra_roundtrip():
    A = parse_algebra(ALGEBRA_DOC)
    assert A.dim == 4 and A.labels == ("e1", "e2", "e3", "e4")
    assert A.bracket_basis(0, 2)[3] == 2
    doc = serialize_algebra(A)
    assert parse_algebra(doc) == A


def test_parse_validation_flag():
    bad = NON_LEIBNIZ_DOC
    with pytest.raises(ValidationError):
        parse_algebra(bad)
    # The document cannot switch the check off; only the caller can.
    with pytest.raises(ValidationError):
        parse_algebra(dict(bad, validate=False))
    A = parse_algebra(bad, validate=False)
    assert not verify_leibniz(A).ok


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_algebra({"brackets": []})            # missing dim
    with pytest.raises(ParseError):
        parse_algebra({"dim": 1, "field": "R"})    # unknown field
    with pytest.raises(ParseError):
        parse_algebra({"dim": 1, "brackets": [
            {"i": 0, "j": 5, "value": []}]})       # index out of range
    with pytest.raises(ParseError):
        parse_algebra({"dim": 1, "brackets": [
            {"i": 0, "j": 0, "value": [{"k": 0, "c": "1/0"}]}]})
    with pytest.raises(ParseError):
        parse_algebra({"dim": 1, "brackets": [
            {"i": 0, "j": 0, "value": [{"k": 0, "c": "i"}]}]})  # i over Q
    with pytest.raises(ParseError):
        parse_matrix({"matrix": [["1", "2"], ["3"]]}, "Q")


def test_parse_gaussian_document():
    doc = {"dim": 1, "field": "Q(i)", "brackets": [
        {"i": 0, "j": 0, "value": [{"k": 0, "c": "1+2*i"}]}]}
    A = parse_algebra(doc, validate=False)
    assert A.field == "Q(i)"
    assert A.brackets[(0, 0)][0] == Scalar.of(1, 2)


def test_representation_roundtrip():
    R = regular_rep(parse_algebra(ALGEBRA_DOC))
    doc = serialize_representation(R)
    R2 = parse_representation(doc)
    assert R2.rep_dim == 4
    assert R2.left_maps == R.left_maps and R2.right_maps == R.right_maps


def test_dendriform_roundtrip():
    doc = {"dim": 1, "left": [{"i": 0, "j": 0,
                               "value": [{"k": 0, "c": "2"}]}],
           "right": [{"i": 0, "j": 0, "value": [{"k": 0, "c": "-2"}]}]}
    D = parse_dendriform(doc)
    assert (parse_algebra(serialize_algebra(subadjacent(D)))
            == LeibnizAlgebra.from_brackets(1, {}))
    doc2 = serialize_dendriform(D)
    assert parse_dendriform(doc2).left_brackets == D.left_brackets


def test_cli_verify_ok(write_doc):
    verdict, status = run_command(["verify", "leibniz",
                                   write_doc(ALGEBRA_DOC)])
    assert status == 0 and verdict["ok"] and verdict["reason"] is None


def test_cli_verify_violation(write_doc):
    bad = {"dim": 2, "brackets": [
        {"i": 0, "j": 1, "value": [{"k": 0, "c": "1"}]},
        {"i": 1, "j": 0, "value": [{"k": 1, "c": "1"}]}]}
    verdict, status = run_command(["verify", "leibniz", write_doc(bad)])
    assert status == 1 and not verdict["ok"]
    assert verdict["reason"] == "LEIBNIZ_FAILS"
    assert verdict["witnesses"][0]["lhs"] != verdict["witnesses"][0]["rhs"]


def test_cli_input_errors(write_doc):
    _, status = run_command(["verify", "leibniz", "/nonexistent.json"])
    assert status == 2
    verdict, status = run_command(["verify", "leibniz"])
    assert status == 2
    verdict, status = run_command(["verify", "nonsense",
                                   write_doc(ALGEBRA_DOC)])
    assert status == 2


def test_seed_may_stand_anywhere_in_argv(write_doc):
    """``--seed 3`` and ``--seed=3`` give the same verdict before, between
    and after the words of the command."""
    algebra = write_doc(ALGEBRA_DOC)
    form = write_doc(endo([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1],
                           [0, 0, 1, 0]]))
    for words in (["solve", "symplectic", algebra],
                  ["verify", "symplectic", algebra, form]):
        verdicts = [run_command(words[:at] + option + words[at:])
                    for option in (["--seed", "3"], ["--seed=3"])
                    for at in range(len(words) + 1)]
        assert verdicts == [run_command(words + ["--seed", "3"])] * len(
            verdicts)


@pytest.mark.parametrize("argv", [
    ["verify", "leibniz", "doc", "--seed", "x"],
    ["verify", "leibniz", "doc", "--seed=x"],
    ["verify", "leibniz", "doc", "--seed"],
    ["verify", "leibniz", "--sed", "3", "doc"],
    ["verify", "-x", "leibniz", "doc"],
    ["verify"],
    [],
    ["frobnicate", "leibniz", "doc"],
], ids=["seed-x", "seed=x", "trailing-seed", "sed", "short-option",
        "one-word", "empty", "unknown-group"])
def test_misuse_prints_a_usage_verdict(write_doc, capsys, argv):
    """Misuse of argv exits 2 with a USAGE verdict on stdout and nothing on
    stderr; every misuse but an unknown key says what was wrong."""
    argv = [write_doc(ALGEBRA_DOC) if word == "doc" else word
            for word in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    verdict = json.loads(out)
    assert (verdict["ok"], verdict["reason"], err) == (False, "USAGE", "")
    assert ("error" in verdict) != (argv[:1] == ["frobnicate"])


def test_help_lists_every_command(capsys):
    from leibniz_lab.cli import COMMANDS
    for option in ("-h", "--help"):
        assert main(["verify", option]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: leibniz-lab") and err == ""
        assert all(" %s %s " % key in out for key in COMMANDS)


@pytest.mark.parametrize("data, error", [
    (b'\xff\xfe{"dim": 1}', "can't decode byte 0xff"),
    (b"[" * 200000 + b"]" * 200000, "JSON nested too deeply"),
], ids=["not-utf8", "nested-200000-deep"])
def test_undecodable_documents_exit_2(tmp_path, monkeypatch, data, error):
    """A document that is not UTF-8, or that nests deeper than the decoder
    recurses, is malformed input (exit 2), from a path and from ``-``."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    verdict, status = run_command(["verify", "leibniz", str(path)])
    assert (status, verdict["reason"]) == (2, "ParseError")
    assert error in verdict["error"]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data),
                                                       encoding="utf-8"))
    verdict, status = run_command(["verify", "leibniz", "-"])
    assert (status, verdict["reason"]) == (2, "ParseError")
    assert verdict["error"].startswith("-: ") and error in verdict["error"]


CLI_MAIN = "import sys; from leibniz_lab.cli import main; sys.exit(main())"


def _cli_env(**extra):
    """The environment of a CLI child process that imports ``src``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **extra)


def test_stdin_is_decoded_as_a_path_is_under_the_c_locale(tmp_path):
    """Under LC_ALL=C the interpreter reads stdin as UTF-8 with
    surrogateescape, so a text read of ``-`` would take undecodable bytes;
    the document is read as bytes and decoded strictly for a path and for
    ``-`` alike, so both give the same error."""
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"dim": 1}')
    env = _cli_env(LC_ALL="C")
    for name in ("PYTHONUTF8", "PYTHONIOENCODING", "LANG", "LC_CTYPE"):
        env.pop(name, None)
    errors = []
    for arg in (str(path), "-"):
        with open(path, "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, "verify", "leibniz", arg],
                stdin=stdin, capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (2, b"")
        error = json.loads(proc.stdout)["error"]
        assert error.startswith(arg + ": ")
        errors.append(error[len(arg) + 2:])
    assert errors[0] == errors[1]
    assert "can't decode byte 0xff in position 0" in errors[0]


BIG = "1" + "0" * 5000   # past the interpreter's limit of 4300 digits


def _one_bracket(c):
    return json.dumps({"dim": 1, "brackets": [
        {"i": 0, "j": 0, "value": [{"k": 0, "c": c}]}]})


def _squares_witness(c):
    """[e0,e1] = c e0, [e1,e0] = c e1, [e1,e1] = c e0: the Leibniz identity
    fails with c^2 in the witness."""
    return json.dumps({"dim": 2, "brackets": [
        {"i": i, "j": j, "value": [{"k": k, "c": c}]}
        for i, j, k in ((0, 1, 0), (1, 0, 1), (1, 1, 0))]})


@pytest.mark.parametrize("text, reason, error", [
    ('{"dim": %s}' % BIG, "ParseError", "limit (4300"),
    (_one_bracket(BIG), "ParseError", "more than 4300 digits"),
    (_one_bracket("1/" + BIG), "ParseError", "more than 4300 digits"),
    (_squares_witness("1" + "0" * 3000), "TooLarge", "more than 4300 digits"),
], ids=["dim", "numerator", "denominator", "witness"])
def test_numbers_past_the_digit_limit_exit_2(tmp_path, monkeypatch, capsys,
                                             text, reason, error):
    """A number with more digits than the interpreter converts between int
    and str, read (a JSON integer, a scalar) or to be written (c^2 with
    6001 digits in a witness), is bad input: exit 2 with a verdict on
    stdout and nothing on stderr, from a path and from ``-``."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(text.encode())))
    for arg in (str(path), "-"):
        assert main(["verify", "leibniz", arg]) == 2
        out, err = capsys.readouterr()
        verdict = json.loads(out)
        assert (verdict["reason"], err) == (reason, "")
        assert error in verdict["error"]


def test_cli_reads_stdin_and_an_algebra_by_path(write_doc, monkeypatch):
    """``-`` reads the document from standard input, and a representation
    may name its algebra by an (absolute) path, as the README shows."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(json.dumps(ALGEBRA_DOC).encode())))
    verdict, status = run_command(["verify", "leibniz", "-"])
    assert status == 0 and verdict["ok"]
    path = write_doc({"dim": 2, "brackets": []})
    assert os.path.isabs(path)
    verdict, status = run_command(["construct", "semidirect", write_doc(
        {"algebra": path, "repDim": 1, "left": [[["0"]], [["0"]]],
         "right": [[["0"]], [["0"]]]})])
    assert status == 0 and verdict["payload"]["dim"] == 3


ONE_TERM = [{"i": 0, "j": 0, "value": [{"k": 0, "c": "1"}]}]


@pytest.mark.parametrize("command, doc, error", [
    (("solve", "symplectic"), NON_LEIBNIZ_DOC,
     "algebra fails the Leibniz identity at (0, 1, 0)"),
    (("construct", "subadjacent"),
     {"dim": 1, "left": ONE_TERM, "right": []},
     "dendriform axiom p1 fails at (0, 0, 0)"),
    (("construct", "semidirect"),
     {"algebra": {"dim": 1}, "repDim": 1, "left": [[["1"]]],
      "right": [[["1"]]]},
     "representation axiom AXIOM_R_COMPOSE fails at (0, 0)"),
], ids=["algebra", "dendriform", "representation"])
def test_documents_failing_their_axioms_exit_2(write_doc, capsys, command,
                                              doc, error):
    """A document that fails its axioms is reported on stdout with exit
    status 2, and nothing on stderr; the error names the witness indices."""
    assert main(list(command) + [write_doc(doc)]) == 2
    out, err = capsys.readouterr()
    verdict = json.loads(out)
    assert verdict["reason"] == "ValidationError" and err == ""
    assert verdict["error"] == error


def test_representation_needs_one_matrix_per_basis_index(write_doc):
    doc = {"algebra": {"dim": 2}, "repDim": 1, "left": [[["0"]]],
           "right": [[["0"]], [["0"]]]}
    assert _parse_error(write_doc, doc, ("construct", "semidirect"))
    assert _parse_error(write_doc, dict(doc, left=[[["0"]]] * 2, right=[]),
                        ("construct", "semidirect"))


def test_cli_classify_product(write_doc):
    verdict, status = run_command([
        "classify", "product", write_doc(ALGEBRA_DOC),
        write_doc(endo([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                        [0, 0, 0, 1]]))])
    assert status == 0
    payload = verdict["payload"]
    assert payload == {"isProduct": True, "isStrict": True,
                       "isAbelian": False, "isParacomplex": False,
                       "plusDim": 3, "minusDim": 1}


def test_cli_solve_symplectic(write_doc):
    verdict, status = run_command(["solve", "symplectic",
                                   write_doc(ALGEBRA_DOC)])
    assert status == 0
    assert verdict["payload"]["dim"] == 7
    assert verdict["payload"]["sampleNondegenerate"] is not None
    # determinism with an explicit seed
    verdict2, _ = run_command(["solve", "symplectic", write_doc(ALGEBRA_DOC),
                               "--seed", "3"])
    verdict3, _ = run_command(["solve", "symplectic", write_doc(ALGEBRA_DOC),
                               "--seed", "3"])
    assert verdict2 == verdict3


def test_cli_solve_symplectic_reports_a_null_sample(write_doc, capsys):
    """On the Heisenberg algebra [e0, e1] = e2 = -[e1, e0] every solution
    vanishes on e2, so the form space has a nonzero radical and no member
    is nondegenerate: the command passes with a null sample."""
    algebra = write_doc({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "value": [{"k": 2, "c": "1"}]},
        {"i": 1, "j": 0, "value": [{"k": 2, "c": "-1"}]}]})
    verdict, status = run_command(["solve", "symplectic", algebra])
    assert status == 0 and verdict["ok"]
    z = ["0", "0", "0"]
    assert verdict["payload"] == {"dim": 3, "basis": [
        [["1", "0", "0"], z, z],
        [["0", "1", "0"], ["1", "0", "0"], z],
        [z, ["0", "1", "0"], z]], "sampleNondegenerate": None}
    assert main(["solve", "symplectic", algebra]) == 0
    assert '"sampleNondegenerate": null' in capsys.readouterr().out


def test_cli_construct_phase_space_roundtrip(write_doc):
    verdict, status = run_command(["construct", "phase-space",
                                   write_doc(ZERO_DENDRIFORM_DOC)])
    assert status == 0 and verdict["ok"]
    rebuilt = parse_algebra(verdict["payload"]["algebra"])
    assert rebuilt.dim == 4 and verify_leibniz(rebuilt).ok


def test_cli_check_para_kahler(write_doc):
    a = write_doc(ALGEBRA_DOC)
    b = write_doc(endo([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0],
                        [1, 0, 0, 0]]))
    e = write_doc(endo([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0],
                        [0, 0, 0, -1]]))
    verdict, status = run_command(["check", "para-kahler", a, b, e])
    assert status == 0 and verdict["ok"]


def test_cli_check_phase_space_and_enumerate(write_doc):
    verdict, status = run_command(["check", "phase-space",
                                   write_doc(ZERO_DENDRIFORM_DOC)])
    assert status == 0 and verdict["ok"]
    verdict, status = run_command(["enumerate", "products",
                                   write_doc(ALGEBRA_DOC)])
    assert status == 0 and verdict["payload"]["count"] >= 6


def test_cli_construct_levi_civita(write_doc):
    a = write_doc({"dim": 2, "brackets": []})
    s = write_doc(endo([[0, 1], [-1, 0]]))
    verdict, status = run_command(["construct", "levi-civita", a, s])
    assert status == 0
    assert verdict["payload"]["star"] == [[["0", "0"], ["0", "0"]],
                                          [["0", "0"], ["0", "0"]]]


def test_cli_math_precondition_failure_exits_1(write_doc):
    a = write_doc({"dim": 2, "brackets": []})
    s = write_doc(endo([[1, 0], [0, 1]]))   # not skew
    verdict, status = run_command(["construct", "levi-civita", a, s])
    assert status == 1 and verdict["reason"] == "DegenerateForm"


I2 = endo([[1, 0], [0, 1]])
I3 = endo([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
SWAP2 = endo([[0, 1], [1, 0]])
J2 = endo([[0, -1], [1, 0]])
RATIONAL_2 = {"dim": 2, "brackets": []}
GAUSSIAN_2 = {"dim": 2, "field": "Q(i)", "brackets": []}


def _misuse(write_doc, command, *docs, reason="DimensionMismatch"):
    """Misuse exits 2 with its reason, never a mathematical verdict: inputs
    of mismatched sizes give DimensionMismatch, an algebra over a field the
    command does not take gives WrongField, and one past the enumeration cap
    gives TooLarge."""
    verdict, status = run_command(list(command)
                                  + [write_doc(doc) for doc in docs])
    return status == 2 and verdict["reason"] == reason


def test_symplectic_form_of_wrong_size_exits_2(write_doc):
    assert _misuse(write_doc, ("verify", "symplectic"),
                   {"dim": 2, "brackets": []}, I3)


def test_classify_product_operator_of_wrong_size_exits_2(write_doc):
    assert _misuse(write_doc, ("classify", "product"),
                   {"dim": 2, "brackets": []}, I3)


def test_manin_triple_subspace_in_wrong_space_exits_2(write_doc):
    assert _misuse(write_doc, ("check", "manin-triple"), ZERO_DENDRIFORM_DOC,
                   SWAP2, {"vectors": [["1", "0", "0"]]},
                   {"vectors": [["0", "1"]]})


def test_manin_triple_subspaces_are_read_in_the_algebra_field(write_doc):
    """x^2 + y^2 has no isotropic vector over Q: a subspace document's own
    field cannot bring Q(i) vectors into a rational command, and without a
    field key the vectors of a Q(i) command are read over Q(i)."""
    verdict, status = run_command(["check", "manin-triple"] + [
        write_doc(doc) for doc in (
            ZERO_DENDRIFORM_DOC, I2,
            {"field": "Q(i)", "vectors": [["1", "i"]]},
            {"field": "Q(i)", "vectors": [["1", "-i"]]})])
    assert status == 2 and verdict["reason"] == "ParseError"
    verdict, status = run_command(["check", "manin-triple"] + [
        write_doc(doc) for doc in (
            dict(ZERO_DENDRIFORM_DOC, field="Q(i)"), I2,
            {"vectors": [["1", "i"]]}, {"vectors": [["1", "-i"]]})])
    assert status == 0 and verdict["ok"] is True


def test_invariant_form_of_wrong_size_exits_2(write_doc):
    assert _misuse(write_doc, ("verify", "invariant"),
                   {"dim": 1, "left": [], "right": []}, endo([[1, 0], [0, 1]]))


def test_quadratic_form_of_wrong_size_exits_2(write_doc):
    assert _misuse(write_doc, ("verify", "quadratic"), ZERO_DENDRIFORM_DOC, I3)


def test_levi_civita_form_of_wrong_size_exits_2(write_doc):
    assert _misuse(write_doc, ("construct", "levi-civita"),
                   {"dim": 2, "brackets": []}, I3)


def _parse_error(write_doc, doc, command=("verify", "leibniz")):
    verdict, status = run_command(list(command) + [write_doc(doc)])
    return status == 2 and verdict["reason"] == "ParseError"


def test_bracket_entry_not_an_object_is_a_parse_error(write_doc):
    assert _parse_error(write_doc, {"dim": 2, "brackets": [5]})
    assert _parse_error(write_doc, {"dim": 2, "brackets": [["i", "j"]]})


def test_bracket_value_not_a_list_is_a_parse_error(write_doc):
    assert _parse_error(write_doc, {"dim": 2, "brackets": [
        {"i": 0, "j": 0, "value": 5}]})


def test_bracket_term_not_an_object_is_a_parse_error(write_doc):
    assert _parse_error(write_doc, {"dim": 2, "brackets": [
        {"i": 0, "j": 0, "value": [7]}]})
    assert _parse_error(write_doc, {"dim": 2, "left": [
        {"i": 0, "j": 0, "value": ["k"]}], "right": []},
        ("verify", "dendriform"))


def test_basis_not_a_list_is_a_parse_error(write_doc):
    assert _parse_error(write_doc, {"dim": 2, "basis": 7})


def test_basis_length_must_match_dim(write_doc):
    assert _parse_error(write_doc, {"dim": 2, "basis": ["e1"]})
    assert _parse_error(write_doc, {"dim": 1, "basis": ["e1", "e2"]})
    verdict, status = run_command(["verify", "leibniz", write_doc(
        {"dim": 2, "basis": ["e1", "e2"]})])
    assert status == 0


def test_bool_dim_is_a_parse_error(write_doc):
    assert _parse_error(write_doc, {"dim": True})
    assert _parse_error(write_doc, {"dim": False, "left": [], "right": []},
                        ("verify", "dendriform"))
    rep_doc = serialize_representation(regular_rep(parse_algebra(ALGEBRA_DOC)))
    assert _parse_error(write_doc, dict(rep_doc, repDim=True),
                        ("verify", "rep"))


def test_bool_index_is_a_parse_error(write_doc):
    for entry in ({"i": True, "j": 0, "value": []},
                  {"i": 0, "j": True, "value": []},
                  {"i": 0, "j": 0, "value": [{"k": True, "c": "1"}]}):
        assert _parse_error(write_doc, {"dim": 2, "brackets": [entry]})


@pytest.mark.parametrize("command", [("verify", "symplectic"),
                                     ("solve", "symplectic"),
                                     ("enumerate", "products")])
def test_a_document_cannot_skip_validation(write_doc, command):
    """These verdicts only mean something on a Leibniz algebra, so a
    ``"validate": false`` key in the document does not skip the check."""
    paths = [write_doc(dict(NON_LEIBNIZ_DOC, validate=False))]
    if command == ("verify", "symplectic"):
        paths.append(write_doc(endo([[1, 0], [0, 1]])))
    verdict, status = run_command(list(command) + paths)
    assert status == 2 and verdict["reason"] == "ValidationError"


def _term(c):
    return {"k": 1, "c": c}


@pytest.mark.parametrize("entries", [
    [{"i": 0, "j": 0, "value": [_term("1"), _term("2")]}],
    [{"i": 0, "j": 0, "value": [_term("1")]},
     {"i": 0, "j": 0, "value": [_term("5")]}]])
def test_repeated_bracket_entries_are_parse_errors(write_doc, entries):
    """A repeated k in an entry, or a repeated (i, j), is refused: it used
    to be merged silently, the last value winning."""
    algebra = {"dim": 2, "brackets": entries}
    assert _parse_error(write_doc, algebra)
    assert _parse_error(write_doc, {"dim": 2, "left": entries, "right": []},
                        ("verify", "dendriform"))
    assert _parse_error(write_doc, {"algebra": algebra, "repDim": 0,
                                    "left": [[], []], "right": [[], []]},
                        ("construct", "semidirect"))


def test_a_bad_scalar_is_reported_before_a_repeated_entry(write_doc):
    verdict, status = run_command(["solve", "symplectic", write_doc(
        {"dim": 2, "brackets": [{"i": 0, "j": 0, "value": [_term("1")]},
                                {"i": 0, "j": 0, "value": [_term("3*i")]}]})])
    assert status == 2 and "imaginary scalar" in verdict["error"]


def test_subspace_vectors_must_be_equal_length_lists():
    for vectors in (5, [5], [["1", "0"], ["1"]]):
        with pytest.raises(ParseError):
            parse_subspace({"vectors": vectors}, "Q")


def test_closed_stdout_pipe_exits_with_verdict_status(write_doc):
    """``leibniz-lab ... | head -c 10``: no traceback, the verdict's status."""
    env = _cli_env()
    good = write_doc(ALGEBRA_DOC)
    bad = write_doc({"dim": 2, "brackets": [
        {"i": 0, "j": 1, "value": [{"k": 0, "c": "1"}]},
        {"i": 1, "j": 0, "value": [{"k": 1, "c": "1"}]}]})
    for argv, expected in ((["solve", "symplectic", good], 0),
                           (["verify", "leibniz", bad], 1)):
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_MAIN] + argv,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()   # the reader is gone before anything is written
        stderr = proc.stderr.read()
        assert (proc.wait(), stderr) == (expected, b"")


HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis")
# What the standard option parser loads; argv is read from ``COMMANDS``.
OPTION_PARSER = ("argparse", "gettext", "locale")


def _loaded_by(code):
    """The package modules, ``HEAVY`` and ``OPTION_PARSER`` modules and
    ``random`` that a fresh interpreter has loaded after running ``code``;
    ``-S`` keeps the modules of ``site`` and its ``.pth`` files out."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "\nimport sys\nprint(*[m for m "
         "in sys.modules if m.startswith('leibniz_lab') or m in %r])"
         % (HEAVY + OPTION_PARSER + ("random",),)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    return set(proc.stdout.split())


def _modules(*layers):
    return {"leibniz_lab." + layer for layer in layers}


def test_cli_import_loads_neither_dataclasses_nor_typing():
    """The records are plain slotted classes, so a fresh ``leibniz-lab``
    process does not import dataclasses and what it pulls in."""
    assert _loaded_by("import leibniz_lab.cli") & set(HEAVY) == set()


def test_a_command_loads_only_the_layers_it_runs(write_doc):
    """The package and the CLI import a layer module when it is first used,
    so a process compiles only the layers its command runs."""
    assert _loaded_by("import leibniz_lab") == {"leibniz_lab"}
    run = "from leibniz_lab.cli import main\nmain(%r)"
    loaded = _loaded_by(run % (["verify", "leibniz", write_doc(ALGEBRA_DOC)],))
    assert loaded & (_modules("dendriform", "representations", "symplectic",
                              "structures", "kahler") | {"random"}) == set()
    assert loaded & set(OPTION_PARSER) == set()
    loaded = _loaded_by(run % (["solve", "symplectic",
                                write_doc(ALGEBRA_DOC)],))
    assert "leibniz_lab.symplectic" in loaded
    assert loaded & (_modules("structures", "kahler")
                     | set(OPTION_PARSER)) == set()


TWICE_I3 = endo([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
WIDE = endo([[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("bad", [TWICE_I3, WIDE], ids=["2I3", "2x3"])
def test_operator_of_wrong_shape_exits_2(write_doc, bad):
    """A wrongly shaped operator is misuse whether or not it happens to be
    an involution: it never reaches a mathematical verdict."""
    E = endo([[1, 0], [0, -1]])
    cases = [(("classify", "product"), RATIONAL_2, bad),
             (("classify", "complex"), RATIONAL_2, bad),
             (("check", "para-kahler"), RATIONAL_2, SWAP2, bad),
             (("check", "complex-product"), RATIONAL_2, bad, E),
             (("check", "complex-product"), RATIONAL_2, J2, bad),
             (("check", "pseudo-kahler"), RATIONAL_2, SWAP2, bad),
             (("construct", "complexify"), RATIONAL_2, SWAP2, bad),
             (("construct", "realify"), GAUSSIAN_2, SWAP2, bad)]
    for command, *docs in cases:
        assert _misuse(write_doc, command, *docs), command


def test_complexify_of_gaussian_algebra_exits_2(write_doc):
    assert _misuse(write_doc, ("construct", "complexify"), GAUSSIAN_2,
                   SWAP2, J2, reason="WrongField")


def test_classify_complex_on_gaussian_algebra_exits_2(write_doc):
    assert _misuse(write_doc, ("classify", "complex"), GAUSSIAN_2, J2,
                   reason="WrongField")


def test_pseudo_kahler_on_gaussian_algebra_exits_2(write_doc):
    assert _misuse(write_doc, ("check", "pseudo-kahler"), GAUSSIAN_2,
                   SWAP2, J2, reason="WrongField")


def test_realify_of_rational_algebra_exits_2(write_doc):
    assert _misuse(write_doc, ("construct", "realify"), RATIONAL_2,
                   SWAP2, endo([[1, 0], [0, -1]]), reason="WrongField")


def test_enumerate_products_past_the_cap_exits_2(write_doc):
    assert _misuse(write_doc, ("enumerate", "products"),
                   {"dim": 25, "brackets": []}, reason="TooLarge")


REP_OF_ZERO_ALGEBRA = {"algebra": {"dim": 0, "field": "Q", "brackets": []},
                       "repDim": 2, "left": [], "right": []}


def test_semidirect_of_zero_algebra_keeps_the_module(write_doc):
    """E + V is 2-dim when E is 0-dim and V is 2-dim."""
    verdict, status = run_command(["construct", "semidirect",
                                   write_doc(REP_OF_ZERO_ALGEBRA)])
    assert status == 0 and verdict["payload"]["dim"] == 2
    assert verdict["payload"]["brackets"] == []


def test_dual_rep_of_zero_algebra_keeps_the_module(write_doc):
    verdict, status = run_command(["construct", "dual-rep",
                                   write_doc(REP_OF_ZERO_ALGEBRA)])
    assert status == 0 and verdict["payload"]["repDim"] == 2
    assert verdict["payload"]["algebra"]["dim"] == 0


def test_matrices_of_a_zero_dim_module_must_be_empty(write_doc):
    """repDim 0 takes 0x0 matrices only; a 1x1 action is not dropped."""
    doc = {"algebra": {"dim": 1, "brackets": []}, "repDim": 0,
           "left": [[["1"]]], "right": [[["1"]]]}
    verdict, status = run_command(["construct", "semidirect", write_doc(doc)])
    assert status == 2 and verdict["reason"] == "ParseError"
    doc.update(left=[[]], right=[[]])
    verdict, status = run_command(["construct", "semidirect", write_doc(doc)])
    assert status == 0 and verdict["payload"]["dim"] == 1


def test_solve_and_verify_agree_on_the_zero_algebra(write_doc, capsys):
    """The 0 x 0 form is the one member of the 0-dim algebra's form space
    and it is nondegenerate: solve samples it and verify accepts it."""
    algebra = write_doc({"dim": 0, "brackets": []})
    verdict, status = run_command(["verify", "symplectic", algebra,
                                   write_doc({"matrix": []})])
    assert status == 0 and verdict["ok"]
    verdict, status = run_command(["solve", "symplectic", algebra])
    assert status == 0
    assert verdict["payload"] == {"dim": 0, "basis": [],
                                  "sampleNondegenerate": []}
    assert main(["solve", "symplectic", algebra]) == 0
    assert '"sampleNondegenerate": []' in capsys.readouterr().out
