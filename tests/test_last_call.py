"""The one-entry identity memo of the verdict cores.

``symplectic._verify_symplectic`` and ``structures._integrability`` are
wrapped in ``leibniz._last_call``: a call whose every argument ``is`` the
stored one returns the stored verdict.  Each core must give the verdict of
its undecorated function (``__wrapped__``) on passing and failing inputs
over Q and Q(i), evaluate equal but distinct arguments afresh, store no
error, and keep no more than one call's arguments alive.
"""

import gc
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import diag, mat, random_dendriform, random_leibniz
from test_term_tables import typed
from leibniz_lab import (LeibnizAlgebra, build_phase_space, complexify,
                         killing_form, verify_symplectic)
from leibniz_lab import structures, symplectic
from leibniz_lab.errors import DimensionMismatch
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import Scalar

SETTINGS = settings(max_examples=60, deadline=None)
CORES = (symplectic._verify_symplectic, structures._integrability)
# The callees each core reaches on every evaluation (``first_defect`` only
# once the form is symmetric and nondegenerate).
SPIED = ((symplectic, ("_require_square", "first_defect")),
         (structures, ("first_witness",)))


def verdict(check):
    return (check.ok, check.reason, check.indices, typed(check.lhs),
            typed(check.rhs))


def fresh(arg):
    """An argument equal to ``arg`` that is another object, None for c (an
    int, which the interpreter shares)."""
    if isinstance(arg, LeibnizAlgebra):
        return LeibnizAlgebra(arg.dim, {key: dict(value) for key, value
                                        in arg.brackets.items()},
                              arg.field, arg.labels)
    if isinstance(arg, Matrix):
        return Matrix(arg.rows, arg.cols,
                      tuple(dict(row) for row in arg.nonzero))
    if isinstance(arg, tuple):   # the term table
        return tuple(list(arg))
    return None


def core_calls(A, B, M, c):
    """Each core with its arguments: the symplectic table is read from the
    module, as every caller passes it."""
    return ((CORES[0], (A, B, symplectic.SYMPLECTIC)),
            (CORES[1], (A, M, c)))


def spy(mp, module, names):
    """Record each call of the named functions of ``module``."""
    calls = []
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        mp.setattr(module, name, counted)
    return calls


def random_matrix(rng, n, field):
    return Matrix.from_rows([[
        Scalar.of(rng.randint(-2, 2),
                  rng.randint(-1, 1) if field == "Q(i)" else 0)
        for _ in range(n)] for _ in range(n)])


@st.composite
def cases(draw):
    """(A, B, M, c) over Q or Q(i).  A is the phase space of a conftest
    dendriform algebra with its pairing (symplectic), or a conftest
    nilpotent algebra with a random symmetric form (its forms are all
    degenerate); B then stays, is perturbed, loses its symmetry or becomes
    singular.  M is a diagonal +-1 operator, the complex structure
    [[0, -I], [I, 0]] of an even dimension or a random matrix, c = +-1."""
    rng = Random(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        P = build_phase_space(random_dendriform(rng, draw(st.integers(1, 3))))
        A, B = P.total, P.form
    else:
        A = random_leibniz(rng, draw(st.integers(2, 5)))
        B = random_matrix(rng, A.dim, "Q")
        B = B + B.transpose()
    n = A.dim
    mode = draw(st.sampled_from(["as is", "perturbed", "not symmetric",
                                 "singular"]))
    if mode == "perturbed":
        B = B + diag(*[rng.randint(-1, 1) for _ in range(n)])
    elif mode == "not symmetric":
        B = B + Matrix(n, n, ({n - 1: Scalar.one()},) + ({},) * (n - 1))
    elif mode == "singular":
        B = Matrix(n, n, B.nonzero[:-1] + ({},))
        B = Matrix(n, n, tuple({q: v for q, v in row.items() if q < n - 1}
                               for row in B.nonzero))
    field = draw(st.sampled_from(["Q", "Q(i)"]))
    if field == "Q(i)":
        A, B = complexify(A), B.scale(Scalar.of(1, 2))
    kind = draw(st.sampled_from(["diagonal", "complex", "random"]))
    if kind == "diagonal" or (kind == "complex" and n % 2):
        M = diag(*[rng.choice((1, -1)) for _ in range(n)])
    elif kind == "complex":
        h = n // 2
        M = Matrix(n, n, tuple({h + a: Scalar.of(-1)} for a in range(h))
                   + tuple({a: Scalar.one()} for a in range(h)))
    else:
        M = random_matrix(rng, n, field)
    return A, B, M, draw(st.sampled_from([1, -1]))


@SETTINGS
@given(cases())
def test_each_core_gives_the_verdict_of_its_undecorated_function(case):
    for core, args in core_calls(*case):
        got = core(*args)
        assert core(*args) is got
        assert verdict(got) == verdict(core.__wrapped__(*args))


@pytest.mark.parametrize("form", ["killing", "identity", "swapped"])
def test_sl2_verdicts_match_the_undecorated_functions(sl2, form):
    B = {"killing": killing_form(sl2), "identity": diag(1, 1, 1),
         "swapped": mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])}[form]
    for M in (diag(1, -1, 1), diag(1, 1, 1), mat([[0, 1, 0], [1, 0, 0],
                                                  [0, 0, 1]])):
        for c in (1, -1):
            for core, args in core_calls(sl2, B, M, c):
                assert verdict(core(*args)) == verdict(
                    core.__wrapped__(*args))


@SETTINGS
@given(cases())
def test_equal_but_distinct_arguments_are_evaluated_afresh(case):
    for (core, args), (module, names) in zip(core_calls(*case), SPIED):
        with pytest.MonkeyPatch.context() as mp:
            calls = spy(mp, module, names)
            first = core(*args)
            once = list(calls)
            assert once
            assert core(*args) is first and calls == once
            for place, arg in enumerate(args):
                copy = fresh(arg)
                if copy is None:
                    continue
                del calls[:]
                other = args[:place] + (copy,) + args[place + 1:]
                assert other[place] == arg and other[place] is not arg
                assert verdict(core(*other)) == verdict(first)
                assert calls == once


@pytest.mark.parametrize("size", [1, 5])
def test_a_call_that_raises_stores_nothing(size):
    """A form or operator of the wrong shape raises DimensionMismatch on
    every call, and the stored verdict still answers its own arguments."""
    P = build_phase_space(random_dendriform(Random(3), 2))
    A, B, M = P.total, P.form, diag(1, 1, -1, -1)
    wrong = diag(*[1] * size)
    table = symplectic.SYMPLECTIC
    for (core, args, bad), (module, names) in zip(
            ((CORES[0], (A, B, table), (A, wrong, table)),
             (CORES[1], (A, M, 1), (A, wrong, 1))), SPIED):
        stored = core(*args)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy(mp, module, names)
            for _ in range(2):
                with pytest.raises(DimensionMismatch):
                    core(*bad)
                del calls[:]
                assert core(*args) is stored and not calls


def test_the_memo_keeps_no_more_than_one_call_alive():
    """500 distinct (A, B) pairs through the public verifier: what stays
    allocated afterwards is at most one pair with its verdict."""
    def pair(seed):
        P = build_phase_space(random_dendriform(Random(seed), 3))
        return P.total, P.form

    verify_symplectic(*pair(0))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        kept = pair(1)
        kept += (verify_symplectic(*kept),)
        gc.collect()
        one = tracemalloc.get_traced_memory()[0] - before
        del kept   # the memo still holds pair 1
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for seed in range(2, 502):
            assert verify_symplectic(*pair(seed)).ok
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert 0 < one and growth <= one
