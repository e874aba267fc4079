"""Pinned witnesses: each identity verifier, one failing input each.

The cases and the recorded witnesses live in ``witness_cases.py``, which
``replay_cli_golden.py`` also reads on interpreters without pytest.
"""

import pytest

from witness_cases import CASES, EXPECTED


@pytest.mark.parametrize("name", sorted(CASES))
def test_first_witness_is_pinned(name):
    check = CASES[name]()
    assert not check.ok
    got = (check.reason, check.indices,
           [str(c) for c in check.lhs], [str(c) for c in check.rhs])
    assert got == EXPECTED[name]
