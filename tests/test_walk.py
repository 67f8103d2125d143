"""Every check of the cached walk of S_1..S_8 in tests/oracles.py, one test each."""

import pytest

from oracles import CHECKS, faults


@pytest.mark.parametrize("check", CHECKS)
def test_no_permutation_fails(check):
    assert faults(check) == []
