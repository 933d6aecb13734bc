"""Acceptance suite: every criterion at its full count and stated tolerance.

One test per criterion; each prints its PASS/FAIL line with the measured
extremes (visible with -s or in the failure report).  Tolerances live in
schurpos.verify next to the criterion implementations; nothing is loosened
here.
"""

import pytest

from schurpos import verify

SEED = verify.DEFAULT_SEED


@pytest.mark.parametrize("criterion", verify.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in verify.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion(SEED, limit=None)
    print(result.line())
    assert type(result.passed) is bool, type(result.passed)
    assert result.passed, result.line()
