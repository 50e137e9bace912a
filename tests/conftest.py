"""Fixtures shared by the test modules."""

import pytest

from bninterp import Tuple
from bninterp.prover import _rows


def _shell(r):
    """(t, in_box) over the rank-r shell, in (g, d, ell, m) order: each
    (g, d) row of `prover._rows`, ell to r // 2 and m to the row's top."""
    for g, d, m_top, m_box in _rows(r):
        for ell in range(0, r // 2 + 1):
            for m in range(0, m_top + 1):
                yield Tuple(d, g, r, ell, m), m <= m_box


@pytest.fixture
def shell():
    """The rank-r shell as `shell(r)`, each tuple with whether it is in the box."""
    return _shell
