"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest


@pytest.fixture
def einsum_calls(monkeypatch):
    """Records each ``np.einsum`` call made from ``divmin.engine`` while the
    test runs, by the name of the function that made it: ``run`` for a
    forward node, ``backward`` for a reverse step."""
    calls = []
    einsum = np.einsum

    def counted(*operands, **kwargs):
        caller = sys._getframe(1)
        if caller.f_globals.get("__name__") == "divmin.engine":
            calls.append(caller.f_code.co_name)
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return calls
