"""Fixtures shared by the test modules."""

import pytest

from eulergamma import quadrature


@pytest.fixture
def refine_calls(monkeypatch):
    """The argument tuples of every ``quadrature._refine`` call made while the
    test runs; each call is one quadrature actually computed."""
    calls = []
    original = quadrature._refine

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadrature, "_refine", counting)
    return calls
