"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import eulergamma
from eulergamma import quadrature


@pytest.fixture(autouse=True, scope="session")
def _children_import_the_package_under_test():
    """Child processes (``python -m eulergamma``) import the package these
    tests import, also when pytest found it through its ``pythonpath``
    setting rather than an install."""
    paths = [str(Path(eulergamma.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


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
