"""The package's record types are immutable values.

``IntegralEstimate``, ``IdentityReport`` and ``SuiteReport`` are
NamedTuples.  None of them is a dataclass, whose generated methods are
compiled at import: ``IdentitySpec`` is the one dataclass, because the
benchmark's tracer swaps each row's ``run`` through ``dataclasses.replace``.
The quadrature takes no settings record: its tolerance and budget are
constants of ``quadrature``.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import eulergamma
from eulergamma import IdentityReport, IntegralEstimate, SuiteReport

# (type, positional fields, repr of that value)
RECORDS = [
    (IntegralEstimate, (1.5, 2e-15, 97, True),
     "IntegralEstimate(value=1.5, error_estimate=2e-15, evaluations=97, converged=True)"),
    (IdentityReport, ("reflection", {"x": 0.25}, 4.4, 4.4, 0.0, 0.0, 1e-12, True, None),
     "IdentityReport(identity_id='reflection', params={'x': 0.25}, lhs=4.4, rhs=4.4, "
     "abs_residual=0.0, rel_residual=0.0, tolerance=1e-12, passed=True, error=None)"),
    (SuiteReport, ((), 0, 0, {"grid": {"reflection": 22}}),
     "SuiteReport(reports=(), n_pass=0, n_fail=0, config_echo={'grid': {'reflection': 22}})"),
]
FIELDS = {
    IntegralEstimate: IntegralEstimate._fields,
    IdentityReport: IdentityReport._fields,
    SuiteReport: SuiteReport._fields,
}


def _other(value):
    """A value of a field's type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "!"
    if value is None:
        return "ValueError: x"
    if isinstance(value, dict):
        return {**value, "extra": 1.0}
    return value + (None,)


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, args, text):
    names = FIELDS[cls]
    assert len(names) == len(args)
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    assert positional == keyword
    assert not positional != keyword
    assert repr(positional) == repr(keyword) == text
    assert tuple(getattr(positional, name) for name in names) == args
    for i, name in enumerate(names):
        changed = list(args)
        changed[i] = _other(args[i])
        assert cls(*changed) != positional, name
        with pytest.raises(AttributeError):
            setattr(positional, name, changed[i])
        with pytest.raises(AttributeError):
            delattr(positional, name)
        assert getattr(positional, name) == args[i]
    with pytest.raises(AttributeError):
        positional.undeclared = 1


@pytest.mark.parametrize("cls, args", [(IntegralEstimate, (1.5, 2e-15, 97, True))],
                         ids=["IntegralEstimate"])
def test_equal_records_hash_equal(cls, args):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


def test_defaults():
    report = IdentityReport("reflection", {"x": 0.25}, 4.4, 4.4, 0.0, 0.0, 1e-12, True)
    assert report.error is None
    assert report == IdentityReport(*RECORDS[1][1])
    with pytest.raises(TypeError):
        IntegralEstimate(1.5, 2e-15, 97)


def test_identity_spec_is_the_only_dataclass():
    # A frozen dataclass compiles its generated methods at import (about
    # 1.8 ms for a 9-field record, 0.25 ms as a NamedTuple); record types
    # are NamedTuples.
    found = set()
    for info in pkgutil.iter_modules(eulergamma.__path__, "eulergamma."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)):
                found.add(f"{module.__name__}.{value.__qualname__}")
    assert found == {"eulergamma.identities.IdentitySpec"}
