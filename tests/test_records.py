"""The package's record types are immutable values.

``QuadratureConfig`` is a slots class that validates; ``IntegralEstimate``,
``IdentityReport`` and ``SuiteReport`` are NamedTuples.  None of them is a
dataclass, whose generated methods are compiled at import: ``IdentitySpec``
is the one dataclass, because the benchmark's tracer swaps each row's
``run`` through ``dataclasses.replace``.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import eulergamma
from eulergamma import (
    DEFAULT_CONFIG,
    IdentityReport,
    IntegralEstimate,
    QuadratureConfig,
    SuiteReport,
)

# (type, positional fields, repr of that value)
RECORDS = [
    (QuadratureConfig, (1e-10, 1e-09, 5),
     "QuadratureConfig(abs_tol=1e-10, rel_tol=1e-09, max_refinements=5)"),
    (IntegralEstimate, (1.5, 2e-15, 97, True),
     "IntegralEstimate(value=1.5, error_estimate=2e-15, evaluations=97, converged=True)"),
    (IdentityReport, ("reflection", {"x": 0.25}, 4.4, 4.4, 0.0, 0.0, 1e-12, True, None),
     "IdentityReport(identity_id='reflection', params={'x': 0.25}, lhs=4.4, rhs=4.4, "
     "abs_residual=0.0, rel_residual=0.0, tolerance=1e-12, passed=True, error=None)"),
    (SuiteReport, ((), 0, 0, {"rel_tol": 1e-11}),
     "SuiteReport(reports=(), n_pass=0, n_fail=0, config_echo={'rel_tol': 1e-11})"),
]
FIELDS = {
    QuadratureConfig: ("abs_tol", "rel_tol", "max_refinements"),
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


@pytest.mark.parametrize("cls, args", [(QuadratureConfig, (1e-10, 1e-09, 5)),
                                       (IntegralEstimate, (1.5, 2e-15, 97, True))],
                         ids=["QuadratureConfig", "IntegralEstimate"])
def test_equal_records_hash_equal(cls, args):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


def test_configs_equal_by_value_share_a_memo_key():
    # The suite memo keys on the config: a config built from the defaults is
    # the default config's key.
    built = QuadratureConfig(1e-12, 1e-11, 12)
    assert built is not DEFAULT_CONFIG
    assert built == DEFAULT_CONFIG and hash(built) == hash(DEFAULT_CONFIG)
    assert {("beta", built): 1}[("beta", DEFAULT_CONFIG)] == 1
    assert QuadratureConfig(rel_tol=1e-10) != DEFAULT_CONFIG
    # Not equal to its fields as a plain tuple.
    assert DEFAULT_CONFIG != (1e-12, 1e-11, 12)
    assert DEFAULT_CONFIG.__eq__((1e-12, 1e-11, 12)) is NotImplemented


def test_defaults():
    assert QuadratureConfig() == QuadratureConfig(1e-12, 1e-11, 12)
    report = IdentityReport("reflection", {"x": 0.25}, 4.4, 4.4, 0.0, 0.0, 1e-12, True)
    assert report.error is None
    assert report == IdentityReport(*RECORDS[2][1])
    with pytest.raises(TypeError):
        IntegralEstimate(1.5, 2e-15, 97)


def test_config_survives_copy_and_pickle():
    cfg = QuadratureConfig(rel_tol=1e-9, max_refinements=7)
    for clone in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert clone == cfg and hash(clone) == hash(cfg)
        assert type(clone) is QuadratureConfig


def test_identity_spec_is_the_only_dataclass():
    # A frozen dataclass compiles its generated methods at import (about
    # 1.8 ms for a 9-field record, 0.25 ms as a NamedTuple); record types
    # are NamedTuples or slots classes.
    found = set()
    for info in pkgutil.iter_modules(eulergamma.__path__, "eulergamma."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)):
                found.add(f"{module.__name__}.{value.__qualname__}")
    assert found == {"eulergamma.identities.IdentitySpec"}
