"""Pure-Python and compiled kernels must agree bit for bit, not just closely."""

import math
import os
import subprocess
import sys

import pytest

from eulergamma import _kernels_py as ref
from eulergamma import NonFiniteIntegrandError
from eulergamma.backend import BACKEND

try:
    from eulergamma import _kernels as ext
except ImportError:
    ext = None

needs_ext = pytest.mark.skipif(ext is None, reason="compiled kernels unavailable")

# (family, p0, p1, p2, a, b) covering every fused evaluation path
FAMILY_CASES = [
    (ref.GAMMA_TAIL, 2.5, 0.0, 0.0, 0.0, 37.0),
    (ref.GAMMA_TAIL, -0.5, 0.0, 0.0, 0.0, 41.5),
    (ref.NEG_LOG_POW, 0.5, 0.0, 0.0, 0.0, 1.0),
    (ref.BETA, 0.5, 0.5, 0.0, 0.0, 1.0),
    (ref.BETA, 1.5, 1.5, 0.0, 0.0, 1.0),
    (ref.EULER_SYMBOL, 1.0, 1.0, 2.0, 0.0, 1.0),
    (ref.EULER_SYMBOL, 3.0, 2.0, 5.0, 0.0, 1.0),
    (ref.ALGEBRAIC, 2.0, 3.0, 0.0, 0.0, 1.0),
]


@needs_ext
def test_level_sum_bitwise_identical_across_families():
    for family, p0, p1, p2, a, b in FAMILY_CASES:
        h = 1.0
        for level in range(5):
            odd_only = level > 0
            got = ext.level_sum(a, b, h, odd_only, family, p0, p1, p2, None)
            want = ref.level_sum(a, b, h, odd_only, family, p0, p1, p2, None)
            assert got[0] == want[0], (family, level)
            assert got[1] == want[1], (family, level)
            h *= 0.5


@needs_ext
def test_level_sum_bitwise_identical_generic_callable():
    f = lambda x: math.cos(3.0 * x) / (1.0 + x * x)
    h = 0.5
    for level in range(4):
        got = ext.level_sum(-1.0, 2.0, h, level > 0, ref.GENERIC,
                            0.0, 0.0, 0.0, f)
        want = ref.level_sum(-1.0, 2.0, h, level > 0, ref.GENERIC,
                             0.0, 0.0, 0.0, f)
        assert got == want
        h *= 0.5


@needs_ext
def test_point_value_bitwise_identical():
    # Unit-interval families probed inside (0,1); the tail family anywhere > 0.
    for x in (1e-12, 0.03125, 0.5, 0.9375):
        for family, p0, p1, p2, a, b in FAMILY_CASES:
            got = ext.point_value(family, p0, p1, p2, x)
            want = ref.point_value(family, p0, p1, p2, x)
            assert got == want, (x, family)
    for x in (7.0, 36.5, 150.0):
        got = ext.point_value(ref.GAMMA_TAIL, 2.5, 0.0, 0.0, x)
        want = ref.point_value(ref.GAMMA_TAIL, 2.5, 0.0, 0.0, x)
        assert got == want, x


@needs_ext
def test_overflow_raises_and_probes_alike():
    # libm returns inf where Python's math raises OverflowError; both loops
    # must end in NonFiniteIntegrandError and both probes must read inf.
    cases = [(0.0, 1.0, 0.5, True, ref.NEG_LOG_POW, 150.0),
             (0.0, 8192.0, 1.0, False, ref.GAMMA_TAIL, 799.0)]
    for kernel in (ext, ref):
        for a, b, h, odd_only, family, p0 in cases:
            with pytest.raises(NonFiniteIntegrandError):
                kernel.level_sum(a, b, h, odd_only, family, p0, 0.0, 0.0, None)
        assert kernel.point_value(ref.GAMMA_TAIL, 799.0, 0.0, 0.0, 16.0) == math.inf


@needs_ext
def test_family_value_rejects_generic_tag():
    with pytest.raises(ValueError):
        ext.family_value(ref.GENERIC, 0.0, 0.0, 0.0, 0.5, 0.5, False)
    with pytest.raises(ValueError):
        ref.family_value(ref.GENERIC, 0.0, 0.0, 0.0, 0.5, 0.5, False)


def _backend_of(env_value):
    env = dict(os.environ)
    if env_value is None:
        env.pop("EULERGAMMA_BACKEND", None)
    else:
        env["EULERGAMMA_BACKEND"] = env_value
    return subprocess.run(
        [sys.executable, "-c", "from eulergamma import BACKEND; print(BACKEND)"],
        capture_output=True, text=True, env=env,
    )


def test_env_var_selects_python_backend():
    result = _backend_of("python")
    assert result.returncode == 0
    assert result.stdout.strip() == "python"


@needs_ext
def test_env_var_selects_compiled_backend():
    result = _backend_of("compiled")
    assert result.returncode == 0
    assert result.stdout.strip() == "compiled"


def test_env_var_rejects_unknown_backend():
    result = _backend_of("fortran")
    assert result.returncode != 0
    assert "EULERGAMMA_BACKEND" in result.stderr


def test_default_backend_prefers_compiled_when_built():
    result = _backend_of(None)
    assert result.returncode == 0
    if ext is not None:
        assert result.stdout.strip() == "compiled"
    else:
        assert result.stdout.strip() == "python"


def test_active_backend_is_reported():
    assert BACKEND in ("python", "compiled")


@needs_ext
def test_eval_output_bytes_identical_across_backends():
    cases = [
        ["eval", "gamma", "0.5", "--engine", "integral"],
        ["eval", "beta", "1.5", "1.5", "--engine", "integral"],
        ["eval", "symbol", "3", "2", "5", "--engine", "integral"],
        ["verify", "factorial-root", "--m", "2", "--n", "3",
         "--mode", "quadrature"],
    ]
    for args in cases:
        outputs = {}
        for backend in ("python", "compiled"):
            env = dict(os.environ, EULERGAMMA_BACKEND=backend)
            result = subprocess.run([sys.executable, "-m", "eulergamma", *args],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, (backend, args, result.stderr)
            # wall_time is the one field allowed to differ
            outputs[backend] = "\n".join(
                line for line in result.stdout.splitlines()
                if not line.startswith("wall_time"))
        assert outputs["python"] == outputs["compiled"], args


@needs_ext
def test_suite_json_bytes_identical_across_backends(tmp_path):
    paths = {}
    for backend in ("python", "compiled"):
        out = tmp_path / f"{backend}.json"
        env = dict(os.environ, EULERGAMMA_BACKEND=backend)
        result = subprocess.run(
            [sys.executable, "-m", "eulergamma", "suite", "--format", "json",
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        paths[backend] = out.read_bytes()
    assert paths["python"] == paths["compiled"]
