"""The three workloads: inputs from a seed, one timed unit, and its gate.

Each workload builds its inputs from ``--seed`` before anything is timed,
calls the package only through its public entry points, and checks every
unit it times.  A unit that fails its gate, or raises, counts as failed; it
is never dropped or re-drawn.

suite-default
    One unit is a fresh ``python -m eulergamma suite --format json`` child
    on the default 640-case grid.  The seed changes nothing: the default
    grid is the workload.
integrals-unique
    One unit is 10 distinct integrals, two of each kind in ``KINDS``, drawn
    from the seed over the parameter ranges the default suite passes to each
    engine; no integral repeats within a run.
closed-form-wide
    One unit is ``run_suite`` plus ``render_csv`` over one slice of a widened
    closed-form grid; a pass over all slices covers the grid once.

Each workload reads its latency tail at a fixed percentile,
``tail_percentile``: the highest of p80, p90, p95, p99 and p99.5 with at
least 10 units beyond it in a 20 s run at reference speed.  It is fixed so
that two versions of the program are compared at the same rank of the tail
however many units each completes.  ``period`` is the number of distinct
units before they repeat (closed-form-wide's slices), so that a traced run
can time each of them both traced and untraced.  ``prepare`` computes what
the gate needs; the peak-RSS pass runs units without it.
"""

import importlib
import json
import math
import random
import sys
import traceback
from pathlib import Path

from refjobs import (
    LOOP_NOMINAL_S,
    START_NOMINAL_S,
    Normalizer,
    SpeedSampler,
    StartJob,
    loop_job,
    run_child,
    timed_call,
)


class Context:
    """Where the benchmark runs: interpreter, child environment, temporary dir."""

    def __init__(self, root, tmp, env):
        self.root = root
        self.tmp = tmp
        self.env = env
        self.python = sys.executable


def _guarded(fn, *args):
    """Run fn, turning an exception into the result so the gate can fail it."""
    try:
        return fn(*args)
    except Exception as exc:  # a raising unit is a failed unit, not a crash
        traceback.print_exc()
        return exc


# --------------------------------------------------------------- suite-default

SUITE_CASES = 640


class SuiteDefault:
    name = "suite-default"
    setup_module = "eulergamma.cli"
    in_process = False
    n_units = None  # every unit is the same default suite, in a new process
    period = None
    tail_percentile = 80.0  # about 57 units in 20 s

    def __init__(self, ctx, seed, seconds):
        self.ctx = ctx
        self.out = ctx.tmp / "suite.json"

    def prepare(self):
        pass

    def argv(self):
        return ["suite", "--format", "json", "--out", str(self.out)]

    def normalizer(self):
        return Normalizer(StartJob(self.ctx.python, self.ctx.env, self.ctx.root),
                          START_NOMINAL_S)

    def unit(self, i):
        if self.out.exists():
            self.out.unlink()
        result = run_child([self.ctx.python, "-m", "eulergamma", *self.argv()],
                           self.ctx.env, self.ctx.root)
        return result.cpu_s, result

    def check(self, i, result):
        return result.returncode == 0 and suite_json_ok(self.out)


def suite_json_ok(path):
    """The suite gate: 640 reports, all passing, in parseable JSON."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return False
    reports = document.get("reports")
    summary = document.get("summary", {})
    return (isinstance(reports, list) and len(reports) == SUITE_CASES
            and summary.get("fail") == 0 and summary.get("pass") == SUITE_CASES
            and all(r.get("passed") is True for r in reports))


# ------------------------------------------------------------ integrals-unique

KINDS = ("gamma_integral", "gamma_log_integral", "beta_integral", "euler_symbol",
         "integrate_finite")
PER_KIND = 2
REL_TOL = 1e-7
# The pool holds more units than a run at the reference machine's speed can
# time, so no integral repeats; a faster program ends the run when it is used
# up.
UNITS_PER_SECOND = 450


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng, kind):
    """Parameters for one integral, over the ranges the default suite passes
    to each engine: euler_symbol p, q in [1, 5] and n in 2..6 (the symbol
    checks); gamma_log_integral s in [1/8, 4] (log-integral-product and
    algebraic-interpolation); beta_integral x, y in [1/6, 5/2], the B(p/n, q/n)
    the symbol checks reach.  The suite makes no gamma_integral or generic
    call: gamma_integral takes closed-form-wide's x axis, (0.01, 100), and
    integrate_finite(cos, 0, b) takes b in (0.1, 3)."""
    if kind == "gamma_integral":
        return (_log_uniform(rng, 0.01, 100.0),)
    if kind == "gamma_log_integral":
        return (rng.uniform(0.125, 4.0),)
    if kind == "beta_integral":
        return (_log_uniform(rng, 1 / 6, 2.5), _log_uniform(rng, 1 / 6, 2.5))
    if kind == "euler_symbol":
        return (rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0), rng.randint(2, 6))
    return (0.0, rng.uniform(0.1, 3.0))  # integrate_finite(cos, 0, b)


def integral_specs(seed, n_units):
    """n_units batches of distinct (kind, args); a prefix does not depend on n_units."""
    rng = random.Random(seed)
    seen = set()
    units = []
    for _ in range(n_units):
        batch = []
        for _ in range(PER_KIND):
            for kind in KINDS:
                spec = (kind, _draw(rng, kind))
                while spec in seen:
                    spec = (kind, _draw(rng, kind))
                seen.add(spec)
                batch.append(spec)
        units.append(batch)
    return units


class IntegralsUnique:
    name = "integrals-unique"
    setup_module = "eulergamma"
    in_process = True
    trace_units = 100
    period = None
    tail_percentile = 99.5  # about 6,000 units in 20 s

    def __init__(self, ctx, seed, seconds):
        self.ctx = ctx
        self.n_units = max(self.trace_units, int(UNITS_PER_SECOND * seconds))
        self.specs = integral_specs(seed, self.n_units)
        self.expected = None
        eg = importlib.import_module("eulergamma")
        self.calls = []
        for batch in self.specs:
            calls = []
            for kind, args in batch:
                if kind == "integrate_finite":
                    calls.append((eg.integrate_finite, (math.cos, *args)))
                else:
                    calls.append((getattr(eg, kind), args))
            self.calls.append(calls)

    def prepare(self):
        self.expected = oracle_values(self.ctx, self.specs)

    def normalizer(self):
        return Normalizer(loop_job, LOOP_NOMINAL_S, SpeedSampler())

    def _run(self, i):
        return [fn(*args) for fn, args in self.calls[i]]

    def unit(self, i):
        return timed_call(_guarded, self._run, i)

    def check(self, i, estimates):
        if isinstance(estimates, Exception):
            return False
        for estimate, expected in zip(estimates, self.expected[i]):
            if not estimate.converged:
                return False
            if not abs(estimate.value - expected) <= REL_TOL * abs(expected):
                return False
        return len(estimates) == len(self.expected[i])


def oracle_values(ctx, units):
    """30-digit mpmath values for every integral, computed in a child so that
    mpmath's import and memory stay out of this process."""
    spec_path = ctx.tmp / "oracle_in.json"
    out_path = ctx.tmp / "oracle_out.json"
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump([[[kind, list(args)] for kind, args in batch] for batch in units], handle)
    oracle = Path(__file__).resolve().parent / "oracle.py"
    result = run_child([ctx.python, str(oracle), str(spec_path)], ctx.env, ctx.root,
                       stdout_path=out_path)
    if result.returncode != 0:
        raise RuntimeError("mpmath oracle failed (is mpmath installed?)")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------ closed-form-wide

WIDE_IDENTITIES = ("duplication", "factorial-root", "gamma-fraction-product",
                   "gamma-square-product", "gauss-multiplication", "sine-product")
WIDE_N = list(range(2, 121))
WIDE_REAL_POINTS = 10
# Slices cost about the same, so their latency tail is mostly host noise.  Six
# slices of about 0.1 s give 100 to 199 units in a 20 s run, enough for a p90
# tail: with 32 slices the tail sat at p98 or p99, among the units a burst of
# host contention slowed, and its spread over ten runs reached 0.19.
WIDE_SLICES = 6


def wide_axes(seed):
    """The widened grid's axes.  x and m are log-uniform over (0.01, 100) and
    (0.05, 50), spanning the Lanczos engine's lifted branch (arguments below
    0.5) and its documented range up to 100."""
    rng = random.Random(seed)
    return {
        "n": WIDE_N,
        "x": [_log_uniform(rng, 0.01, 100.0) for _ in range(WIDE_REAL_POINTS)],
        "m": [_log_uniform(rng, 0.05, 50.0) for _ in range(WIDE_REAL_POINTS)],
        "mode": ["closed"],
    }


def deal_slices(grid, seed, n_slices):
    """Split a grid into n_slices grids of equal size and like composition.

    Within each identity the cases are shuffled, then ordered by n (which sets
    the cost), then dealt back and forth across the slices; so every slice
    holds about the same number of cases of each identity and the same
    total of n.
    """
    rng = random.Random(seed)
    slices = [{} for _ in range(n_slices)]
    k = 0
    for identity_id in sorted(grid):
        cases = list(grid[identity_id])
        rng.shuffle(cases)
        cases.sort(key=lambda params: params.get("n", 0))
        for params in cases:
            lap, position = divmod(k, n_slices)
            target = position if lap % 2 == 0 else n_slices - 1 - position
            slices[target].setdefault(identity_id, []).append(params)
            k += 1
    return slices


class ClosedFormWide:
    name = "closed-form-wide"
    setup_module = "eulergamma"
    in_process = True
    n_units = None
    trace_units = WIDE_SLICES
    period = WIDE_SLICES
    tail_percentile = 90.0

    def __init__(self, ctx, seed, seconds):
        self.identities = importlib.import_module("eulergamma.identities")
        self.reporting = importlib.import_module("eulergamma.reporting")
        grid = self.identities.build_grid(list(WIDE_IDENTITIES), wide_axes(seed))
        self.slices = deal_slices(grid, seed, WIDE_SLICES)
        self.sizes = [sum(len(c) for c in s.values()) for s in self.slices]

    def prepare(self):
        pass

    def normalizer(self):
        return Normalizer(loop_job, LOOP_NOMINAL_S, SpeedSampler())

    def _run(self, i):
        suite = self.identities.run_suite(self.slices[i % WIDE_SLICES])
        return suite, self.reporting.render_csv(suite)

    def unit(self, i):
        return timed_call(_guarded, self._run, i)

    def check(self, i, result):
        if isinstance(result, Exception):
            return False
        suite, text = result
        rows = text.count("\n") - 1
        size = self.sizes[i % WIDE_SLICES]
        return suite.n_fail == 0 and suite.n_pass == size and rows == size


WORKLOADS = {w.name: w for w in (SuiteDefault, IntegralsUnique, ClosedFormWide)}
