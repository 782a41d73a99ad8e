"""Reference jobs and the helper that scales every timed sample by them.

The 2-vCPU KVM guest this benchmark was written on changes speed from process
to process, and from one tenth of a second to the next, by up to 2x; CPU time
moves with wall time, so the noise is machine speed rather than scheduling.
Every timed sample is therefore bracketed by a benchmark-owned reference job
of the same shape and reported in *seconds at reference speed*:

    normalized = raw * mean(nominal / reading)

over the reference readings taken just before and just after the sample and,
in-process, every 2 ms during it (``SpeedSampler``).  ``nominal`` is a fixed
constant (the reference job's typical time on a 2-vCPU Xeon KVM guest,
CPython 3.11), so normalized seconds read close to wall seconds on that
machine.  Readings are spread evenly over time, so the mean of
``nominal / reading`` is the mean speed over the sample.

Samples and reference jobs are timed in CPU seconds of the process doing the
work: thread CPU time in-process, user plus system time of a child.  With
one caller and no I/O that equals wall time, except while the host
deschedules the process; such stalls put single units up to 5x over the
median and moved the p99.5 latency of one run by 4x, and they are not the
program's.

Two reference jobs exist because one does not track the other:

* in-process samples use ``loop_job``, a fixed pure-Python loop of float
  arithmetic, calls, a dict and ``repr`` formatting;
* child-process samples use ``StartJob``, a bare ``python -c pass``.

A pure-Python loop timed in the parent follows how fast a child interpreter
starts less well than a bare start does: over 8 runs of 30 suite children,
the per-run medians scaled by the loop spanned 9.9% of their median, those
scaled by bare starts 5.3%.  The loop itself imitates the package's work: when
the host turned slow, a plain float/dict loop slowed 5-14% more than
closed-form-wide's code, this loop 1-5% more.
"""

import contextlib
import math
import os
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass

LOOP_ITERATIONS = 256
LOOP_NOMINAL_S = 0.0015
START_NOMINAL_S = 0.065
SAMPLE_INTERVAL_S = 0.002
SAMPLE_ITERATIONS = 8
SAMPLE_NOMINAL_S = LOOP_NOMINAL_S * SAMPLE_ITERATIONS / LOOP_ITERATIONS

# Coefficients of a g = 7 Lanczos series: the reference loop does the kind of
# work the package does (see the module docstring).
_SERIES = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
           771.32342877765313, -176.61503916999185, 12.507343278686905,
           -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _series_log(x):
    a = _SERIES[0]
    for k in range(1, 9):
        a += _SERIES[k] / (x + k)
    t = x + 7.5
    return 0.9189385332046727 + (x + 0.5) * math.log(t) - t + math.log(a)


def _reference_loop(iterations):
    start = time.thread_time()
    table = {}
    rows = []
    for i in range(iterations):
        x = 0.5 + (i & 63) * 0.37
        y = _series_log(x)
        table[i & 63] = y
        rows.append(f"{x!r},{y!r},{abs(_series_log(x + 1.0) - y - math.log(x)):.3e}")
    "\n".join(rows)
    return time.thread_time() - start


def loop_job():
    """Run the in-process reference loop once; return its CPU seconds."""
    return _reference_loop(LOOP_ITERATIONS)


class SpeedSampler:
    """Samples machine speed while an in-process unit runs.

    Inside ``with sampler:`` a SIGALRM every ``SAMPLE_INTERVAL_S`` of wall
    time runs an 8-iteration slice of the reference loop and records its
    CPU seconds in ``readings``; ``handler_s`` is the CPU time the handler
    took, which the caller subtracts from the unit's time.  The machine this
    was written on switches between a fast and a 2x slower state every 0.1 s
    or so, which a reference job at each end of a 0.1 s unit cannot see.
    """

    def __init__(self):
        self.readings = []
        self.handler_s = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if not self._active:  # delivered after the timer was stopped
            return
        start = time.thread_time()
        self.readings.append(_reference_loop(SAMPLE_ITERATIONS))
        self.handler_s += time.thread_time() - start

    def __enter__(self):
        self.readings = []
        self.handler_s = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False


@dataclass
class ChildResult:
    """Outcome of one child process: CPU seconds and exit code."""

    cpu_s: float
    returncode: int


def run_child(argv, env, cwd, stdout_path=None, stderr_path=None):
    """Run one child to completion; its CPU time comes from ``wait4``.

    Output goes to files (or nowhere) rather than pipes, so a large output
    can never block the child.
    """
    with contextlib.ExitStack() as stack:
        out, err = (stack.enter_context(open(path, "wb")) if path else subprocess.DEVNULL
                    for path in (stdout_path, stderr_path))
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(usage.ru_utime + usage.ru_stime, proc.returncode)


class StartJob:
    """The child-process reference job: a bare interpreter start."""

    def __init__(self, python, env, cwd):
        self._argv = [python, "-c", "pass"]
        self._env = env
        self._cwd = cwd

    def __call__(self):
        result = run_child(self._argv, self._env, self._cwd)
        if result.returncode != 0:
            raise RuntimeError("bare interpreter start failed")
        return result.cpu_s


@dataclass
class Sample:
    """One timed sample with the numbers it was normalized from."""

    raw_s: float
    scale: float

    @property
    def seconds(self):
        return self.raw_s * self.scale


class Normalizer:
    """Brackets samples with a reference job and scales them to nominal speed.

    Consecutive samples share the reference run between them, so a run of
    n samples costs n + 1 reference jobs and every sample still has one
    immediately before and one immediately after it.  With a
    ``SpeedSampler``, the readings it takes during the sample count too.
    A sample's scale is the mean of ``nominal / reading`` over its readings:
    readings spread evenly over time, so this is the mean speed over the
    sample.
    """

    def __init__(self, reference_job, nominal_s, sampler=None):
        self._job = reference_job
        self.nominal_s = nominal_s
        self._sampler = sampler
        self._last = None
        self.references = []

    def _reference(self):
        seconds = self._job()
        self.references.append(seconds)
        return seconds

    def measure(self, timed):
        """Call ``timed()``, which returns ``(raw_seconds, result)``.

        Returns ``(Sample, result)``.
        """
        before = self._last if self._last is not None else self._reference()
        if self._sampler is None:
            raw, result = timed()
            during, handler_s = [], 0.0
        else:
            with self._sampler:
                raw, result = timed()
            during, handler_s = self._sampler.readings, self._sampler.handler_s
        after = self._reference()
        self._last = after
        scale = statistics.fmean([self.nominal_s / before, self.nominal_s / after]
                                 + [SAMPLE_NOMINAL_S / r for r in during])
        return Sample(raw - handler_s, scale), result


def timed_call(fn, *args):
    """Adapt an in-process call to the ``(raw_seconds, result)`` shape."""
    start = time.thread_time()
    result = fn(*args)
    return time.thread_time() - start, result


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list, p in (0, 100]."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]

