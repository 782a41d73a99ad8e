"""One pass of a workload in a fresh interpreter.

Usage:

    python passchild.py trace-cli OUT.json ARG...
    python passchild.py plain-cli OUT.json ARG...
    python passchild.py trace WORKLOAD SEED TMPDIR OUT.json
    python passchild.py plain WORKLOAD SEED TMPDIR OUT.json

``trace-cli`` runs ``eulergamma.cli.main(ARGS)`` once under the tracer.  It
loads nothing of the benchmark but ``tracing``, so its CPU time differs from
a bare ``python -m eulergamma`` run by the tracer's cost alone; the parent
gates the file the CLI wrote.

``trace`` runs a fixed pass of an in-process workload under the tracer (the
first 100 units of integrals-unique, every slice of closed-form-wide once),
between reference loops, and checks every unit.

The ``plain`` modes run the same without the tracer and without the gate (so
no oracle runs) and report this process's peak RSS.  That figure covers the
interpreter, the package and one pass's inputs (and, in-process, the
harness's modules); it does not grow with ``--seconds``.

Results, raw seconds included, go to OUT.json for the parent to scale.
"""

import json
import os
import sys
from pathlib import Path

from tracing import Tracer

REFERENCE_REPEATS = 5


def peak_rss_mb():
    """This process's peak resident set size in MB, from Linux's VmHWM.

    VmHWM counts only this process's memory since it exec'd.  ``ru_maxrss``
    does not: Linux starts a child's at its parent's peak when the child
    execs, so it would report the benchmark process's peak instead.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_cli(tracer, argv):
    import eulergamma.cli as cli

    if tracer is None:
        return {"returncode": cli.main(argv)}
    tracer.install()
    try:
        returncode = tracer.span("cli", cli.main)(argv)
    finally:
        tracer.uninstall()
    return {"units": 1, "returncode": returncode}


def _workload(name, seed, tmp):
    from workloads import WORKLOADS, Context

    ctx = Context(Path(__file__).resolve().parents[2], Path(tmp), dict(os.environ))
    return WORKLOADS[name](ctx, seed, 0)


def trace_pass(tracer, name, seed, tmp):
    import statistics

    from refjobs import loop_job

    tracer.install()  # before the workload is built, so build_grid is traced
    try:
        workload = _workload(name, seed, tmp)
        workload.prepare()
        before = [loop_job() for _ in range(REFERENCE_REPEATS)]
        failed = 0
        for i in range(workload.trace_units):
            _, result = tracer.span("unit", workload.unit)(i)
            failed += not workload.check(i, result)
        after = [loop_job() for _ in range(REFERENCE_REPEATS)]
    finally:
        tracer.uninstall()
    reference = 0.5 * (statistics.median(before) + statistics.median(after))
    return {"units": workload.trace_units, "failed": failed, "reference_s": reference}


def plain_pass(name, seed, tmp):
    workload = _workload(name, seed, tmp)
    for i in range(workload.trace_units):
        workload.unit(i)
    return {}


def main(argv):
    mode = argv[0]
    tracer = None if mode.startswith("plain") else Tracer()
    if mode.endswith("-cli"):
        out = argv[1]
        result = run_cli(tracer, argv[2:])
    else:
        name, seed, tmp, out = argv[1], int(argv[2]), argv[3], argv[4]
        if tracer is None:
            result = plain_pass(name, seed, tmp)
        else:
            result = trace_pass(tracer, name, seed, tmp)
    if tracer is None:
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        result.update(counts=tracer.counts(), layers=tracer.layers(),
                      unmeasured=sorted(tracer.unmeasured))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
