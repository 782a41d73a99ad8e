"""Layered benchmark for eulergamma.

Usage (from the repository root):

    python3 benchmarks/perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite-default, integrals-unique, closed-form-wide (see
``workloads.py``).  A single caller drives one unit at a time, with one child
process at most (a closed loop).  Every timing is in seconds at reference
speed (see ``refjobs.py``).

``--trace 0`` times units for S seconds and reports the end-to-end metrics:
setup_s, units_per_s, latency_p50_s, latency_tail_s and peak_rss_mb.
``--trace 1`` reports the per-layer metrics: two traced passes in fresh
interpreters (whose counts must agree), import times per module, and the
tracing overhead from S seconds of alternating traced and untraced units.

The workloads' figures compare python and compiled backends too: set
``EULERGAMMA_BACKEND=python`` or ``=compiled`` for the run; every child
inherits it, and the record names the backend in use.

Standard output holds a table of every metric with its unit, then one JSON
line with the full record (provenance, raw seconds and scale factors), then
the result line ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when a result was printed, even if units failed; it is
nonzero, with no result, when the package cannot be found.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from refjobs import (
    LOOP_NOMINAL_S,
    START_NOMINAL_S,
    Normalizer,
    StartJob,
    percentile,
    run_child,
)
from tracing import FAMILIES, IDENTITY_IDS, Tracer
from workloads import WORKLOADS, Context, SuiteDefault, suite_json_ok

SETUP_REPEATS = 9
IMPORT_REPEATS = 3
RSS_REPEATS = 3
PASSCHILD = Path(__file__).resolve().parent / "passchild.py"
SETUP_SNIPPET = ("import sys, time; t = time.thread_time(); __import__(sys.argv[1]); "
                 "print(time.thread_time() - t)")
IMPORT_MODULES = ("eulergamma", "eulergamma.errors", "eulergamma._kernels_py",
                  "eulergamma.backend", "eulergamma.quadrature", "eulergamma.gamma",
                  "eulergamma.beta", "eulergamma.identities", "eulergamma.reporting",
                  "eulergamma.cli")

# The default suite's work at the time the benchmark was written (ROADMAP
# baseline).  A traced run reports whether it still matches; a change that
# removes quadratures is meant to move these, so a mismatch is not a failure.
SUITE_BASELINE = {"quadrature.calls": 493, "quadrature.distinct": 172,
                  "backend.level_calls": 2358, "backend.nodes": 85649}


# ------------------------------------------------------------------ setup

def measure_setup(ctx, module):
    """Median normalized time to import ``module`` in a fresh interpreter."""
    out = ctx.tmp / "setup.out"
    argv = [ctx.python, "-c", SETUP_SNIPPET, module]

    def timed():
        result = run_child(argv, ctx.env, ctx.root, stdout_path=out)
        if result.returncode != 0:
            raise RuntimeError(f"importing {module} failed")
        return float(out.read_text()), None

    timed()  # warm the file cache before timing
    norm = Normalizer(StartJob(ctx.python, ctx.env, ctx.root), START_NOMINAL_S)
    samples = [norm.measure(timed)[0] for _ in range(SETUP_REPEATS)]
    return samples, norm.references


def parse_importtime(text):
    """Self seconds per eulergamma module, plus everything else they pulled in."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        rows.append((name.rstrip(), int(self_us)))
    # Rows come in completion order; those after the top-level `site` row
    # are the ones the -c statement triggered.
    start = max((i + 1 for i, (name, _) in enumerate(rows) if name == " site"), default=0)
    seconds = {}
    for name, self_us in rows[start:]:
        key = name.strip() if name.strip().startswith("eulergamma") else "stdlib"
        seconds[key] = seconds.get(key, 0.0) + self_us * 1e-6
    return seconds


def measure_import_layers(ctx, module):
    """Per-module import seconds from ``-X importtime``, normalized, median of 3."""
    err = ctx.tmp / "importtime.err"
    argv = [ctx.python, "-X", "importtime", "-c", f"import {module}"]

    def timed():
        result = run_child(argv, ctx.env, ctx.root, stderr_path=err)
        if result.returncode != 0:
            raise RuntimeError(f"importing {module} failed")
        seconds = parse_importtime(err.read_text())
        return sum(seconds.values()), seconds

    norm = Normalizer(StartJob(ctx.python, ctx.env, ctx.root), START_NOMINAL_S)
    runs = [norm.measure(timed) for _ in range(IMPORT_REPEATS)]
    return {
        "setup.import_s." + key.rpartition(".")[2]: statistics.median(
            sample.scale * seconds.get(key, 0.0) for sample, seconds in runs)
        for key in (*IMPORT_MODULES, "stdlib")
    }


# ---------------------------------------------------------------- helpers

def plain_pass_rss_mb(ctx, workload, seed):
    """Median peak RSS of fresh interpreters that each run one untraced pass
    of the workload (see ``passchild.py``)."""
    out = ctx.tmp / "plain.json"
    if workload.in_process:
        args = ["plain", workload.name, str(seed), str(ctx.tmp), str(out)]
    else:
        args = ["plain-cli", str(out), *workload.argv()]
    peaks = []
    for _ in range(RSS_REPEATS):
        result = run_child([ctx.python, str(PASSCHILD), *args], ctx.env, ctx.root)
        data = {}
        if result.returncode == 0:
            with open(out, encoding="utf-8") as handle:
                data = json.load(handle)
        if data.get("returncode", 0) != 0 or "peak_rss_mb" not in data:
            raise RuntimeError(f"plain pass of {workload.name} failed")
        peaks.append(data["peak_rss_mb"])
    return statistics.median(peaks)


def units_per_s(samples):
    return len(samples) / sum(s.seconds for s in samples)


def latency_summary(samples, tail_p):
    values = sorted(s.seconds for s in samples)
    raw = sorted(s.raw_s for s in samples)
    tail = percentile(values, tail_p)
    return {
        "samples": len(values),
        "tail_percentile": tail_p,
        "tail_beyond": sum(v > tail for v in values),
        "p50": percentile(values, 50.0),
        "tail": tail,
        "raw_p50": percentile(raw, 50.0),
        "raw_tail": percentile(raw, tail_p),
        "units_per_s": units_per_s(samples),
        "scale_median": statistics.median(s.scale for s in samples),
    }


def traced_turn(i, period):
    """Whether unit i of a traced run runs traced: every other unit, shifted
    by one on each pass over ``period`` repeating units, so that each of them
    is timed both ways."""
    return (i + (i // period if period else 0)) % 2 == 1


def timed_loop(workload, norm, seconds, alternate=False, on_result=None):
    """Time units until ``seconds`` have passed (or the workload's units run
    out); with ``alternate``, units run ``traced_unit`` on their traced turn.
    Returns (untraced samples, traced samples, attempted, failed)."""
    plain, traced = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline and (workload.n_units is None
                                               or i < workload.n_units):
        trace_this = alternate and traced_turn(i, workload.period)
        unit = workload.traced_unit if trace_this else workload.unit
        sample, result = norm.measure(lambda: unit(i))
        (traced if trace_this else plain).append(sample)
        attempted += 1
        failed += not workload.check(i, result)
        if on_result is not None:
            on_result(trace_this, sample, result)
        i += 1
    return plain, traced, attempted, failed


def provenance(args, references, extra):
    import eulergamma

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": eulergamma.BACKEND,
        "nproc": os.cpu_count(),
        "reference_s": {k: statistics.median(v) for k, v in references.items() if v},
    }
    record.update(extra)
    return record


# ------------------------------------------------------------ trace 0 run

def measured_run(ctx, args):
    cls = WORKLOADS[args.workload]
    setup, setup_refs = measure_setup(ctx, cls.setup_module)
    workload = cls(ctx, args.seed, args.seconds)
    workload.prepare()
    norm = workload.normalizer()
    plain, _, attempted, failed = timed_loop(workload, norm, args.seconds)
    lat = latency_summary(plain, cls.tail_percentile)
    rss = plain_pass_rss_mb(ctx, workload, args.seed)
    setup_s = statistics.median(s.seconds for s in setup)
    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (lat["units_per_s"], "1/s"),
        "latency_p50_s": (lat["p50"], "s"),
        "latency_tail_s": (lat["tail"], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    references = {"start_job": list(setup_refs)}
    references.setdefault("loop_job" if cls.in_process else "start_job",
                          []).extend(norm.references)
    record = provenance(args, references, {
        "samples": lat["samples"],
        "tail_percentile": lat["tail_percentile"],
        "tail_beyond": lat["tail_beyond"],
        "fail_share": failed / attempted,
        "raw": {
            "setup_s": statistics.median(s.raw_s for s in setup),
            "latency_p50_s": lat["raw_p50"],
            "latency_tail_s": lat["raw_tail"],
        },
        "scale": {
            "setup_s": statistics.median(s.scale for s in setup),
            "latency": lat["scale_median"],
        },
    })
    return metrics, record, attempted, failed, True


# ------------------------------------------------------------ trace 1 run

def run_trace_child(ctx, args, out):
    """Run ``passchild.py`` in a trace mode; return its result and its record."""
    result = run_child([ctx.python, str(PASSCHILD), *args], ctx.env, ctx.root)
    data = None
    if result.returncode == 0:
        with open(out, encoding="utf-8") as handle:
            data = json.load(handle)
    return result, data


class TracedSuite(SuiteDefault):
    """suite-default whose traced units run the CLI under the tracer in a child."""

    def __init__(self, ctx, seed, seconds):
        super().__init__(ctx, seed, seconds)
        self.trace_out = ctx.tmp / "trace.json"

    def traced_unit(self, i):
        if self.out.exists():
            self.out.unlink()
        result, data = run_trace_child(
            self.ctx, ["trace-cli", str(self.trace_out), *self.argv()], self.trace_out)
        return result.cpu_s, (result, data)

    def check(self, i, result):
        if isinstance(result, tuple):
            child, data = result
            return (child.returncode == 0 and data is not None
                    and data["returncode"] == 0 and suite_json_ok(self.out))
        return super().check(i, result)


class TracedInProcess:
    """An in-process workload whose traced units run with the tracer installed."""

    def __init__(self, workload):
        self.workload = workload
        self.n_units = workload.n_units
        self.period = workload.period
        self.tracer = Tracer()

    def normalizer(self):
        return self.workload.normalizer()

    def unit(self, i):
        return self.workload.unit(i)

    def traced_unit(self, i):
        self.tracer.install()
        try:
            return self.workload.unit(i)
        finally:
            self.tracer.uninstall()

    def check(self, i, result):
        return self.workload.check(i, result)


def layer_metrics(counts, layers, scale):
    """The per-layer metric set from one traced pass (times scaled)."""
    m = {
        "backend.level_calls": (counts["backend.level_calls"], "count"),
        "backend.nodes": (counts["backend.nodes"], "count"),
        "backend.self_s": (layers["backend.self_s"] * scale, "s"),
    }
    for family in FAMILIES:
        nodes = layers.get("backend.family_nodes." + family, 0)
        seconds = layers.get("backend.family_s." + family, 0.0)
        m["backend.ns_per_node." + family] = (
            seconds * scale / nodes * 1e9 if nodes else 0.0, "ns")
    m.update({
        "quadrature.calls": (counts["quadrature.calls"], "count"),
        "quadrature.distinct_ratio": (layers["quadrature.distinct_ratio"], "ratio"),
        "quadrature.levels_per_call": (layers["quadrature.levels_per_call"], "count"),
        "quadrature.nodes_per_call": (layers["quadrature.nodes_per_call"], "count"),
        "quadrature.unconverged": (counts["quadrature.unconverged"], "count"),
        "quadrature.self_s": (layers["quadrature.self_s"] * scale, "s"),
        "gamma.log_gamma_calls": (counts["gamma.log_gamma_calls"], "count"),
        "gamma.ns_per_log_gamma": (
            layers["gamma.log_gamma_s"] * scale / counts["gamma.log_gamma_calls"] * 1e9
            if counts["gamma.log_gamma_calls"] else 0.0, "ns"),
        "beta.closed_calls": (counts["beta.closed_calls"], "count"),
        "beta.closed_s": (layers["beta.closed_s"] * scale, "s"),
        "identities.cases": (counts["identities.cases"], "count"),
        "identities.build_grid_s": (layers["identities.build_grid_s"] * scale, "s"),
        "identities.run_suite_self_s": (layers["identities.run_suite_self_s"] * scale, "s"),
    })
    for identity_id in IDENTITY_IDS:
        key = "identities.self_s." + identity_id
        m[key] = (layers[key] * scale, "s")
    m.update({
        "reporting.render_s": (layers["reporting.render_s"] * scale, "s"),
        "reporting.bytes": (counts["reporting.bytes"], "bytes"),
        "cli.self_s": (layers["cli.self_s"] * scale, "s"),
    })
    return m


def _median_metrics(runs):
    """Element-wise lower median of metric dicts with equal keys (a count
    that agrees across runs stays that count)."""
    return {k: (statistics.median_low(r[k][0] for r in runs), runs[0][k][1])
            for k in runs[0]}


def traced_run(ctx, args):
    cls = WORKLOADS[args.workload]
    imports = measure_import_layers(ctx, cls.setup_module)
    passes = []  # (data, scale)
    attempted = failed = 0
    if cls.in_process:
        for k in range(2):
            out = ctx.tmp / f"pass{k}.json"
            result, data = run_trace_child(
                ctx, ["trace", cls.name, str(args.seed), str(ctx.tmp), str(out)], out)
            if data is None:
                raise RuntimeError(f"traced pass failed (exit {result.returncode})")
            passes.append((data, LOOP_NOMINAL_S / data["reference_s"]))
            attempted += data["units"]
            failed += data["failed"]
        inner = cls(ctx, args.seed, args.seconds)
        inner.prepare()
        workload = TracedInProcess(inner)
        on_result = None
    else:
        workload = TracedSuite(ctx, args.seed, args.seconds)

        def on_result(trace_this, sample, result):
            if trace_this and result[1] is not None:
                passes.append((result[1], sample.scale))

    norm = workload.normalizer()
    plain, traced, timed_attempted, timed_failed = timed_loop(
        workload, norm, args.seconds, alternate=True, on_result=on_result)
    attempted += timed_attempted
    failed += timed_failed
    if len(passes) < 2 or not plain or not traced:
        raise RuntimeError("traced run too short to compare two passes")

    counts = [data["counts"] for data, _ in passes]
    deterministic = all(c == counts[0] for c in counts)
    per_pass = [layer_metrics(data["counts"], data["layers"], scale) for data, scale in passes]
    metrics = _median_metrics(per_pass)
    for name, value in imports.items():
        metrics[name] = (value, "s")
    overhead = units_per_s(traced) / units_per_s(plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    checks = {"deterministic_counts": deterministic}
    if cls is SuiteDefault:
        checks["baseline_match"] = all(counts[0][k] == v for k, v in SUITE_BASELINE.items())
    else:
        checks["quadratures"] = counts[0]["quadrature.calls"]
    reference_key = "loop_job" if cls.in_process else "start_job"
    record = provenance(args, {reference_key: norm.references}, {
        "passes": len(passes),
        "counts": counts[0],
        "checks": checks,
        "unmeasured": sorted(set().union(*(data["unmeasured"] for data, _ in passes))),
        "samples": {"untraced": len(plain), "traced": len(traced)},
    })
    return metrics, record, attempted, failed, deterministic


# ------------------------------------------------------------------ main

def main(argv=None):
    parser = argparse.ArgumentParser(description="eulergamma layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parents[2]
    src = root / "src"
    if not (src / "eulergamma" / "__init__.py").is_file():
        print(f"error: no eulergamma package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=root))
    try:
        ctx = Context(root, tmp, env)
        run = traced_run if args.trace else measured_run
        metrics, record, attempted, failed, consistent = run(ctx, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'fail_share':<{width}}  {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} units failed)")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
