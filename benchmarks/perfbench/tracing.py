"""Per-layer tracing from outside the program.

The tracer replaces public names where their callers look them up, records
what passes through, and puts every name back on ``uninstall``:

* leaf calls go into counters and summed time, never spans:
  ``backend.level_sum`` (as ``quadrature`` calls it), ``log_gamma`` as
  imported into ``identities``, ``beta`` and ``cli``, and ``beta_closed`` in
  ``beta`` and ``cli``;
* layer calls get spans with parent ids: one span per check (each
  ``IDENTITIES`` entry's ``run``), per quadrature (``quadrature._refine``),
  per ``run_suite``/``build_grid`` (in ``identities`` and ``cli``) and per
  render (``reporting.render_json/csv/table``).  The benchmark adds a
  ``cli`` span around ``cli.main`` and a ``unit`` span around each unit.

A span's self time is its duration minus its direct children's durations
and minus the leaf time spent while it was the innermost open span.

Every ``_refine`` makes exactly one ``level_sum(..., odd_only=False)`` call,
so that call counts quadratures, on the public and the private
(``_integrate_family``) paths alike, and its arguments give the distinct
keys.  A name that no longer exists leaves its layer unmeasured: its metrics
read 0 and the layer is listed in ``unmeasured``.
"""

import dataclasses
import importlib
import time

FAMILIES = ("gamma_tail", "neg_log_pow", "beta", "euler_symbol", "algebraic", "generic")
IDENTITY_IDS = (
    "algebraic-interpolation", "duplication", "factorial-root",
    "gamma-fraction-product", "gamma-square-product", "gauss-multiplication",
    "log-integral-product", "reflection", "sine-multiple-angle", "sine-product",
    "symbol-bridge", "symbol-symmetry",
)

_perf = time.perf_counter


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Leaf:
    """Call count and summed seconds of one leaf function."""

    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    """Counters and spans for one process; ``install`` starts recording."""

    def __init__(self):
        self.spans = []  # [id, parent id, kind, start, end, leaf seconds]
        self._stack = []
        self._leaf_depth = 0
        self._patches = []
        self.unmeasured = set()
        self.families = {}  # family tag -> [level calls, nodes, seconds]
        self.quadratures = 0
        self.quadrature_keys = set()
        self.unconverged = 0
        self.log_gamma = Leaf()
        self.beta_closed = Leaf()
        self.render_bytes = 0
        self._family_names = {}

    # ------------------------------------------------------------ recording

    def span(self, kind, fn, on_result=None):
        """Wrap fn so that each call records a span of ``kind``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else None, kind, 0.0, 0.0, 0.0]
            spans.append(record)
            stack.append(record)
            record[3] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = _perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _charge_leaf(self, seconds):
        if self._leaf_depth == 0 and self._stack:
            self._stack[-1][5] += seconds

    def leaf(self, counter, fn):
        """Wrap fn as a leaf: count calls and time, open no span."""

        def traced(*args, **kwargs):
            self._leaf_depth += 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = _perf() - start
                self._leaf_depth -= 1
                counter.calls += 1
                counter.seconds += seconds
                self._charge_leaf(seconds)

        return traced

    def _level_sum(self, fn, generic):
        families = self.families

        def traced(a, b, h, odd_only, family, p0, p1, p2, f):
            start = _perf()
            try:
                total, n = fn(a, b, h, odd_only, family, p0, p1, p2, f)
            finally:
                seconds = _perf() - start
                self._charge_leaf(seconds)
            stats = families.get(family)
            if stats is None:
                stats = families[family] = [0, 0, 0.0]
            stats[0] += 1
            stats[1] += n
            stats[2] += seconds
            if not odd_only:
                self.quadratures += 1
                self.quadrature_keys.add(
                    (a, b, family, p0, p1, p2, f if family == generic else None))
            return total, n

        return traced

    def _on_quadrature(self, estimate):
        if not getattr(estimate, "converged", True):
            self.unconverged += 1

    def _on_render(self, text):
        self.render_bytes += len(text.encode("utf-8"))

    # ------------------------------------------------------- install/remove

    def _patch(self, layer, modules, attrs, make):
        """Replace each of ``attrs`` on each module that has it; a layer
        none of whose names exist any more is unmeasured."""
        found = False
        for module in modules:
            for attr in attrs:
                if module is not None and hasattr(module, attr):
                    original = getattr(module, attr)
                    self._patches.append((module, attr, original))
                    setattr(module, attr, make(original))
                    found = True
        if not found:
            self.unmeasured.add(layer)

    def _patch_checks(self, identities):
        registry = getattr(identities, "IDENTITIES", None)
        if not isinstance(registry, dict):
            self.unmeasured.add("identities")
            return
        for identity_id, spec in list(registry.items()):
            try:
                traced = dataclasses.replace(
                    spec, run=self.span("check:" + identity_id, spec.run))
            except (AttributeError, TypeError):
                self.unmeasured.add("identities")
                continue
            self._patches.append((registry, identity_id, spec))
            registry[identity_id] = traced

    def install(self):
        backend = _module("eulergamma.backend")
        quadrature = _module("eulergamma.quadrature")
        identities = _module("eulergamma.identities")
        beta = _module("eulergamma.beta")
        cli = _module("eulergamma.cli")
        reporting = _module("eulergamma.reporting")

        for name in FAMILIES:
            tag = getattr(backend, name.upper(), None)
            if tag is not None:
                self._family_names[tag] = name
        generic = getattr(backend, "GENERIC", None)
        self._patch("backend", [backend], ["level_sum"],
                    lambda fn: self._level_sum(fn, generic))
        self._patch("quadrature", [quadrature], ["_refine"],
                    lambda fn: self.span("quadrature", fn, self._on_quadrature))
        self._patch("gamma", [identities, beta, cli], ["log_gamma"],
                    lambda fn: self.leaf(self.log_gamma, fn))
        self._patch("beta", [beta, cli], ["beta_closed"],
                    lambda fn: self.leaf(self.beta_closed, fn))
        self._patch("identities", [identities, cli], ["run_suite"],
                    lambda fn: self.span("run_suite", fn))
        self._patch("identities", [identities, cli], ["build_grid"],
                    lambda fn: self.span("build_grid", fn))
        self._patch("reporting", [reporting], ["render_json", "render_csv", "render_table"],
                    lambda fn: self.span("render", fn, self._on_render))
        self._patch_checks(identities)
        return self

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def self_times(self):
        """Summed self seconds and span counts per span kind."""
        children = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_s, counts = {}, {}
        for span_id, _, kind, start, end, leaf in self.spans:
            self_s[kind] = self_s.get(kind, 0.0) + (end - start) - children[span_id] - leaf
            counts[kind] = counts.get(kind, 0) + 1
        return self_s, counts

    def counts(self):
        """Deterministic counters: equal on two runs over the same inputs."""
        _, span_counts = self.self_times()
        level_calls = sum(s[0] for s in self.families.values())
        nodes = sum(s[1] for s in self.families.values())
        return {
            "backend.level_calls": level_calls,
            "backend.nodes": nodes,
            "quadrature.calls": self.quadratures,
            "quadrature.distinct": len(self.quadrature_keys),
            "quadrature.unconverged": self.unconverged,
            "gamma.log_gamma_calls": self.log_gamma.calls,
            "beta.closed_calls": self.beta_closed.calls,
            "identities.cases": sum(n for k, n in span_counts.items()
                                    if k.startswith("check:")),
            "reporting.bytes": self.render_bytes,
            "spans": dict(sorted(span_counts.items())),
        }

    def layers(self):
        """Per-layer seconds (raw, to be scaled by the caller) and ratios."""
        self_s, span_counts = self.self_times()
        counts = self.counts()
        calls = counts["quadrature.calls"]
        out = {
            "backend.self_s": sum(s[2] for s in self.families.values()),
            "quadrature.self_s": self_s.get("quadrature", 0.0),
            "gamma.log_gamma_s": self.log_gamma.seconds,
            "beta.closed_s": self.beta_closed.seconds,
            "identities.build_grid_s": self_s.get("build_grid", 0.0),
            "identities.run_suite_self_s": self_s.get("run_suite", 0.0),
            "reporting.render_s": self_s.get("render", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
        }
        for identity_id in IDENTITY_IDS:
            out["identities.self_s." + identity_id] = self_s.get("check:" + identity_id, 0.0)
        for tag, (_, nodes, seconds) in self.families.items():
            name = self._family_names.get(tag, str(tag))
            out["backend.family_s." + name] = seconds
            out["backend.family_nodes." + name] = nodes
        out["quadrature.levels_per_call"] = (counts["backend.level_calls"] / calls
                                             if calls else 0.0)
        out["quadrature.nodes_per_call"] = counts["backend.nodes"] / calls if calls else 0.0
        out["quadrature.distinct_ratio"] = (counts["quadrature.distinct"] / calls
                                            if calls else 0.0)
        return out
