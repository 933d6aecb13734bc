"""Spans around the benchmark's calls into the library, and the per-layer
numbers computed from them.

A span is one call into a library function (or one of the harness's own
units: set-up, pass, item), recorded as (name, tag, start, end, parent,
item).  ``name`` is ``<module>.<function>`` for library calls and
``bench.<unit>`` for the harness; ``tag`` separates shapes that cost very
differently (rank, word shape, Grassmannian degree).  Spans live in memory
and are written out once, when the run ends.

Calls happen on one thread in strict nesting order, so a span's children
never overlap and lie inside it: self time is duration minus the summed
durations of the children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, tag, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def annotate(self, **attrs):
        pass

    def begin(self, name, tag="", item=None):
        pass

    def end(self):
        pass


class Tracer:
    """Tracing on: every call and harness unit becomes a span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._item = None
        self._last = -1

    def begin(self, name, tag="", item=None):
        if item is not None:
            self._item = item
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "tag": tag, "start": time.perf_counter(),
                           "end": None, "parent": parent, "item": self._item})
        self._stack.append(len(self.spans) - 1)

    def end(self):
        idx = self._stack.pop()
        self.spans[idx]["end"] = time.perf_counter()
        self._last = idx

    def call(self, name, tag, fn, *args, **kwargs):
        self.begin(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def annotate(self, **attrs):
        """Attach counts to the span that ended last."""
        self.spans[self._last].update(attrs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


# Modules whose self time is reported, in report order.
MODULES = ("hermitian", "posmap", "phi", "discriminants", "forms", "serialization",
           "bench")


def _p50_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit).

    Totals (calls, busy_s, samples, self_s) are per batch pass: the sum over
    spans inside traced passes divided by their number, so they do not depend
    on how many passes fit in the run.  Medians, means and ratios use every
    span, set-up included (phi_all_r345 normalizes its maps there).  A layer
    the workload never calls reads 0.
    """
    root = []
    for s in spans:
        root.append(root[s["parent"]] if s["parent"] >= 0 else s["name"])
    in_pass = [r == "bench.pass" for r in root]
    n_pass = max(1, sum(s["name"] == "bench.pass" for s in spans))

    by_name = defaultdict(list)
    by_tag = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        by_tag[(s["name"], s["tag"])].append(s)
    pass_spans = defaultdict(list)
    for s, inside in zip(spans, in_pass):
        if inside:
            pass_spans[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def calls(name):
        return len(pass_spans[name]) / n_pass

    def busy(name):
        return sum(dur(s) for s in pass_spans[name]) / n_pass

    def p50(name, tag=None):
        group = by_name[name] if tag is None else by_tag[(name, tag)]
        return _p50_ms([dur(s) for s in group])

    out: dict[str, tuple[float, str]] = {}
    for fn in ("herm_eigvals", "det"):
        out[f"hermitian.{fn}.calls"] = (calls(f"hermitian.{fn}"), "count")
        out[f"hermitian.{fn}.busy_s"] = (busy(f"hermitian.{fn}"), "s")

    cert = by_name["posmap.positivity_certificate"]
    out["posmap.positivity_certificate.busy_s"] = (busy("posmap.positivity_certificate"), "s")
    out["posmap.positivity_certificate.p50_ms"] = (p50("posmap.positivity_certificate"), "ms")
    out["posmap.positivity_certificate.pass_ratio"] = (
        sum(s["passed"] for s in cert) / len(cert) if cert else 0.0, "ratio")

    sk = "posmap.sinkhorn_normalize"
    for tag in ("r2", "r3"):
        group = by_tag[(sk, tag)]
        out[f"{sk}.{tag}.p50_ms"] = (p50(sk, tag), "ms")
        out[f"{sk}.{tag}.iterations_mean"] = (
            statistics.fmean(s["iterations"] for s in group) if group else 0.0,
            "iterations")
    iters = sum(s["iterations"] for s in by_name[sk])
    out[f"{sk}.ms_per_iteration"] = (
        1e3 * sum(dur(s) for s in by_name[sk]) / iters if iters else 0.0, "ms")
    out[f"{sk}.converged_ratio"] = (
        sum(s["converged"] for s in by_name[sk]) / len(by_name[sk])
        if by_name[sk] else 0.0, "ratio")

    for tag in ("r2", "r3", "r4", "r5"):
        out[f"phi.phi_direct.{tag}.p50_ms"] = (p50("phi.phi_direct", tag), "ms")
    for tag in ("r3", "r4"):
        out[f"phi.phi_dual.{tag}.p50_ms"] = (p50("phi.phi_dual", tag), "ms")
    for fn in ("phi_integral_r2", "phi_integral_r3", "phi_r4_decomposition",
               "rank2_norm_identity"):
        out[f"phi.{fn}.p50_ms"] = (p50(f"phi.{fn}"), "ms")
    out["phi.c_matrix.busy_s"] = (busy("phi.c_matrix"), "s")

    mc = "discriminants.moment_mc"
    for tag in ("r2n2", "r3n2", "r3n3", "r4n4"):
        per = [1e6 * dur(s) / s["samples"] for s in by_tag[(mc, tag)]]
        out[f"{mc}.{tag}.s_per_1e6"] = (statistics.median(per) if per else 0.0, "s")
    out[f"{mc}.samples"] = (sum(s["samples"] for s in pass_spans[mc]) / n_pass, "count")
    out["discriminants.moment_exact.busy_s"] = (busy("discriminants.moment_exact"), "s")

    for tag in ("r3n3", "r4n3", "r5n3", "r3n4"):
        out[f"forms.chern_forms.{tag}.p50_ms"] = (p50("forms.chern_forms", tag), "ms")
    out["forms.schur_form.p50_ms"] = (p50("forms.schur_form"), "ms")
    out["forms.c3_principal_minors.p50_ms"] = (p50("forms.c3_principal_minors"), "ms")
    wp = "forms.weak_positivity_min"
    for tag in ("q1", "q2"):
        per = [1e6 * dur(s) / s["samples"] for s in by_tag[(wp, tag)]]
        out[f"{wp}.{tag}.us_per_sample"] = (statistics.median(per) if per else 0.0, "us")
    out[f"{wp}.busy_s"] = (busy(wp), "s")

    for fn in ("block_map_from_json", "dump"):
        out[f"serialization.{fn}.busy_s"] = (busy(f"serialization.{fn}"), "s")

    self_by_module = defaultdict(float)
    for s, t, inside in zip(spans, self_times(spans), in_pass):
        if inside:
            self_by_module[s["name"].split(".", 1)[0]] += t
    for mod in MODULES:
        out[f"{mod}.self_s"] = (self_by_module[mod] / n_pass, "s")
    return out
