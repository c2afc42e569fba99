"""Spans around the public functions of each h1curves layer.

The tracer replaces functions and methods of the imported h1curves modules
with wrappers, in every module namespace that holds them (``from .x import
f`` copies the reference, so patching the defining module alone would miss
callers).  Each wrapper records a span; spans are aggregated in memory by
(parent layer, layer) as calls, total and self time, where self time is the
span's duration minus the time of its child spans.  Nothing is written until
``dump``.  Optional counters record the work a call was asked to do (points
evaluated, RK4 steps, membership samples, golden-section evaluations).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter



class Tracer:
    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counts = defaultdict(float)  # "layer.quantity" -> count
        self._stack = []  # [name, start, child time]
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span called name; count(args, kwargs) -> (key, n)."""
        stack, edges, counts = self._stack, self.edges, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, n = count(args, kwargs)
                counts[key] += n
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                edge = edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[2]

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching -------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, count=None, adapt=None):
        """Trace module.attr wherever h1curves holds it; adapt(original), if
        given, is what runs inside the span."""
        original = getattr(module, attr)
        traced = self.wrap(name, adapt(original) if adapt else original, count)
        for mod in _h1curves_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, count=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, count))
        else:
            traced = self.wrap(name, raw, count)
        setattr(cls, attr, traced)
        self._undo.append((cls, attr, raw))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) summed over every parent."""
        calls = sum(e[0] for (_, n), e in self.edges.items() if n == name)
        self_s = math.fsum(e[2] for (_, n), e in self.edges.items() if n == name)
        return calls, self_s

    def dump(self, path):
        doc = {
            "spans": [
                {"parent": p, "name": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (p, n), e in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _h1curves_modules():
    return [m for k, m in list(sys.modules.items()) if k == "h1curves" or k.startswith("h1curves.")]


def _size(x) -> int:
    return getattr(x, "size", 1)  # arrays and numpy scalars have .size; floats count 1


def install(tracer: Tracer):
    """Wrap the public entry points of every layer the CLI reaches."""
    from h1curves import bertrand, cesaro, classify, curves, expressions, fields, frenet, numerics

    def steps(args, kwargs):
        s_max = args[2] if len(args) > 2 else kwargs["s_max"]
        step = args[3] if len(args) > 3 else kwargs.get("step", 1e-3)
        return "frenet.reconstruct.steps", max(4, math.ceil(s_max / step))

    def points(key, index):
        return lambda args, kwargs: (key, _size(args[index]))

    def samples(args, kwargs):
        return "cesaro.surface_membership.samples", (args[3] if len(args) > 3
                                                     else kwargs.get("n_samples", 200))

    tracer.patch_function(frenet, "reconstruct", "frenet.reconstruct", steps)
    for attr in ("__init__", "resample", "__call__", "derivative"):
        tracer.patch_method(fields.SampledField, attr, "fields.sampled")
    tracer.patch_function(curves, "reparam_horizontal", "curves.reparam_horizontal")
    tracer.patch_method(curves.HorizontalCurve, "u_of_s", "curves.u_of_s",
                        points("curves.u_of_s.points", 1))
    tracer.patch_method(curves.ParamCurve, "contact_speed", "curves.contact_speed",
                        points("curves.contact_speed.points", 1))
    tracer.patch_function(curves, "kappa_tau_arbitrary", "curves.invariants")
    tracer.patch_function(expressions, "parse", "expressions.parse")
    tracer.patch_method(expressions.ScalarFn, "__call__", "expressions.eval",
                        points("expressions.eval.points", 1))
    tracer.patch_function(numerics, "cumulative_simpson", "numerics.cumulative_simpson")
    tracer.patch_function(cesaro, "surface_membership", "cesaro.surface_membership", samples)
    tracer.patch_method(cesaro.SurfaceOfRevolution, "profile", "cesaro.profile",
                        points("cesaro.profile.points", 1))
    tracer.patch_function(cesaro, "pansu_sphere", "cesaro.pansu_sphere")
    tracer.patch_function(cesaro, "generate_surface_constant_kappa", "cesaro.generate_surface")
    tracer.patch_function(cesaro, "generate_surface_constant_tau", "cesaro.generate_surface")
    tracer.patch_function(bertrand, "bertrand_mate", "bertrand.bertrand_mate")
    tracer.patch_function(classify, "classify_position", "classify.classify_position")

    def counting_objective(golden):
        def golden_section(f, *args, **kwargs):
            def objective(t):
                tracer.counts["numerics.golden_section.evals"] += 1
                return f(t)
            return golden(objective, *args, **kwargs)
        return golden_section

    tracer.patch_function(numerics, "golden_section", "numerics.golden_section",
                          adapt=counting_objective)


def layer_metrics(tracer: Tracer, rounds: int, root: str = "cli.command") -> dict:
    """Per-round layer figures named <layer>.<quantity>."""
    out = {}
    per = 1.0 / rounds

    def put(name, value, unit):
        out[name] = {"value": value * per, "unit": unit}

    calls_names = ["frenet.reconstruct", "fields.sampled", "curves.reparam_horizontal",
                   "curves.u_of_s", "curves.contact_speed", "curves.invariants",
                   "expressions.parse", "expressions.eval", "numerics.golden_section",
                   "numerics.cumulative_simpson", "cesaro.surface_membership", "cesaro.profile",
                   "bertrand.bertrand_mate", "classify.classify_position"]
    self_names = ["cli.command", "frenet.reconstruct", "fields.sampled",
                  "curves.reparam_horizontal", "curves.u_of_s", "curves.invariants",
                  "expressions.parse", "expressions.eval", "numerics.golden_section",
                  "numerics.cumulative_simpson", "cesaro.surface_membership",
                  "cesaro.pansu_sphere", "cesaro.generate_surface", "bertrand.bertrand_mate",
                  "classify.classify_position"]
    for name in calls_names:
        put(f"{name}.calls", tracer.layer(name)[0], "count")
    for name in self_names:
        put(f"{name}.self_s", tracer.layer(name)[1], "s")
    for key in ("frenet.reconstruct.steps", "curves.u_of_s.points", "curves.contact_speed.points",
                "expressions.eval.points", "numerics.golden_section.evals",
                "cesaro.surface_membership.samples", "cesaro.profile.points"):
        put(key, tracer.counts.get(key, 0.0), "count")
    put("cli.output_bytes", tracer.counts.get("cli.output_bytes", 0.0), "B")

    def ratio(num, den):
        d = tracer.counts.get(den, 0.0)
        return tracer.counts.get(num, 0.0) / d if d else 0.0

    out["curves.contact_speed_per_u_of_s_point"] = {
        "value": ratio("curves.contact_speed.points", "curves.u_of_s.points"), "unit": "ratio"}
    out["numerics.golden_evals_per_membership_sample"] = {
        "value": ratio("numerics.golden_section.evals", "cesaro.surface_membership.samples"),
        "unit": "ratio"}
    # share of the in-process time spent inside some layer span below the
    # command span (the rest is click dispatch, spec reading and formatting)
    _, root_self = tracer.layer(root)
    total = math.fsum(e[1] for (_, n), e in tracer.edges.items() if n == root)
    out["trace.layer_share"] = {
        "value": (total - root_self) / total if total else 0.0, "unit": "ratio"}
    return out
