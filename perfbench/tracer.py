"""Span recorder that times diamondfield's layers from outside the package.

`install(recorder)` rebinds every module attribute that holds a public
function of the traced modules (including names imported into other
modules), the `Packet.eval_natural` method and `mpmath.hyp1f1`, so each
call records a span: name, start, end, parent span and operation id.
Spans stay in memory; `layer_metrics` folds them into per-layer totals and
`dump` writes them out.  The package source is never edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# module file -> short layer name used in metric names
TRACED = {
    "specfun": "specfun",
    "bogoliubov": "bogoliubov",
    "_quad": "quad",
    "modes": "modes",
    "correlations": "correlations",
    "gaussian": "gaussian",
    "detector": "detector",
}
CLI_FUNCTIONS = ("main",)  # cmd_* stay inside main's self time (argparse, formatting, emit)

MP_SPAN = "mpmath.hyp1f1"
EVAL_NATURAL = "modes.eval_natural"
INTEGRATE_ADAPTIVE = "quad.integrate_adaptive"


class Recorder:
    """In-memory span tree for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.lanes = {}  # span name -> summed argument sizes
        self.quad_evals = []  # per integrate_adaptive call: node count of each integrand evaluation
        self.quad_failures = 0

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def add(self, key, n):
        self.lanes[key] = self.lanes.get(key, 0) + n

    def durations(self):
        """(inclusive, self) seconds per span, in span order."""
        incl = [s[2] - s[1] for s in self.spans]
        selft = list(incl)
        for s, d in zip(self.spans, incl):
            if s[3] >= 0:
                selft[s[3]] -= d
        return incl, selft

    def totals(self):
        """name -> {'calls', 's', 'self_s'}; s counts only the outermost span
        of a name, so recursion through wrappers is not double counted."""
        incl, selft = self.durations()
        out = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += selft[i]
            if not self._has_ancestor(i, s[0]):
                t["s"] += incl[i]
        return out

    def _has_ancestor(self, i, name):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4]}) + "\n")


def _size(x):
    try:
        return int(getattr(x, "size"))
    except (AttributeError, TypeError):
        return 1


def _counting_integrand(f, counts):
    @functools.wraps(f)
    def g(u, *a, **k):
        counts.append(_size(u))
        return f(u, *a, **k)
    return g


def _make_wrapper(rec, name, fn):
    if name == INTEGRATE_ADAPTIVE:
        from diamondfield.errors import ConvergenceError

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            counts = []
            rec.quad_evals.append(counts)
            try:
                return rec.call(name, fn, (_counting_integrand(f, counts),) + args, kwargs)
            except ConvergenceError:
                rec.quad_failures += 1
                raise
        return wrapper

    sized = {"specfun.kummer_m_vec": 2, "specfun.kummer_asymptotic_sectors": 2,
             "specfun.log_gamma": 0}.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sized is not None and len(args) > sized:
            rec.add(name, _size(args[sized]))
        return rec.call(name, fn, args, kwargs)
    return wrapper


def _targets():
    """(function, span name) for every traced function."""
    out = []
    for modname, short in TRACED.items():
        mod = importlib.import_module(f"diamondfield.{modname}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((obj, f"{short}.{attr}"))
    cli = importlib.import_module("diamondfield.cli")
    out += [(getattr(cli, attr), f"cli.{attr}") for attr in CLI_FUNCTIONS]
    return out


def install(rec):
    """Wrap every traced function for `rec`; returns a function that undoes it."""
    import mpmath
    from diamondfield.modes import Packet

    originals = {}
    for fn, name in _targets():
        originals[id(fn)] = (fn, _make_wrapper(rec, name, fn))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "diamondfield" and not modname.startswith("diamondfield."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))

    orig_eval = Packet.eval_natural

    def eval_natural(self, u):
        rec.add(EVAL_NATURAL, _size(u) * len(self.omegas))
        return rec.call(EVAL_NATURAL, orig_eval, (self, u), {})

    Packet.eval_natural = eval_natural
    undo.append((Packet, "eval_natural", orig_eval))

    orig_mp = mpmath.hyp1f1

    def hyp1f1(*args, **kwargs):
        return rec.call(MP_SPAN, orig_mp, args, kwargs)

    mpmath.hyp1f1 = hyp1f1
    undo.append((mpmath, "hyp1f1", orig_mp))

    def uninstall():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)
    return uninstall


SRC_FILES = ("__init__", "_quad", "bogoliubov", "cli", "correlations", "detector",
             "errors", "gaussian", "geometry", "modes", "specfun")


def _src_name(stem):
    return {"__init__": "package", "_quad": "quad"}.get(stem, stem)


def layer_metric_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    m = []

    def span(name, *qs):
        for q in qs:
            m.append((f"{name}.{q}", "count" if q == "calls" else "s"))

    span("specfun.kummer_m_vec", "calls")
    m.append(("specfun.kummer_m_vec.lanes", "count"))
    span("specfun.kummer_m_vec", "s", "self_s")
    span("specfun.kummer_m", "calls", "s")
    m += [("specfun.mp_calls", "count"), ("specfun.mp_s", "s"), ("specfun.mp_frac", "1")]
    span("specfun.asymptotic_sectors", "calls")
    m.append(("specfun.asymptotic_sectors.lanes", "count"))
    span("specfun.asymptotic_sectors", "s")
    span("specfun.log_gamma", "calls")
    m.append(("specfun.log_gamma.points", "count"))
    span("specfun.log_gamma", "s")
    span("bogoliubov.smeared_ab", "calls", "s", "self_s")
    span("bogoliubov.thermal_occupation", "s", "self_s")
    span("bogoliubov.ab_coefficients", "calls", "self_s")
    span("correlations.adjacent_moments_analytic", "calls", "s", "self_s")
    span("gaussian.build_covariance", "calls", "s", "self_s")
    span("gaussian.joint_variance", "calls", "s")
    span("gaussian.squeezing_witness", "calls", "s")
    span("modes.kg_product", "calls", "s", "self_s")
    span("modes.eval_natural", "calls", "self_s")
    m += [("modes.eval_natural.elements", "count"), ("modes.eval_natural.bytes_computed", "B")]
    span("correlations.cross_moments", "calls", "s", "self_s")
    span("correlations.smeared_asymptotic_moment", "calls", "s")
    span("quad.integrate_adaptive", "calls", "s", "self_s")
    m += [("quad.integrate_adaptive.nodes", "count"),
          ("quad.integrate_adaptive.doublings", "count"),
          ("quad.integrate_adaptive.failures", "count")]
    span("detector.response_rate", "calls", "s", "self_s")
    span("detector.identity_residual", "calls", "s", "self_s")
    span("cli.main", "calls", "s", "self_s")
    m += [(f"{_src_name(s)}.src_lines", "lines") for s in SRC_FILES]
    m += [("total.src_lines", "lines"), ("trace.spans", "count"), ("trace.overhead_frac", "1")]
    return m


# metric prefix -> span name where they differ
_SPAN_ALIAS = {"specfun.asymptotic_sectors": "specfun.kummer_asymptotic_sectors"}


def layer_metrics(rec, src_lines, overhead_frac):
    """Every per-layer metric of layer_metric_names() from one traced pass."""
    tot = rec.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    mp = tot.get(MP_SPAN, empty)
    kummer_lanes = rec.lanes.get("specfun.kummer_m_vec", 0) + tot.get("specfun.kummer_m", empty)["calls"]
    elements = rec.lanes.get(EVAL_NATURAL, 0)
    special = {
        "specfun.kummer_m_vec.lanes": rec.lanes.get("specfun.kummer_m_vec", 0),
        "specfun.mp_calls": mp["calls"],
        "specfun.mp_s": mp["s"],
        "specfun.mp_frac": mp["calls"] / kummer_lanes if kummer_lanes else 0.0,
        "specfun.asymptotic_sectors.lanes": rec.lanes.get("specfun.kummer_asymptotic_sectors", 0),
        "specfun.log_gamma.points": rec.lanes.get("specfun.log_gamma", 0),
        "modes.eval_natural.elements": elements,
        "modes.eval_natural.bytes_computed": 16 * elements,
        "quad.integrate_adaptive.nodes": sum(sum(c) for c in rec.quad_evals),
        "quad.integrate_adaptive.doublings": sum(max(len(c) - 1, 0) for c in rec.quad_evals),
        "quad.integrate_adaptive.failures": rec.quad_failures,
        "total.src_lines": sum(src_lines.values()),
        "trace.spans": len(rec.spans),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit in layer_metric_names():
        if name in special:
            value = special[name]
        elif name.endswith(".src_lines"):
            stem = next(s for s in SRC_FILES if f"{_src_name(s)}.src_lines" == name)
            value = src_lines.get(stem, 0)
        else:
            prefix, q = name.rsplit(".", 1)
            value = tot.get(_SPAN_ALIAS.get(prefix, prefix), empty)[q]
        out[name] = {"value": value, "unit": unit}
    return out
