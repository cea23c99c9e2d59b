"""Spans around the public functions of each chirotri layer, from outside.

A ``Tracer`` rebinds each traced function, in every ``chirotri`` module that
holds it, to a wrapper that records a span: name, start, end and parent
span. Methods are wrapped on their class. Nothing under ``src/`` changes;
``uninstall`` puts the originals back. Spans stay in memory until the op
ends; ``aggregate`` turns the spans of many ops into per-layer metrics.

A span's self time is its duration minus the durations of its child spans
(the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from math import comb, log10

from chirotri.chirotope import Chirotope, RootedChirotope
from chirotri.doublecircle import QkTable

LAYERS = {
    "cli": ("run_cli",),
    "expr": ("parse_expr", "eval_expr", "load_rooted"),
    "chirotope": ("chirotope_from_points", "check_axioms", "extreme_elements",
                  "hull_neighbors"),
    "compose": ("join", "meet", "twist", "double_circle"),
    "oracle": ("brute_P", "count_triangulations"),
    "polynomials": ("join_P", "meet_P", "join_Q", "try_split",
                    "count_weak_join", "q_from_p"),
    "doublecircle": ("QkTable", "qk_step", "small_roots", "f_closed",
                     "f_series", "df_series", "asymptotic_report"),
    "orderdb": ("read_order_types",),
    "search": ("koch_variant_search", "seed_score"),
}

# traced names that are methods: name -> (class, attribute)
METHODS = {
    "check_axioms": (Chirotope, "check_axioms"),
    "extreme_elements": (Chirotope, "extreme_elements"),
    "hull_neighbors": (RootedChirotope, "hull_neighbors"),
    "QkTable": (QkTable, "__init__"),
}

# counts read from inputs and outputs at the span boundaries: name -> unit
COUNTERS = {
    "geometry.orient.calls": "count",
    "compose.triples_out": "count",
    "oracle.weak_triangulations": "count",
    "oracle.weak_per_s": "1/s",
    "oracle.max_n": "count",
    "polynomials.split_ratio": "ratio",
    "polynomials.max_u_deg": "count",
    "polynomials.terms_out": "count",
    "polynomials.max_coeff_digits": "digits",
    "doublecircle.max_digits": "digits",
    "expr.nodes": "count",
    "expr.distinct_nodes": "count",
    "orderdb.records": "count",
    "search.candidates": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out += [(f"{layer}.{name}.calls", "count"),
                    (f"{layer}.{name}.self_s", "s")]
    out += list(COUNTERS.items())
    out += [(f"{layer}.share", "ratio") for layer in LAYERS]
    return out


def _digits(n: int) -> int:
    return int(abs(n).bit_length() * log10(2)) + 1


def _nodes(e, seen):
    """Tree size of an expression, adding every distinct node to ``seen``."""
    seen.add(e)
    kids = [getattr(e, f) for f in ("left", "right", "inner") if hasattr(e, f)]
    return 1 + sum(_nodes(k, seen) for k in kids)


# observers: (args, result, tracer, span) -> info dict for the span
def _obs_points(args, out, tr, span):
    return {"orient": comb(len(args[0]), 3)}


def _obs_merge(args, out, tr, span):
    rc = out[0] if isinstance(out, tuple) else out
    return {"triples": comb(rc.chi.n, 3)}


def _obs_brute(args, out, tr, span):
    return {"weak": sum(out._c.values()), "n": args[0].chi.n}


def _obs_split(args, out, tr, span):
    parent = tr.spans[span[1]] if span[1] >= 0 else None
    if parent is not None and out is not None:
        parent[4] = parent[4] or {}
        parent[4]["splits"] = parent[4].get("splits", 0) + 1
    return None


def _obs_join(args, out, tr, span):
    info = span[4] or {}
    if out.is_zero():
        return info
    info["max_u"] = max(a for a, _ in out._c)
    info["terms"] = len(out._c)
    info["digits"] = _digits(max(out._c.values(), key=abs))
    return info


def _obs_table(args, out, tr, span):
    return {"digits": _digits(args[0].totals[-1])}


def _obs_parse(args, out, tr, span):
    seen = set()
    return {"nodes": _nodes(out, seen), "distinct": len(seen)}


def _obs_records(args, out, tr, span):
    return {"records": len(out[0])}


OBSERVERS = {
    "chirotope.chirotope_from_points": _obs_points,
    "compose.join": _obs_merge,
    "compose.meet": _obs_merge,
    "compose.twist": _obs_merge,
    "compose.double_circle": _obs_merge,
    "oracle.brute_P": _obs_brute,
    "polynomials.try_split": _obs_split,
    "polynomials.join_P": _obs_join,
    "doublecircle.QkTable": _obs_table,
    "expr.parse_expr": _obs_parse,
    "orderdb.read_order_types": _obs_records,
}


class Tracer:
    """Records spans as ``[name, parent index, start, end, info]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    rec[4] = observe(args, out, self, rec)
                return out
            finally:
                stack.pop()
                rec[3] = clock()
        return traced

    def install(self):
        """Rebind every traced function to its wrapper."""
        modules = [m for k, m in sys.modules.items()
                   if k == "chirotri" or k.startswith("chirotri.")]
        for layer, names in LAYERS.items():
            for name in names:
                metric = f"{layer}.{name}"
                if name in METHODS:
                    cls, attr = METHODS[name]
                    orig = cls.__dict__[attr]
                    self._saved.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(metric, orig))
                    continue
                orig = getattr(sys.modules[f"chirotri.{layer}"], name)
                wrapped = self._wrap(metric, orig)
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


@contextmanager
def traced(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def aggregate(span_lists, op_seconds, overhead_frac):
    """Per-layer metrics from the spans of many ops.

    ``op_seconds`` is the summed traced op time, the base of every share.
    """
    calls, self_s, info = {}, {}, {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, _, t0, t1, extra), kids in zip(spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - kids)
            if extra:
                info.setdefault(name, []).append(extra)

    def total(name, key):
        return sum(e.get(key, 0) for e in info.get(name, []))

    def peak(name, key):
        return max((e.get(key, 0) for e in info.get(name, [])), default=0)

    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            metric = f"{layer}.{name}"
            out[f"{metric}.calls"] = calls.get(metric, 0)
            out[f"{metric}.self_s"] = self_s.get(metric, 0.0)
    brute_s = self_s.get("oracle.brute_P", 0.0)
    join_calls = calls.get("polynomials.join_P", 0)
    joins = info.get("polynomials.join_P", [])
    out.update({
        "geometry.orient.calls": total("chirotope.chirotope_from_points", "orient"),
        "compose.triples_out": sum(total(f"compose.{n}", "triples")
                                   for n in LAYERS["compose"]),
        "oracle.weak_triangulations": total("oracle.brute_P", "weak"),
        "oracle.weak_per_s": (total("oracle.brute_P", "weak") / brute_s
                              if brute_s else 0.0),
        "oracle.max_n": peak("oracle.brute_P", "n"),
        "polynomials.split_ratio": (sum(1 for e in joins if e.get("splits") == 2)
                                    / join_calls if join_calls else 0.0),
        "polynomials.max_u_deg": peak("polynomials.join_P", "max_u"),
        "polynomials.terms_out": total("polynomials.join_P", "terms"),
        "polynomials.max_coeff_digits": peak("polynomials.join_P", "digits"),
        "doublecircle.max_digits": peak("doublecircle.QkTable", "digits"),
        "expr.nodes": total("expr.parse_expr", "nodes"),
        "expr.distinct_nodes": total("expr.parse_expr", "distinct"),
        "orderdb.records": total("orderdb.read_order_types", "records"),
        "search.candidates": calls.get("search.seed_score", 0),
        "trace.overhead_frac": overhead_frac,
    })
    for layer, names in LAYERS.items():
        layer_s = sum(self_s.get(f"{layer}.{n}", 0.0) for n in names)
        out[f"{layer}.share"] = layer_s / op_seconds if op_seconds else 0.0
    return out
