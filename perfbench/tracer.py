"""Spans around relpoly's public functions, for the benchmark's traced run.

`Tracer` replaces each target function with a wrapper for as long as it is
entered, under every name a relpoly module binds it to (the CLI and the
library import functions from each other, so patching only the defining
module would miss calls). A span is (name, start, end, parent, operation);
spans stay in memory and `dump` writes them out when the run ends. A span's
self time is its duration minus the durations of its direct children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

from relpoly import approx, cli, curve, cutset, exact, graph, kgrip, montecarlo


def _pair_bytes(args, kwargs, result):
    # two int64 index arrays, one float64 per pair and one bool mask entry
    return {"graph.generate.pair_bytes_computed": math.comb(args[0], 2) * 25}


def _node_visits(args, kwargs, result):
    g, runs = args[0], args[1]
    return {"montecarlo.node_kernel.visits_computed": runs * (g.num_nodes + 2 * g.num_links)}


def _link_inserts(args, kwargs, result):
    return {"montecarlo.link_kernel.inserts_computed": args[1] * args[0].num_links}


def _node_masks(args, kwargs, result):
    n = args[0].num_nodes
    return {
        "exact.enumerate_node_coefficients.masks_computed": 2**n - 1,
        "exact.enumerate_node_coefficients.subsets": 2**n,
        "exact.enumerate_node_coefficients.connected": sum(result.connected_counts),
    }


def _link_masks(args, kwargs, result):
    l = args[0].num_links
    return {
        "exact.enumerate_link_coefficients.masks_computed": 2**l,
        "exact.enumerate_link_coefficients.connected": sum(result.kept_counts),
    }


def _mixture_terms(args, kwargs, result):
    return {"exact.bernstein_mixture.terms_computed": len(args[0])}


def _recovery(args, kwargs, result):
    return {
        "max:cutset.residual": result.residual,
        "max:cutset.max_rounding_deviation": result.max_rounding_deviation,
    }


def _recover_name(system, *rest, **kwargs):
    return "cutset.recover_exact" if system.exact else "cutset.recover_mpmath"


# (owner, attribute, span name or a function of the call's arguments, counter hook)
TARGETS = (
    (graph, "generate_er", "graph.generate_er", _pair_bytes),
    (graph, "generate_rgg", "graph.generate_rgg", _pair_bytes),
    (graph.Graph, "__init__", "graph.Graph", None),
    (graph, "load_edge_list", "graph.load_edge_list", None),
    (graph, "save_edge_list", "graph.save_edge_list", None),
    (graph, "degree_distribution", "graph.degree_distribution", None),
    (montecarlo, "estimate_node_cut_fractions", "montecarlo.estimate_node_cut_fractions", _node_visits),
    (montecarlo, "estimate_link_cut_fractions", "montecarlo.estimate_link_cut_fractions", _link_inserts),
    (montecarlo, "node_removal_profile", "montecarlo.node_removal_profile", None),
    (montecarlo, "link_removal_profile", "montecarlo.link_removal_profile", None),
    (montecarlo, "node_reliability_curve", "montecarlo.node_reliability_curve", None),
    (montecarlo, "link_reliability_curve", "montecarlo.link_reliability_curve", None),
    (montecarlo, "laplace_curve", "montecarlo.laplace_curve", None),
    (exact, "enumerate_node_coefficients", "exact.enumerate_node_coefficients", _node_masks),
    (exact, "enumerate_link_coefficients", "exact.enumerate_link_coefficients", _link_masks),
    (exact, "bernstein_mixture", "exact.bernstein_mixture", _mixture_terms),
    (cutset, "build_probe_system", "cutset.build_probe_system", None),
    (cutset, "recover_cut_counts", _recover_name, _recovery),
    (approx, "stochastic_node_curve", "approx.stochastic_node_curve", None),
    (approx, "stochastic_link_curve", "approx.stochastic_link_curve", None),
    (approx, "arithmetic_upper_bound", "approx.arithmetic_upper_bound", None),
    (approx, "geometric_upper_bound", "approx.geometric_upper_bound", None),
    (kgrip, "greedy_lowest_degree_addition", "kgrip.greedy_lowest_degree_addition", None),
    (kgrip, "highest_degree_addition", "kgrip.highest_degree_addition", None),
    (kgrip, "random_pairing_addition", "kgrip.random_pairing_addition", None),
    (kgrip, "objective", "kgrip.objective", None),
    (curve.Curve, "to_csv", "curve.Curve.to_csv", None),
    (curve.Curve, "from_csv", "curve.Curve.from_csv", None),
    (cli, "main", "cli.main", None),
    (cli, "_cmd_mc", "cli.mc", None),
    (cli, "_cmd_approx", "cli.approx", None),
    (cli, "_cmd_kgrip", "cli.kgrip", None),
    (cli, "_cmd_compare", "cli.compare", None),
)


class Tracer:
    """Context manager that records spans while the targets are patched."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation id]
        self.counts = []  # (span index, {counter: value})
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                counts.append((idx, hook(args, kwargs, result)))
            return result

        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "relpoly" or n.startswith("relpoly.")]
        for owner, attr, name, hook in TARGETS:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(fn, name, hook)
            self._set(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn and (mod, key) != (owner, attr):
                        self._set(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
        return False

    def self_times(self, ops) -> dict:
        """Total self time per span name, over spans whose operation is in `ops`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def calls(self, ops) -> dict:
        out = {}
        for name, _, _, _, op in self.spans:
            if op in ops:
                out[name] = out.get(name, 0) + 1
        return out

    def counters(self, ops) -> dict:
        """Counter sums; a counter named "max:<name>" keeps the largest value instead."""
        out = {}
        for idx, values in self.counts:
            if self.spans[idx][4] not in ops:
                continue
            for key, value in values.items():
                if key.startswith("max:"):
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def durations(self, name, op) -> list:
        return [end - start for n, start, end, _, o in self.spans if n == name and o == op]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
