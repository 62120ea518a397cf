"""Monte Carlo estimation of cut fractions and reliability curves.

Each run draws one uniform removal order and scores, for every removal
count j, whether the residual graph is disconnected. Averaging the
indicator over runs estimates the cut fraction c_j, and plugging the
estimates into the C-form binomial mixture reconstructs the curve.

A literal delete-and-recheck sweep costs O(N(N+L)) per run. The runs here
are executed backwards instead: nodes (or links) are inserted in reverse
removal order into a union-find structure while tracking the component
count, which gives identical per-permutation answers in O((N+L) alpha)
(Newman & Ziff, PRL 85, 4104, 2000). Two exact shortcuts cut the constant.
A link sweep stops once all nodes are connected, since every smaller
removal count leaves a superset of those links; the run is scored by that
threshold. A node sweep skips the finds while the inserted nodes form one
component: a new node then joins it exactly when it has an inserted
neighbour.

Runs are seeded individually by mixing the root seed with the run index,
so results do not depend on how runs are split across worker processes.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .curve import Curve, _check_probability
from .exact import ReliabilityCoefficients, bernstein_mixture, _clamp01
from .graph import _MASK64, Graph

# below this size, an inline shuffle beats the per-run numpy generator setup
_SMALL_PERMUTATION = 32


def mix_seed(seed: int, index: int) -> int:
    """SplitMix64 step: the per-run seed for run `index` under a root seed."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def resolve_workers(workers=None) -> int:
    """Worker processes to use; the RELPOLY_THREADS env var caps the value.

    Raises ValueError when RELPOLY_THREADS is set to anything but a positive
    integer.
    """
    w = workers if workers is not None else 1
    env = os.environ.get("RELPOLY_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"RELPOLY_THREADS must be a positive integer, got {env!r}")
        w = min(w, int(env))
    return max(1, min(w, os.cpu_count() or 1))


@dataclass(frozen=True)
class CutFractionEstimate:
    """Estimated disconnection probabilities c_j = R_j / runs, j = 0..dimension.

    kind "node": j counts removed nodes. kind "link": j counts removed links
    (all nodes stay present).
    """

    kind: str
    dimension: int
    counts: tuple
    runs: int
    seed: int

    def __post_init__(self):
        if len(self.counts) != self.dimension + 1:
            raise ValueError("need one count per removal size 0..dimension")
        if any(c < 0 or c > self.runs for c in self.counts):
            raise ValueError("counts must lie in [0, runs]")

    @property
    def fractions(self) -> tuple:
        return tuple(c / self.runs for c in self.counts)


def _permutation(n: int, run_seed: int) -> list:
    if n >= _SMALL_PERMUTATION:
        return np.random.Generator(np.random.PCG64(run_seed)).permutation(n).tolist()
    # Fisher-Yates driven by a SplitMix64 stream; index draws use the
    # multiply-shift trick, whose bias of at most n/2^64 is irrelevant here.
    # Draw k equals mix_seed(run_seed, k), but the step stays inline: calling
    # mix_seed per draw cost +4 us per run at n = 18 and +6 us at n = 30
    # (22-24 % slower, 2-vCPU Xeon, CPython 3.11).
    perm = list(range(n))
    state = run_seed
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        j = (z * (i + 1)) >> 64
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _node_disconnection_into(adj, n: int, perm, out):
    """Add 1 to out[j] for every j in 0..N whose residual is disconnected.

    perm is the removal order; insertion proceeds from its tail. The residual
    after j removals is connected iff exactly one component remains among the
    N - j inserted nodes; the empty residual (j = N) is disconnected.

    While the inserted nodes form one component, a new node joins it exactly
    when it has an inserted neighbour: it is hung under the first one found
    and no find runs. A node with no inserted neighbour starts a second
    component and drops the sweep to union-find by size with path halving,
    until the count returns to one. There the new node's root is carried
    along, so each inserted neighbour costs one find.
    """
    out[n] += 1
    pos = [0] * n
    for t in range(n):
        pos[perm[t]] = t
    parent = list(range(n))
    size = [1] * n
    ncomp = 1  # the tail node alone
    for t in range(n - 2, -1, -1):
        v = perm[t]
        if ncomp == 1:
            for u in adj[v]:
                if pos[u] > t:
                    parent[v] = u
                    break
            else:
                # the single component's root gets its true size back
                x = perm[t + 1]
                while parent[x] != x:
                    x = parent[x]
                size[x] = n - 1 - t
                ncomp = 2
                out[t] += 1
            continue
        ncomp += 1
        x = v  # the root of v's component as it grows
        for u in adj[v]:
            if pos[u] > t:
                y = u
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x != y:
                    if size[x] < size[y]:
                        x, y = y, x
                    parent[y] = x
                    size[x] += size[y]
                    ncomp -= 1
        if ncomp != 1:
            out[t] += 1


def _link_connection_threshold(edges, n: int, l: int, perm) -> int:
    """Largest j whose residual keeps all N nodes connected, or -1 if none does.

    Links are inserted from the tail of the removal order perm. Removing
    fewer links only adds links back, so every j at or below the returned
    value leaves a connected residual and every j above it a disconnected
    one; the sweep stops at the first insertion that connects all nodes.
    """
    if n == 1:
        return l
    ncomp = n
    parent = list(range(n))
    size = [1] * n
    for t in range(l - 1, -1, -1):
        u, v = edges[perm[t]]
        x = u
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        y = v
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            size[x] += size[y]
            ncomp -= 1
            if ncomp == 1:
                return t
    return -1


def _check_order(order, size: int, what: str):
    # O(size), unlike sorting: with as many ids as elements, equal sets leave
    # no room for a duplicate or an out-of-range id
    if len(order) != size or set(order) != set(range(size)):
        raise ValueError(f"removal order must be a permutation of all {what} ids")


def node_removal_profile(graph: Graph, removal_order) -> list:
    """Disconnection flags for j = 0..N under one explicit removal order."""
    order = list(removal_order)
    _check_order(order, graph.num_nodes, "node")
    out = [0] * (graph.num_nodes + 1)
    _node_disconnection_into(graph.adjacency, graph.num_nodes, order, out)
    return [bool(x) for x in out]


def link_removal_profile(graph: Graph, removal_order) -> list:
    """Disconnection flags for j = 0..L removed links, nodes always present."""
    order = list(removal_order)
    l = graph.num_links
    _check_order(order, l, "link")
    last = _link_connection_threshold(graph.links, graph.num_nodes, l, order)
    return [False] * (last + 1) + [True] * (l - last)


def _count_range(kind, payload, n, l, seed, start, stop):
    """Disconnection counts of runs start..stop-1, from the arguments alone."""
    if kind == "node":
        out = [0] * (n + 1)
        for r in range(start, stop):
            _node_disconnection_into(payload, n, _permutation(n, mix_seed(seed, r)), out)
        return out
    # runs[k] counts the runs whose threshold is k - 1; a run is disconnected
    # at every j above its threshold, so the counts are the prefix sums
    runs = [0] * (l + 2)
    for r in range(start, stop):
        runs[_link_connection_threshold(payload, n, l, _permutation(l, mix_seed(seed, r))) + 1] += 1
    return list(itertools.accumulate(runs[: l + 1]))


def _estimate(graph: Graph, kind: str, runs: int, seed: int, workers) -> CutFractionEstimate:
    n, l = graph.num_nodes, graph.num_links
    dim = n if kind == "node" else l
    if dim < 1:
        raise ValueError(f"graph must have at least one {kind}")
    if runs < 1:
        raise ValueError("runs must be positive")
    payload = graph.adjacency if kind == "node" else graph.links
    w = resolve_workers(workers)
    if w <= 1 or runs < 4 * w:
        counts = _count_range(kind, payload, n, l, seed, 0, runs)
    else:
        step = max(1, runs // (w * 4))
        chunks = [
            (kind, payload, n, l, seed, at, min(at + step, runs)) for at in range(0, runs, step)
        ]
        with multiprocessing.get_context("fork").Pool(w) as pool:
            counts = [sum(column) for column in zip(*pool.starmap(_count_range, chunks))]
    return CutFractionEstimate(kind, dim, tuple(counts), runs, seed)


def estimate_node_cut_fractions(
    graph: Graph, runs: int, seed: int, workers: int | None = None
) -> CutFractionEstimate:
    """Estimate the node cut fractions c_j over `runs` random removal orders."""
    return _estimate(graph, "node", runs, seed, workers)


def estimate_link_cut_fractions(
    graph: Graph, runs: int, seed: int, workers: int | None = None
) -> CutFractionEstimate:
    """Estimate the link cut fractions over `runs` random link removal orders."""
    return _estimate(graph, "link", runs, seed, workers)


# ---------------------------------------------------------------------------
# curves from estimated (or exact) fractions


_log = logging.getLogger(__name__)


def _estimate_curve(est: CutFractionEstimate):
    """p -> 1 - sum_j C(n,j) c_j p^(n-j) (1-p)^j for the estimate, clamped to [0, 1].

    The value is taken as the complement mixture
    sum_j C(n,j) (1-c_j) p^(n-j) (1-p)^j: summing nonnegative terms avoids
    the cancellation dirt that x^p would otherwise blow up near zero.
    """
    rev_survive = tuple(1.0 - c for c in est.fractions)[::-1]

    def value(p):
        raw = bernstein_mixture(rev_survive, float(p))
        if 0.0 <= raw <= 1.0:
            return raw
        _log.debug("clamped curve value at p=%.17g; raw %.17g", p, raw)
        return _clamp01(raw)

    return value


def _reliability_curve(est: CutFractionEstimate, grid, kind: str) -> Curve:
    if est.kind != kind:
        raise ValueError(f"{kind}-kind estimate required")
    values = tuple(map(_estimate_curve(est), grid))
    meta = {"method": "mc", "kind": kind, "runs": est.runs, "seed": est.seed}
    return Curve(tuple(grid), values, meta)


def node_reliability_curve(est: CutFractionEstimate, grid) -> Curve:
    """1 - sum_j C(N,j) c_j p^(N-j) (1-p)^j on the grid, clamped to [0, 1]."""
    return _reliability_curve(est, grid, "node")


def link_reliability_curve(est: CutFractionEstimate, grid) -> Curve:
    return _reliability_curve(est, grid, "link")


def estimate_link_reliability_curve(
    graph: Graph, runs: int, seed: int, grid, workers: int | None = None
) -> Curve:
    """Convenience: estimate link cut fractions, then evaluate their curve."""
    return link_reliability_curve(
        estimate_link_cut_fractions(graph, runs, seed, workers), grid
    )


# ---------------------------------------------------------------------------
# Laplace concentration estimate


def _cut_fraction_vector(source):
    if isinstance(source, CutFractionEstimate):
        if source.kind != "node":
            raise ValueError("node-kind fractions required")
        return source.fractions, source.dimension
    if isinstance(source, ReliabilityCoefficients):
        if source.kind != "node":
            raise ValueError("node-kind coefficients required")
        return source.cut_fractions, source.num_nodes
    vec = tuple(float(x) for x in source)
    return vec, len(vec) - 1


def _interp(vec, x: float) -> float:
    if x <= 0:
        return vec[0]
    lo = int(x)
    if lo >= len(vec) - 1:
        return vec[-1]
    frac = x - lo
    return (1.0 - frac) * vec[lo] + frac * vec[lo + 1]


def laplace_estimate(source, p: float, basis: str = "c") -> float:
    """Concentration-point estimate of the node reliability at p.

    basis "s": interpolate the connected fractions at index N*p.
    basis "c": 1 minus the cut fractions interpolated at index N*(1-p).
    The two agree whenever the fractions come from the same coefficients.
    Non-integer indices are linearly interpolated.
    """
    _check_probability(p)
    cvec, n = _cut_fraction_vector(source)
    if basis == "c":
        return _clamp01(1.0 - _interp(cvec, n * (1.0 - p)))
    if basis == "s":
        svec = tuple(1.0 - cvec[n - k] for k in range(n + 1))
        return _clamp01(_interp(svec, n * p))
    raise ValueError('basis must be "s" or "c"')


def laplace_curve(source, grid, basis: str = "c") -> Curve:
    values = tuple(laplace_estimate(source, p, basis) for p in grid)
    runs = source.runs if isinstance(source, CutFractionEstimate) else None
    seed = source.seed if isinstance(source, CutFractionEstimate) else None
    return Curve(
        tuple(grid),
        values,
        {"method": "laplace", "kind": "node", "runs": runs, "seed": seed},
    )
