"""Reliability-driven link addition.

Adding k links to maximize either stochastic reliability surrogate reduces
to maximizing 1 - phi_D(1-p) = (1/N) sum_i (1 - (1-p)^(d_i)), since both
surrogates are increasing in that value. Moving one endpoint of an added
link from a high-degree node to a lower-degree one raises the sum whenever
the degree gap condition holds, so pairing the lowest-degree nodes greedily
is locally unimprovable. The random and highest-degree strategies exist for
comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .curve import _check_probability
from .errors import CapacityError
from .graph import Graph, _seeded_generator, degree_distribution


@dataclass(frozen=True)
class AugmentationPlan:
    """k new links disjoint from the base graph's link set."""

    strategy: str
    k: int
    added: tuple
    seed: int = None

    def __post_init__(self):
        if len(self.added) != self.k:
            raise ValueError("plan size must equal k")
        if any(u == v for u, v in self.added):
            raise ValueError("self-pairs are not allowed")

    def to_json(self) -> str:
        payload = {
            "strategy": self.strategy,
            "k": self.k,
            "added": [[u, v] for u, v in self.added],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, sort_keys=True) + "\n"

    def degree_changes(self, num_nodes: int) -> tuple:
        a = [0] * num_nodes
        for u, v in self.added:
            a[u] += 1
            a[v] += 1
        return tuple(a)


def objective(graph: Graph, p: float) -> float:
    """1 - phi_D(1-p), the shared increasing core of both reliability surrogates."""
    _check_probability(p)
    return 1.0 - degree_distribution(graph).pgf(1.0 - p)


def restructuring_delta(dest_degree: int, source_degree: int, p: float) -> float:
    """Objective-sum change from moving one added-link endpoint.

    Arguments are the current effective degrees: the endpoint leaves the
    node at `source_degree` (which must hold at least one link end) and
    lands on the node at `dest_degree`. Positive exactly when
    source_degree - 1 > dest_degree.
    """
    if source_degree < 1:
        raise ValueError("source node has no link end to move")
    if dest_degree < 0:
        raise ValueError("degrees are nonnegative")
    _check_probability(p)
    q = 1.0 - p
    return p * (q**dest_degree - q ** (source_degree - 1))


def _capacity_check(graph: Graph, k: int):
    if k < 1:
        raise ValueError("k must be positive")
    free = math.comb(graph.num_nodes, 2) - graph.num_links
    if k > free:
        raise CapacityError(f"cannot add {k} links; only {free} node pairs are unlinked")


def _augment(graph: Graph, added) -> Graph:
    return Graph(graph.num_nodes, graph.edges() + list(added))


def _greedy_addition(graph: Graph, k: int, descending: bool):
    _capacity_check(graph, k)
    n = graph.num_nodes
    adj = [set(nb) for nb in graph.adjacency]
    deg = [len(s) for s in adj]
    added = []
    sign = -1 if descending else 1
    for _ in range(k):
        order = sorted(range(n), key=lambda v: (sign * deg[v], v))
        pair = None
        for i in order:
            for j in order:
                if j != i and j not in adj[i]:
                    pair = (min(i, j), max(i, j))
                    break
            if pair:
                break
        if pair is None:  # unreachable once the capacity check passed
            raise CapacityError("no addable node pair remains")
        u, v = pair
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1
        added.append(pair)
    return added


def greedy_lowest_degree_addition(graph: Graph, k: int):
    """Repeatedly link the two lowest-degree unlinked nodes (ties by id).

    Degrees are refreshed after every single link. When the minimum-degree
    node is already adjacent to everyone, the scan advances to the next
    node in (degree, id) order.
    """
    added = _greedy_addition(graph, k, descending=False)
    return _augment(graph, added), AugmentationPlan("lowest", k, tuple(added))


def highest_degree_addition(graph: Graph, k: int):
    """Mirror strategy: link the highest-degree unlinked pairs (ties by id)."""
    added = _greedy_addition(graph, k, descending=True)
    return _augment(graph, added), AugmentationPlan("highest", k, tuple(added))


def random_pairing_addition(graph: Graph, k: int, seed: int):
    """k uniform draws without replacement from the unlinked node pairs."""
    _capacity_check(graph, k)
    n = graph.num_nodes
    taken = np.zeros((n, n), dtype=bool)
    for u in range(n):
        taken[u, u] = True
        for v in graph.adjacency[u]:
            taken[u, v] = True
    iu, ju = np.triu_indices(n, k=1)
    free = np.flatnonzero(~taken[iu, ju])
    rng = _seeded_generator(seed)
    chosen = rng.choice(free, size=k, replace=False)
    added = sorted((int(iu[c]), int(ju[c])) for c in chosen)
    return _augment(graph, added), AugmentationPlan("random", k, tuple(added), seed=seed)
