"""Reliability-driven link addition.

Adding k links to maximize either stochastic reliability surrogate reduces
to maximizing 1 - phi_D(1-p) = (1/N) sum_i (1 - (1-p)^(d_i)), since both
surrogates are increasing in that value. Moving one endpoint of an added
link from a high-degree node to a lower-degree one raises the sum whenever
the degree gap condition holds, so pairing the lowest-degree nodes greedily
is locally unimprovable. The random and highest-degree strategies exist for
comparison.

Both degree rules sort the nodes once. Each added link then scans the
sorted list from the front for its two ends and moves just their two keys,
by bisection: O(N log N) for the sort plus, per link, O(N) list moves and a
scan past the first end's neighbours that lead the order.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .curve import _check_probability
from .errors import CapacityError
from .graph import Graph, _seeded_generator


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


def objective(graph: Graph, p: float) -> float:
    """1 - phi_D(1-p), the shared increasing core of both reliability surrogates."""
    _check_probability(p)
    return 1.0 - graph.degree_distribution().pgf(1.0 - p)


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
    return free


def _greedy_addition(graph: Graph, k: int, descending: bool):
    _capacity_check(graph, k)
    n = graph.num_nodes
    deg = list(graph.degrees())
    sign = -1 if descending else 1
    # a node linked to everyone can be neither end of a new link: it leaves the order
    order = sorted((sign * d, v) for v, d in enumerate(deg) if d < n - 1)
    linked = {}  # neighbour sets, added links included, of the nodes linked so far

    def neighbours(w):
        if w not in linked:
            linked[w] = set(graph.neighbors(w))
        return linked[w]

    added = []
    for _ in range(k):
        u = order[0][1]
        mine = neighbours(u)
        # the capacity check leaves u a non-neighbour, and it is in the order
        v = next(j for _, j in islice(order, 1, None) if j not in mine)
        mine.add(v)
        neighbours(v).add(u)
        for w in (u, v):
            del order[bisect_left(order, (sign * deg[w], w))]
            deg[w] += 1
            if deg[w] < n - 1:
                insort(order, (sign * deg[w], w))
        added.append((min(u, v), max(u, v)))
    return added


def greedy_lowest_degree_addition(graph: Graph, k: int):
    """Repeatedly link the two lowest-degree unlinked nodes (ties by id).

    Degrees are refreshed after every single link. The first node in
    (degree, id) order that is not adjacent to everyone is linked to its
    first non-neighbour in that order. The order is sorted once and then
    kept by moving the two changed keys: O(N log N) plus, per link, O(N)
    list moves and a short scan, not a sort of all N nodes.
    """
    added = _greedy_addition(graph, k, descending=False)
    return graph.with_links(added), AugmentationPlan("lowest", k, tuple(added))


def highest_degree_addition(graph: Graph, k: int):
    """Mirror strategy: link the highest-degree unlinked pairs (ties by id).

    Same cost as the lowest-degree rule: one sort, then O(N) list moves
    and a scan per link. The scan passes every node the first end is
    already linked to, and here the first end keeps the top of the order,
    so k links on a sparse graph can cost O(k^2) in scanning.
    """
    added = _greedy_addition(graph, k, descending=True)
    return graph.with_links(added), AugmentationPlan("highest", k, tuple(added))


def random_pairing_addition(graph: Graph, k: int, seed: int):
    """k uniform draws without replacement from the unlinked node pairs.

    Draw r is the r-th unlinked pair in the order (0,1), (0,2), ...,
    (N-2,N-1); pairs and positions in that order convert by arithmetic.
    """
    free = _capacity_check(graph, k)
    n = graph.num_nodes
    starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2  # position of (u, u+1)
    lo, hi = graph.link_ends
    linked = starts[lo] + hi - lo - 1  # ascending: link_ends lists links in this order
    chosen = np.sort(_seeded_generator(seed).choice(free, size=k, replace=False))
    # skip every linked pair at or below the answer
    ranks = chosen + np.searchsorted(linked - np.arange(linked.size), chosen, side="right")
    u = np.searchsorted(starts, ranks, side="right") - 1
    added = list(zip(u.tolist(), (ranks - starts[u] + u + 1).tolist()))
    return graph.with_links(added), AugmentationPlan("random", k, tuple(added), seed=seed)
