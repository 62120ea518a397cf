"""Immutable simple undirected graphs, degree statistics, and random generators.

Node ids are always 0..N-1. All generators are pure functions of their
parameters and a 64-bit seed: the same call yields the same graph.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from .errors import EdgeListFormatError

_MASK64 = (1 << 64) - 1


def _seeded_generator(seed: int) -> np.random.Generator:
    """numpy generator seeded by the low 64 bits of `seed`."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


class Graph:
    """Simple undirected graph: no self-loops, no parallel links, immutable."""

    __slots__ = ("_n", "_adj", "_m", "_links", "_connected", "_degrees")

    def __init__(self, num_nodes: int, edges=()):
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        sets = [set() for _ in range(num_nodes)]
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"link ({u}, {v}) out of range for {num_nodes} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u} not allowed")
            sets[u].add(v)
            sets[v].add(u)
        self._n = num_nodes
        self._adj = tuple(tuple(sorted(s)) for s in sets)
        self._m = sum(len(s) for s in sets) // 2
        self._links = None
        self._connected = None
        self._degrees = None

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_links(self) -> int:
        return self._m

    @property
    def adjacency(self):
        """Per-node sorted tuples of neighbor ids."""
        return self._adj

    def neighbors(self, v: int):
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self):
        return tuple(len(nb) for nb in self._adj)

    @property
    def links(self):
        """edges() as a tuple, built once per graph; link id i is links[i]."""
        if self._links is None:
            self._links = tuple(self.edges())
        return self._links

    def edges(self):
        """Sorted list of (u, v) pairs with u < v, a new list on every call."""
        return [(u, v) for u in range(self._n) for v in self._adj[u] if u < v]

    def has_link(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def is_connected(self) -> bool:
        """Whole-graph connectivity (cached). Empty graph counts as disconnected."""
        if self._connected is None:
            self._connected = is_connected(self, range(self._n))
        return self._connected

    def degree_distribution(self) -> "DegreeDistribution":
        """Empirical degree distribution (cached); raises on a graph with no nodes."""
        if self._degrees is None:
            self._degrees = degree_distribution(self)
        return self._degrees

    def __repr__(self):
        return f"Graph(N={self._n}, L={self._m})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        return hash(self._adj)


class DegreeDistribution:
    """Empirical degree distribution Pr[D=j] = n_j / N of a graph."""

    __slots__ = ("_counts", "_n")

    def __init__(self, degree_counts: dict, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("degree distribution needs at least one node")
        if sum(degree_counts.values()) != num_nodes:
            raise ValueError("degree counts must sum to the node count")
        self._counts = dict(sorted(degree_counts.items()))
        self._n = num_nodes

    @property
    def probabilities(self) -> dict:
        return {j: c / self._n for j, c in self._counts.items()}

    @property
    def degree_counts(self) -> dict:
        """Raw n_j counts behind the probabilities."""
        return dict(self._counts)

    @property
    def num_nodes(self) -> int:
        return self._n

    def pgf(self, z: float) -> float:
        """E[z^D] = sum_j Pr[D=j] z^j, with 0^0 = 1."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"pgf argument must lie in [0, 1], got {z}")
        # sum n_j z^j first, divide once: keeps the value equal to
        # (1/N) sum_i z^(d_i) up to a single rounding step.
        return sum(c * z**j for j, c in self._counts.items()) / self._n


def degree_distribution(graph: Graph) -> DegreeDistribution:
    if graph.num_nodes == 0:
        raise ValueError("degree distribution of an empty graph is undefined")
    counts: dict[int, int] = {}
    for d in graph.degrees():
        counts[d] = counts.get(d, 0) + 1
    return DegreeDistribution(counts, graph.num_nodes)


def is_connected(graph: Graph, nodes) -> bool:
    """True iff the subgraph induced by `nodes` has exactly one component.

    Convention: the empty set is disconnected, a singleton is connected.
    """
    subset = set(nodes)
    if not subset:
        return False
    for v in subset:
        if not 0 <= v < graph.num_nodes:
            raise ValueError(f"node id {v} out of range")
    start = next(iter(subset))
    seen = {start}
    queue = deque([start])
    adj = graph.adjacency
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u in subset and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(subset)


# ---------------------------------------------------------------------------
# edge-list text format


def load_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a Graph.

    Blank lines and lines starting with '#' are skipped. Duplicate links
    (including reversed duplicates) collapse to one. Node count is
    max id + 1, so unreferenced intermediate ids become degree-0 nodes.
    """
    edges = set()
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected two tokens, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"line {lineno}: non-integer token in {stripped!r}") from None
        if u < 0 or v < 0:
            raise EdgeListFormatError(f"line {lineno}: negative node id")
        if u == v:
            raise EdgeListFormatError(f"line {lineno}: self-loop {u} {v} not allowed")
        if u > v:
            u, v = v, u
        edges.add((u, v))
        max_id = max(max_id, v)
    return Graph(max_id + 1, sorted(edges))


def save_edge_list(graph: Graph) -> str:
    """Normalized form: sorted "u v" lines with u < v, one link per line."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges())


# ---------------------------------------------------------------------------
# generators


def generate_er(num_nodes: int, link_probability: float, seed: int) -> Graph:
    """Erdos-Renyi G(N, p_l): every pair linked independently.

    Pairs are examined in the fixed order (0,1), (0,2), ..., (N-2,N-1), one
    uniform draw per pair, so a seed pins the graph exactly.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if not 0.0 <= link_probability <= 1.0:
        raise ValueError("link probability must lie in [0, 1]")
    rng = _seeded_generator(seed)
    iu, ju = np.triu_indices(num_nodes, k=1)
    mask = rng.random(iu.size) < link_probability
    return Graph(num_nodes, zip(iu[mask].tolist(), ju[mask].tolist()))


def generate_rgg(num_nodes: int, radius: float, seed: int) -> Graph:
    """Random geometric graph: N uniform points in the unit square, link iff
    their Euclidean distance is strictly below `radius`. No wraparound."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = _seeded_generator(seed)
    pts = rng.random((num_nodes, 2))
    iu, ju = np.triu_indices(num_nodes, k=1)
    d2 = np.sum((pts[iu] - pts[ju]) ** 2, axis=1)
    mask = d2 < radius * radius
    return Graph(num_nodes, zip(iu[mask].tolist(), ju[mask].tolist()))


def generate_ba(num_nodes: int, links_per_step: int, seed: int) -> Graph:
    """Preferential-attachment graph grown from a K_m clique.

    Each arriving node attaches `links_per_step` links to distinct existing
    nodes drawn proportionally to current degree (redrawing on collisions),
    so the final link count is C(m,2) + m(N-m). While all existing degrees
    are zero (the K_1 seed) targets are drawn uniformly.
    """
    m = links_per_step
    if m < 1:
        raise ValueError("links_per_step must be positive")
    if num_nodes <= m:
        raise ValueError("num_nodes must exceed links_per_step")
    rng = random.Random(seed & _MASK64)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # one entry per unit of degree; empty for the K_1 seed
    stubs = [v for e in edges for v in e]
    for new in range(m, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            if stubs:
                cand = stubs[rng.randrange(len(stubs))]
            else:
                cand = rng.randrange(new)
            targets.add(cand)
        for t in sorted(targets):
            edges.append((t, new))
            stubs.append(t)
            stubs.append(new)
    return Graph(num_nodes, edges)


def generate_lattice(dims) -> Graph:
    """Grid graph in 2 or 3 dimensions with nearest-neighbor links, no wrap."""
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (2, 3):
        raise ValueError("lattice takes 2 or 3 dimensions")
    if any(d < 1 for d in dims):
        raise ValueError("lattice dimensions must be positive")
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    n = acc

    def node_id(coord):
        return sum(c * s for c, s in zip(coord, strides))

    edges = []
    def walk(coord, axis):
        if axis == len(dims):
            for a in range(len(dims)):
                if coord[a] + 1 < dims[a]:
                    nxt = list(coord)
                    nxt[a] += 1
                    edges.append((node_id(coord), node_id(nxt)))
            return
        for c in range(dims[axis]):
            walk(coord + [c], axis + 1)

    walk([], 0)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# small named families (used by closed forms and tests)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_pendant_graph(n: int) -> Graph:
    """K_{n-1} plus one pendant node attached to clique node 0."""
    if n < 3:
        raise ValueError("complete-plus-pendant needs n >= 3")
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)]
    edges.append((0, n - 1))
    return Graph(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Center node 0 with n-1 leaves."""
    if n < 3:
        raise ValueError("star needs n >= 3")
    return Graph(n, [(0, i) for i in range(1, n)])


def star_pendant_graph(n: int) -> Graph:
    """Star on n-1 nodes plus a pendant attached to leaf 1 (not the center)."""
    if n < 3:
        raise ValueError("star-plus-pendant needs n >= 3")
    edges = [(0, i) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return Graph(n, edges)


# name -> (builder, smallest n the family's closed forms accept); the path
# builder takes any n >= 1, but the path closed forms reject n < 3
FAMILIES = {
    "complete": (complete_graph, 1),
    "complete-pendant": (complete_pendant_graph, 3),
    "cycle": (cycle_graph, 3),
    "path": (path_graph, 3),
    "star": (star_graph, 3),
    "star-pendant": (star_pendant_graph, 3),
}
