"""Independent brute-force oracles used to freeze and cross-check test values.

Everything here is written deliberately differently from the library:
set-based DFS instead of bitmask BFS or union-find, direct float
polynomial sums instead of log-space mixtures. Slow and obvious on purpose.
The two union-find sweeps are the exception: they are the library's former
Monte Carlo kernels, kept as the reference its shortcut sweeps must equal.
"""

import math
from fractions import Fraction
from itertools import combinations

from relpoly import Graph


def naive_connected(graph, subset) -> bool:
    """DFS over an explicit node subset; empty -> False, singleton -> True."""
    nodes = set(subset)
    if not nodes:
        return False
    stack = [next(iter(nodes))]
    seen = set(stack)
    while stack:
        v = stack.pop()
        for u in graph.neighbors(v):
            if u in nodes and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == nodes


def brute_connected_counts(graph):
    """S_k via itertools over all node subsets."""
    n = graph.num_nodes
    s = [0] * (n + 1)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if naive_connected(graph, combo):
                s[k] += 1
    return s


def brute_cut_counts(graph):
    """C_j by directly checking each removal set's residual."""
    n = graph.num_nodes
    everything = set(range(n))
    c = [0] * (n + 1)
    for j in range(n + 1):
        for removed in combinations(range(n), j):
            if not naive_connected(graph, everything - set(removed)):
                c[j] += 1
    return c


def brute_link_kept_counts(graph):
    """F_j by removing each j-subset of links and checking all-node connectivity."""
    edges = graph.edges()
    l = len(edges)
    n = graph.num_nodes
    f = [0] * (l + 1)
    for j in range(l + 1):
        for removed in combinations(range(l), j):
            kept = [edges[i] for i in range(l) if i not in removed]
            if naive_connected(Graph(n, kept), range(n)):
                f[j] += 1
    return f


def forward_deletion_profile(graph, removal_order):
    """Disconnection flags per removal count, recomputed from scratch each step."""
    n = graph.num_nodes
    flags = []
    for j in range(n + 1):
        residual = set(range(n)) - set(removal_order[:j])
        flags.append(not naive_connected(graph, residual))
    return flags


def direct_node_polynomial(s_counts, p):
    """Plain-float S-form sum, no log-space tricks."""
    n = len(s_counts) - 1
    return sum(s * p**k * (1 - p) ** (n - k) for k, s in enumerate(s_counts))


def direct_c_form_polynomial(c_counts, p):
    n = len(c_counts) - 1
    return 1.0 - sum(c * p ** (n - j) * (1 - p) ** j for j, c in enumerate(c_counts))


def direct_link_polynomial(f_counts, p):
    l = len(f_counts) - 1
    return sum(f * (1 - p) ** j * p ** (l - j) for j, f in enumerate(f_counts))


def gauss_jordan_solve(rows, rhs):
    """x with rows x = rhs, by Gauss-Jordan elimination in Fraction arithmetic.

    O(n^3) and exact; raises ValueError("singular probe system") when a
    column has no nonzero pivot.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise ValueError("singular probe system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def node_disconnection_into(adj, n: int, perm, out):
    """Add 1 to out[j] for every j in 0..N whose residual is disconnected.

    perm is the removal order; insertion proceeds from its tail. The residual
    after j removals is connected iff exactly one component remains among the
    N - j inserted nodes; the empty residual (j = N) is disconnected.

    Plain reverse-insertion union-find (Newman & Ziff, PRL 85, 4104, 2000):
    every inserted neighbour costs two finds, whatever the component count.
    """
    out[n] += 1
    pos = [0] * n
    for t in range(n):
        pos[perm[t]] = t
    parent = list(range(n))
    size = [1] * n
    ncomp = 0
    for t in range(n - 1, -1, -1):
        v = perm[t]
        ncomp += 1
        for u in adj[v]:
            if pos[u] > t:
                x = v
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
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


def link_disconnection_into(edges, n: int, l: int, perm, out):
    """Link analogue: all nodes present, links inserted in reverse removal order.

    Inserts every link and tests the component count at every step.
    """
    if n != 1:
        out[l] += 1
    parent = list(range(n))
    size = [1] * n
    ncomp = n
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
        if ncomp != 1:
            out[t] += 1


def union_find_component_count(graph):
    """Independent whole-graph connectivity via union-find over the edge list."""
    n = graph.num_nodes
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    comps = n
    for u, v in graph.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps


def binom_sd(fraction, runs):
    return math.sqrt(max(fraction * (1 - fraction), 0.0) / runs)
