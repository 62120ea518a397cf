"""Independent brute-force oracles used to freeze and cross-check test values.

Everything here is written deliberately differently from the library:
set-based DFS instead of bitmask BFS or union-find, direct float
polynomial sums instead of log-space mixtures. Slow and obvious on purpose.
The two union-find sweeps are the exception: they are the library's former
Monte Carlo kernels, kept as the reference its shortcut sweeps must equal.
So are the two link-addition searches, the library's former pair scan and
its draw from a table of every unlinked pair, and the two random-graph
generators that built every candidate pair at once, and the two mask loops
that checked all 2^N node subsets and all 2^L link subsets before the
frontier dynamic program replaced them, and the one-point binomial mixture
that evaluated each curve point before a grid's points were evaluated a
block at a time, and the partition DP over links
that counted link sets before the node DP on the subdivided graph took
over, and the per-node sets that
built every graph's adjacency before one numpy sort of all links replaced
them, and the per-run SplitMix64 shuffle that drew each small Monte Carlo
removal order before they were drawn a block of runs at a time. The last
few helpers are read only by tests: the matrix of a cut-set probe system
(`probe_matrix`), quotient forms of the cycle and path polynomials, an
exact rational evaluation, a plan's degree changes and a one-call link
curve estimate.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import index

import numpy as np

from relpoly import Graph, ReliabilityCoefficients, estimate_link_cut_fractions, link_reliability_curve
from relpoly.graph import _seeded_generator
from relpoly.montecarlo import _SMALL_PERMUTATION, mix_seed


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


def neighbor_masks(graph):
    masks = []
    for nb in graph.adjacency:
        m = 0
        for u in nb:
            m |= 1 << u
        masks.append(m)
    return masks


def mask_connected(mask: int, nbr) -> bool:
    # BFS over set bits; empty mask counts as disconnected, single bit as connected
    if mask == 0:
        return False
    seen = mask & -mask
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= nbr[b.bit_length() - 1]
            m ^= b
        nxt &= mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def mask_node_coefficients(graph):
    """S_0..S_N by checking all 2^N induced subgraphs (the library's former
    `enumerate_node_coefficients`)."""
    n = graph.num_nodes
    nbr = neighbor_masks(graph)
    s = [0] * (n + 1)
    for mask in range(1, 1 << n):
        if mask_connected(mask, nbr):
            s[mask.bit_count()] += 1
    return ReliabilityCoefficients.node(n, s)


def mask_link_coefficients(graph):
    """F_0..F_L by checking all 2^L link subsets (the library's former
    `enumerate_link_coefficients`)."""
    n = graph.num_nodes
    l = graph.num_links
    edges = graph.edges()
    everyone = (1 << n) - 1
    f = [0] * (l + 1)
    for kept in range(1 << l):
        # neighbor masks of the graph keeping only the links in `kept`
        nbr = [0] * n
        m = kept
        while m:
            b = m & -m
            u, v = edges[b.bit_length() - 1]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            m ^= b
        if mask_connected(everyone, nbr):
            f[l - kept.bit_count()] += 1
    return ReliabilityCoefficients.link(n, l, f)


def partition_link_counts(graph, order):
    """F_0..F_L by a frontier DP over the links, taken in `order` of their later
    end (the library's former link DP, before link counts ran the node DP on
    the subdivided graph). A state is the sorted tuple of one vertex mask per
    component, holding its vertices that still have unprocessed links; its
    value packs the count polynomial in the number of kept links, one digit
    of L + 1 bits per power."""
    n, l = graph.num_nodes, graph.num_links
    if not graph.is_connected():
        return [0] * (l + 1)
    if l == 0:
        return [1]  # one node
    pos = {v: i for i, v in enumerate(order)}
    links = sorted(graph.edges(), key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))
    final = {}
    for i, (u, v) in enumerate(links):
        final[u] = final[v] = i
    width = l + 1
    states = {(): 1}
    closed = seen = 0

    def settle(comps, value, grown):
        # keep the state unless a component left; alone, it closes the set
        if all(comps):
            key = tuple(sorted(comps))
            grown[key] = grown.get(key, 0) + value
            return 0
        return value if len(comps) == 1 else 0

    for i, (u, v) in enumerate(links):
        ub, vb = 1 << u, 1 << v
        new = [b for b in (ub, vb) if not seen & b]
        seen |= ub | vb
        gone = (ub if final[u] == i else 0) | (vb if final[v] == i else 0)
        grown = {}
        for state, value in states.items():
            comps = list(state) + new
            # the link fails: nothing joins
            closed += settle([m & ~gone for m in comps], value, grown)
            # the link works: u's and v's components join
            a = next(m for m in comps if m & ub)
            if not a & vb:
                b = next(m for m in comps if m & vb)
                comps.remove(a)
                comps.remove(b)
                comps.append(a | b)
            closed += settle([m & ~gone for m in comps], value << width, grown)
        states = grown
    mask = (1 << width) - 1
    return [closed >> (k * width) & mask for k in range(l, -1, -1)]


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


def point_mixture(fractions, p):
    """The library's former one-point Bernstein mixture, kept as the reference
    its grid evaluation must equal bit for bit: one p's log weights
    log C(n,k) + k log p + (n-k) log1p(-p), one exp and one dot."""
    fr = np.asarray(fractions, dtype=float)
    n = fr.size - 1
    if p == 0.0:
        return float(fr[0])
    if p == 1.0:
        return float(fr[n])
    k = np.arange(n + 1.0)
    logw = _log_binomials(n) + k * math.log(p) + (n - k) * math.log1p(-p)
    return float(np.dot(np.exp(logw), fr))


@lru_cache(maxsize=None)
def _log_binomials(n):
    lg = [math.lgamma(j + 1) for j in range(n + 1)]
    return np.array([lg[n] - lg[j] - lg[n - j] for j in range(n + 1)])


def laplace_s_form(cut_fractions, p):
    """The Laplace estimate on the connected fractions s_k = 1 - c_(N-k),
    linearly interpolated at index N p and clamped to [0, 1]; the library
    reads the cut fractions at index N (1 - p), the same piecewise-linear
    function up to rounding."""
    n = len(cut_fractions) - 1
    s = [1.0 - c for c in reversed(cut_fractions)]
    x = n * p
    lo = math.floor(x)
    value = s[0] if x <= 0 else s[n] if lo >= n else (1.0 - (x - lo)) * s[lo] + (x - lo) * s[lo + 1]
    return min(max(value, 0.0), 1.0)


def probe_matrix(system):
    """Row i of a cut-set ProbeSystem: (1-p_i)^j p_i^(n-j) for j = 0..n,
    in the probes' own arithmetic."""
    n = system.dimension
    rows = []
    for p in system.probes:
        q = 1 - p
        rows.append([q**j * p ** (n - j) for j in range(n + 1)])
    return rows


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


def splitmix_shuffle(n: int, run_seed: int) -> list:
    """Fisher-Yates over 0..n-1: draw k, mix_seed(run_seed, k), scaled to 0..i.

    The scaling is multiply-shift: j = draw * (i + 1) >> 64 for i = n-1..1.
    """
    perm = list(range(n))
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = (mix_seed(run_seed, k) * (i + 1)) >> 64
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def run_order(n: int, seed: int, run: int) -> list:
    """The removal order of Monte Carlo run `run` under a root seed, by itself."""
    run_seed = mix_seed(seed, run)
    if n < _SMALL_PERMUTATION:
        return splitmix_shuffle(n, run_seed)
    return np.random.Generator(np.random.PCG64(run_seed)).permutation(n).tolist()


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


def greedy_addition(graph, k: int, descending: bool):
    """k links by the degree rule: scan pairs in (degree, id) order, the
    degree taken ascending or descending, and link the first unlinked one."""
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
        if pair is None:
            raise ValueError("no addable node pair remains")
        u, v = pair
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1
        added.append(pair)
    return added


def random_pairing(graph, k: int, seed: int):
    """k draws without replacement from an explicit table of the unlinked
    pairs, built from an N x N adjacency matrix; O(N^2) memory."""
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
    return sorted((int(iu[c]), int(ju[c])) for c in chosen)


def set_adjacency(num_nodes: int, edges):
    """Per-node sorted neighbour tuples from one Python set per node (the
    library's former `Graph` constructor body, checks left out)."""
    sets = [set() for _ in range(num_nodes)]
    for head, tail in edges:
        u, v = index(head), index(tail)
        sets[u].add(v)
        sets[v].add(u)
    return tuple(tuple(sorted(s)) for s in sets)


def set_graph(num_nodes: int, edges):
    """Graph whose CSR arrays come from set_adjacency, not the library's builder."""
    adj = set_adjacency(num_nodes, edges)
    bounds = np.cumsum([0, *map(len, adj)], dtype=np.int64)
    return Graph._of_csr(num_nodes, bounds, np.array([v for nbrs in adj for v in nbrs], dtype=np.int64))


def triu_er(num_nodes: int, link_probability: float, seed: int):
    """G(N, p_l) from one draw over every pair of np.triu_indices: O(N^2) memory."""
    rng = _seeded_generator(seed)
    iu, ju = np.triu_indices(num_nodes, k=1)
    mask = rng.random(iu.size) < link_probability
    return set_graph(num_nodes, zip(iu[mask].tolist(), ju[mask].tolist()))


def triu_rgg(num_nodes: int, radius: float, seed: int):
    """Random geometric graph from the distances of every np.triu_indices pair."""
    rng = _seeded_generator(seed)
    pts = rng.random((num_nodes, 2))
    iu, ju = np.triu_indices(num_nodes, k=1)
    d2 = np.sum((pts[iu] - pts[ju]) ** 2, axis=1)
    mask = d2 < radius * radius
    return set_graph(num_nodes, zip(iu[mask].tolist(), ju[mask].tolist()))


def cycle_rational_form(n: int, p: float) -> float:
    """Quotient form of the cycle polynomial; undefined at p = 1/2."""
    if p == 0.5:
        raise ValueError("rational cycle form has a removable pole at p = 1/2")
    q = 1.0 - p
    return n * p * (p**n - q**n) / (2 * p - 1) - (n - 1) * p**n


def path_rational_form(n: int, p: float) -> float:
    """Quotient form of the path polynomial; undefined at p = 1/2."""
    if p == 0.5:
        raise ValueError("rational path form has a removable pole at p = 1/2")
    q = 1.0 - p
    return (n * p * q ** (n + 1) - (n + 1) * p * p * q**n + p ** (n + 2)) / (1 - 2 * p) ** 2


def node_curve_value_exact(coeffs, p):
    """S-form value sum_k S_k p^k (1-p)^(N-k) in Fraction arithmetic."""
    p = Fraction(p)
    n = coeffs.num_nodes
    return sum(s * p**k * (1 - p) ** (n - k) for k, s in enumerate(coeffs.connected_counts))


def degree_changes(plan, num_nodes: int) -> tuple:
    """Links each node gains from an augmentation plan."""
    a = [0] * num_nodes
    for u, v in plan.added:
        a[u] += 1
        a[v] += 1
    return tuple(a)


def estimate_link_reliability_curve(graph, runs: int, seed: int, grid, workers=None):
    """Estimate link cut fractions, then evaluate their curve on `grid`."""
    return link_reliability_curve(estimate_link_cut_fractions(graph, runs, seed, workers), grid)
