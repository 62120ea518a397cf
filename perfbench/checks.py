"""Output checks of the benchmark.

Each check is a pure function of the outputs it judges and returns True when
they are correct. `Checks` counts the checks attempted and failed, which give
the run's `error_rate`, and reports every failure on stderr.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {label}", file=sys.stderr, flush=True)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def mc_within_exact(mc_values, exact_values, runs: int) -> bool:
    """Every grid point lies within 4 standard errors of the exact curve.

    A curve value is a mean over `runs` independent quantities in [0, 1], so
    its standard error is at most 0.5 / sqrt(runs).
    """
    tol = 4 * 0.5 / math.sqrt(runs)
    return len(mc_values) == len(exact_values) and all(
        abs(a - b) <= tol for a, b in zip(mc_values, exact_values)
    )


def counts_boundary(counts, runs: int, connected: bool) -> bool:
    """No removal disconnects a connected graph; removing everything always does."""
    return counts[-1] == runs and (counts[0] == 0) == connected


def profile_matches_networkx(graph, order, flags, js) -> bool:
    """node_removal_profile flags agree with networkx on the residuals after j removals."""
    import networkx as nx

    full = nx.Graph()
    full.add_nodes_from(range(graph.num_nodes))
    full.add_edges_from(graph.edges())
    for j in js:
        residual = order[j:]
        # the empty residual counts as disconnected, a singleton as connected
        connected = bool(residual) and nx.is_connected(full.subgraph(residual))
        if flags[j] != (not connected):
            return False
    return True


def node_coefficient_identities(coeffs, graph) -> bool:
    """S_1 = N, S_2 = L, S_N = 1 for a connected graph, and S_k + C_(N-k) = C(N,k)."""
    n = graph.num_nodes
    s, c = coeffs.connected_counts, coeffs.cut_counts
    return (
        s[1] == n
        and s[2] == graph.num_links
        and s[n] == (1 if graph.is_connected() else 0)
        and all(s[k] + c[n - k] == math.comb(n, k) for k in range(n + 1))
    )


def spanning_tree_count(graph) -> int:
    """Kirchhoff: any cofactor of the Laplacian, by exact elimination."""
    n = graph.num_nodes
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in graph.edges():
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n - 1):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def link_spanning_trees(coeffs, graph) -> bool:
    """F_(L-N+1), the removals that leave exactly a spanning tree, equals Kirchhoff's count."""
    j = graph.num_links - graph.num_nodes + 1
    return coeffs.kept_counts[j] == spanning_tree_count(graph)


def recovered_counts(recovery, expected) -> bool:
    return list(recovery.counts) == list(expected) and not recovery.flags


def link_cut_counts(coeffs):
    """C_j = C(L,j) - F_j: the j-link removals that disconnect."""
    l = coeffs.num_links
    return [math.comb(l, j) - f for j, f in enumerate(coeffs.kept_counts)]


def arithmetic_above_geometric(arith_values, geom_values) -> bool:
    # AM-GM; the slack absorbs the last-digit rounding of two log-space sums
    return all(a >= g - 1e-12 for a, g in zip(arith_values, geom_values))


def power_identity(grid, node_values, link_values) -> bool:
    """node(p) = link(p)^p for the stochastic curves, to 1e-12."""
    return all(abs(nv - lv**p) <= 1e-12 for p, nv, lv in zip(grid, node_values, link_values))


def kgrip_order(greedy: float, random: float, highest: float) -> bool:
    return greedy >= random >= highest


def same_output(reference: bytes, current: bytes, rows: int) -> bool:
    """Byte-identical to the first call, with the expected number of lines."""
    return current == reference and current.count(b"\n") == rows
