"""Ground truth: exact coefficients by frontier DP, and closed-form polynomials.

The node reliability polynomial of a graph on N nodes, with every node
operational independently with probability p, can be written two ways:

    S-form:  nRel(p) = sum_k S_k p^k (1-p)^(N-k)
    C-form:  nRel(p) = 1 - sum_j C_j p^(N-j) (1-p)^j

where S_k counts induced connected subgraphs on k nodes and C_j counts
vertex cut sets of size j (removals that disconnect, the empty residual
counting as disconnected). The two count vectors are tied together by
S_k + C_{N-k} = C(N,k). The link variant counts F_j, the j-link removals
that keep the graph connected.

Both count vectors come from a frontier dynamic program (DP), whose cost
grows with the number of distinct frontier states rather than with the 2^N
node subsets or 2^L link subsets; the states stay few on narrow graphs and
on dense ones. N (or L) above the cap, 24 by default, is refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .curve import _check_probability
from .errors import CapacityError
from .graph import FAMILIES, Graph

DEFAULT_ENUMERATION_CAP = 24


# ---------------------------------------------------------------------------
# numerically stable binomial mixtures


@lru_cache(maxsize=None)
def _log_binomials(n: int):
    lg = [math.lgamma(k + 1) for k in range(n + 1)]
    top = lg[n]
    arr = np.array([top - lg[k] - lg[n - k] for k in range(n + 1)])
    arr.setflags(write=False)
    return arr

def bernstein_mixture(fractions, p: float) -> float:
    """sum_k f_k C(n,k) p^k (1-p)^(n-k) with n = len(fractions) - 1.

    Weights are formed in log space so the mixture stays finite for any n,
    which matters once n reaches the hundreds.
    """
    fr = np.asarray(fractions, dtype=float)
    n = fr.size - 1
    if p <= 0.0:
        return float(fr[0])
    if p >= 1.0:
        return float(fr[n])
    _check_probability(p)  # only NaN is left to reject here
    k = np.arange(n + 1)
    logw = _log_binomials(n) + k * math.log(p) + (n - k) * math.log1p(-p)
    return float(np.dot(np.exp(logw), fr))


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _fractions(counts) -> tuple:
    """counts[j] / C(n, j) for j = 0..n, with n = len(counts) - 1."""
    n = len(counts) - 1
    return tuple(c / math.comb(n, j) for j, c in enumerate(counts))


# ---------------------------------------------------------------------------
# coefficient container


@dataclass(frozen=True)
class ReliabilityCoefficients:
    """Exact integer coefficient vectors plus their normalized fractions.

    kind "node": connected_counts = S_0..S_N and cut_counts = C_0..C_N.
    kind "link": kept_counts = F_0..F_L (num_links = L).
    """

    kind: str
    num_nodes: int
    connected_counts: tuple = None
    cut_counts: tuple = None
    kept_counts: tuple = None
    num_links: int = None

    @staticmethod
    def node(num_nodes: int, connected_counts) -> "ReliabilityCoefficients":
        s = tuple(int(x) for x in connected_counts)
        if len(s) != num_nodes + 1:
            raise ValueError("need S_0..S_N")
        c = tuple(math.comb(num_nodes, j) - s[num_nodes - j] for j in range(num_nodes + 1))
        if any(x < 0 for x in c):
            raise ValueError("inconsistent connected-subgraph counts")
        return ReliabilityCoefficients("node", num_nodes, s, c)

    @staticmethod
    def link(num_nodes: int, num_links: int, kept_counts) -> "ReliabilityCoefficients":
        f = tuple(int(x) for x in kept_counts)
        if len(f) != num_links + 1:
            raise ValueError("need F_0..F_L")
        return ReliabilityCoefficients("link", num_nodes, kept_counts=f, num_links=num_links)

    @property
    def connected_fractions(self) -> tuple:
        """s_k = S_k / C(N,k), the chance a uniform k-subset induces a connected graph."""
        return _fractions(self.connected_counts)

    @property
    def cut_fractions(self) -> tuple:
        """c_j = C_j / C(N,j), the chance a uniform j-removal disconnects."""
        return _fractions(self.cut_counts)

    def to_json(self) -> str:
        payload = {"N": self.num_nodes, "kind": self.kind}
        if self.kind == "node":
            payload["S"] = [str(x) for x in self.connected_counts]
            payload["C"] = [str(x) for x in self.cut_counts]
        else:
            payload["L"] = self.num_links
            payload["F"] = [str(x) for x in self.kept_counts]
        return json.dumps(payload, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "ReliabilityCoefficients":
        payload = json.loads(text)
        if payload["kind"] == "node":
            return ReliabilityCoefficients.node(payload["N"], [int(x) for x in payload["S"]])
        return ReliabilityCoefficients.link(
            payload["N"], payload["L"], [int(x) for x in payload["F"]]
        )


# ---------------------------------------------------------------------------
# frontier dynamic programming
#
# Vertices are taken one at a time (Hardy, Lucet & Limnios, IEEE Trans. Rel.
# 56(3), 2007). A state is the sorted tuple of one bitmask per component that
# can still grow: its unprocessed neighbours in the node DP, its vertices with
# unprocessed links in the link DP. When a mask empties, its component leaves:
# alone, it closes the set, which is counted once (every later element must
# then fail); beside another component, the state dies. A state's value is
# its count polynomial packed into one int, one digit of `width` bits per
# power; a digit counts at most C(n, k) < 2^width sets, so none overflows.


def _frontier_order(graph: Graph) -> list:
    """The vertices in greedy minimum-frontier order.

    Each step takes the vertex that leaves the fewest processed vertices with
    unprocessed neighbours; ties go to the most processed neighbours, then to
    the lowest id. O(N^2) mask operations.
    """
    nbr = [sum(1 << u for u in nb) for nb in graph.adjacency]
    left = [m.bit_count() for m in nbr]  # unprocessed neighbours of each vertex
    done = frontier = one_left = 0  # one_left: frontier vertices with one unprocessed neighbour
    todo = set(range(graph.num_nodes))
    order = []
    while todo:
        v = min(todo, key=lambda v: (
            (frontier & ~(one_left & nbr[v])).bit_count() + (left[v] > 0),
            -(nbr[v] & done).bit_count(),
            v,
        ))
        todo.remove(v)
        order.append(v)
        done |= 1 << v
        for u in graph.adjacency[v]:
            left[u] -= 1
        frontier = one_left = 0
        for u in order:
            if left[u]:
                frontier |= 1 << u
                if left[u] == 1:
                    one_left |= 1 << u
    return order


def _settle(comps, value: int, states: dict) -> int:
    """Add state `comps` with `value` to `states` unless a component leaves;
    return the value the state closes with (0 unless its one component left)."""
    if all(comps):
        key = tuple(sorted(comps))
        states[key] = states.get(key, 0) + value
        return 0
    return value if len(comps) == 1 else 0


def _digits(packed: int, width: int, count: int) -> list:
    mask = (1 << width) - 1
    return [packed >> (k * width) & mask for k in range(count)]


def _node_counts(graph: Graph, order) -> list:
    """S_0..S_N by the node frontier DP over `order`, a permutation of the vertices;
    the value's digit k counts the sets with k present vertices."""
    n = graph.num_nodes
    width = n + 1
    nbr = [sum(1 << u for u in nb) for nb in graph.adjacency]
    states = {(): 1}
    closed = done = 0
    for v in order:
        vb = 1 << v
        done |= vb
        own = nbr[v] & ~done
        grown = {}
        for state, value in states.items():
            hit = 0
            rest = []
            for m in state:
                if m & vb:
                    hit |= m
                else:
                    rest.append(m)
            # v fails: it leaves every mask; v works: it joins the components it touches
            closed += _settle([m & ~vb for m in state] if hit else state, value, grown)
            rest.append((hit | own) & ~vb)
            closed += _settle(rest, value << width, grown)
        states = grown
    return _digits(closed, width, n + 1)


def _link_counts(graph: Graph, order) -> list:
    """F_0..F_L by the link frontier DP, links taken in `order` of their later
    endpoint; the value's digit k counts the connected sets of k kept links."""
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
    for i, (u, v) in enumerate(links):
        ub, vb = 1 << u, 1 << v
        new = [b for b in (ub, vb) if not seen & b]
        seen |= ub | vb
        gone = (ub if final[u] == i else 0) | (vb if final[v] == i else 0)
        grown = {}
        for state, value in states.items():
            comps = list(state) + new
            # the link fails: nothing joins
            closed += _settle([m & ~gone for m in comps], value, grown)
            # the link works: u's and v's components join
            a = next(m for m in comps if m & ub)
            if not a & vb:
                b = next(m for m in comps if m & vb)
                comps.remove(a)
                comps.remove(b)
                comps.append(a | b)
            closed += _settle([m & ~gone for m in comps], value << width, grown)
        states = grown
    return _digits(closed, width, l + 1)[::-1]


def enumerate_node_coefficients(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> ReliabilityCoefficients:
    """Exact S_0..S_N by the node frontier DP; C filled from the complement
    identity S_k + C_{N-k} = C(N,k).

    The cost grows with the number of frontier states, not with 2^N: about
    15 ms for N = 24 at link probability 0.5, 70 ms for a 3 x 100 lattice
    (with a raised cap). The state count grows fast with the frontier width:
    a 10 x 30 lattice takes 40 s. N above `cap` raises CapacityError.
    """
    n = graph.num_nodes
    if n > cap:
        raise CapacityError(f"exact node counts: N={n} exceeds the cap of {cap}")
    return ReliabilityCoefficients.node(n, _node_counts(graph, _frontier_order(graph)))


def enumerate_link_coefficients(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> ReliabilityCoefficients:
    """Exact F_0..F_L, the number of j-link removals that keep every node of
    the graph in one component, by the link frontier DP.

    The cost grows with the number of partitions of the frontier, not with
    2^L: milliseconds at L = 24. L above `cap` raises CapacityError.
    """
    n = graph.num_nodes
    l = graph.num_links
    if l > cap:
        raise CapacityError(f"exact link counts: L={l} exceeds the cap of {cap}")
    return ReliabilityCoefficients.link(n, l, _link_counts(graph, _frontier_order(graph)))


# ---------------------------------------------------------------------------
# polynomial evaluation


def _reliability(coeffs: ReliabilityCoefficients, kind: str, p, exact: bool = False):
    """sum_k W_k p^k (1-p)^(n-k) over the counts W_k of connected configurations
    with k working elements: S_k for nodes (n = N), F_(L-k) for links (n = L).

    Floats go through the binomial-fraction form, clamped to [0, 1]; `exact`
    sums in rational arithmetic (p may be a Fraction).
    """
    if coeffs.kind != kind:
        raise ValueError(f"{kind}-kind coefficients required")
    working = coeffs.connected_counts if kind == "node" else coeffs.kept_counts[::-1]
    if not exact:
        return _clamp01(bernstein_mixture(_fractions(working), p))
    p = Fraction(p)
    q = 1 - p
    n = len(working) - 1
    return sum(w * p**k * q ** (n - k) for k, w in enumerate(working) if w)


def node_reliability_s_form(coeffs: ReliabilityCoefficients, p: float) -> float:
    """sum_k S_k p^k (1-p)^(N-k), evaluated through the binomial-fraction form."""
    return _reliability(coeffs, "node", p)


def node_reliability_c_form(coeffs: ReliabilityCoefficients, p: float) -> float:
    """1 - sum_j C_j p^(N-j) (1-p)^j; must agree with the S-form."""
    if coeffs.kind != "node":
        raise ValueError("node-kind coefficients required")
    rev = coeffs.cut_fractions[::-1]
    return _clamp01(1.0 - bernstein_mixture(rev, p))


def link_reliability(coeffs: ReliabilityCoefficients, p: float) -> float:
    """sum_j F_j (1-p)^j p^(L-j) for the link variant."""
    return _reliability(coeffs, "link", p)


# ---------------------------------------------------------------------------
# closed forms for the six named families


def _check_family(family: str, n: int):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(FAMILIES)}")
    min_n = FAMILIES[family][1]
    if n < min_n:
        raise ValueError(f"family {family!r} needs n >= {min_n}")


def closed_form_eval(family: str, n: int, p: float) -> float:
    """Closed-form node reliability for the named family.

    Cycle and path use their pole-free summation forms rather than the
    rational quotients, which blow up in floating point near p = 1/2.
    """
    _check_family(family, n)
    _check_probability(p)
    q = 1.0 - p
    if family == "complete":
        return 1.0 - q**n
    if family == "complete-pendant":
        return (1.0 - p) * (1.0 - q ** (n - 1)) + p * p + p * q ** (n - 1)
    if family == "cycle":
        return p**n + n * sum(p ** (n - k) * q**k for k in range(1, n))
    if family == "path":
        # one connected k-subset per placement: N-k+1 intervals of length k
        return sum((n - k + 1) * p**k * q ** (n - k) for k in range(1, n + 1))
    if family == "star":
        return p + (n - 1) * p * q ** (n - 1)
    # star-plus-pendant, pendant hanging off a leaf
    return (
        q * (p + (n - 2) * p * q ** (n - 2))
        + p**3
        + p * p * q ** (n - 2)
        + p * q ** (n - 1)
    )


def family_node_coefficients(family: str, n: int) -> ReliabilityCoefficients:
    """Exact big-integer S vectors for the named families, any size.

    These need no frontier DP and no cap, which is what makes large-N
    fraction lookups (for the concentration estimate) possible.
    """
    _check_family(family, n)
    s = [0] * (n + 1)
    if family == "complete":
        for k in range(1, n + 1):
            s[k] = math.comb(n, k)
    elif family == "complete-pendant":
        s[1] = n
        for k in range(2, n + 1):
            s[k] = math.comb(n - 1, k) + math.comb(n - 2, k - 2)
    elif family == "cycle":
        for k in range(1, n):
            s[k] = n
        s[n] = 1
    elif family == "path":
        for k in range(1, n + 1):
            s[k] = n - k + 1
    elif family == "star":
        s[1] = n
        for k in range(2, n + 1):
            s[k] = math.comb(n - 1, k - 1)
    else:  # star-plus-pendant
        s[1] = n
        s[2] = n - 1
        for k in range(3, n + 1):
            s[k] = math.comb(n - 2, k - 1) + math.comb(n - 3, k - 3)
    return ReliabilityCoefficients.node(n, s)
