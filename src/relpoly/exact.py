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

Both count vectors come from one frontier dynamic program (DP) over the
vertices, whose cost grows with the number of distinct frontier states
rather than with the 2^N node subsets or 2^L link subsets; the states stay
few on narrow graphs and on dense ones. Link counts are the node counts of
the subdivided graph, where every link becomes a node that may fail between
two ends that may not. N (or L) above the cap, 24 by default, is refused.

Float values come from the binomial mixture of the count fractions, formed
in log space. A whole grid of p is evaluated at once: its interior points
go through in blocks of rows of about 2^14 cells, one exp per block and one
dot per row, so a small n pays numpy's per-call cost once a block rather
than once a point. Each cell is made by the same float operations a single
p makes, and each row's dot reads one contiguous row, so every value is
the one-point mixture to the bit. Exact values at a rational p = a/b are
one integer sum over b^n, taken by Horner's rule.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .curve import _check_probability
from .errors import CapacityError
from .graph import FAMILIES, Graph

DEFAULT_ENUMERATION_CAP = 24
_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# numerically stable binomial mixtures


@lru_cache(maxsize=None)
def _mixture_terms(n: int):
    """log C(n,k), k and n - k for k = 0..n, as read-only float arrays.

    The exponents are floats, exact below 2^53, so a product with a float
    needs no cast on each call.
    """
    lg = [math.lgamma(j + 1) for j in range(n + 1)]
    top = lg[n]
    k = np.arange(n + 1.0)
    terms = (np.array([top - lg[j] - lg[n - j] for j in range(n + 1)]), k, n - k)
    for arr in terms:
        arr.setflags(write=False)
    return terms


# Interior rows of log weights are formed a block of about this many cells
# at a time: one exp per block amortizes numpy's per-call cost over the rows
# of a small n, and a bounded block keeps a large n's temporaries small.
_BLOCK_CELLS = 1 << 14


def _mixture(fractions, grid) -> list:
    """sum_k f_k C(n,k) p^k (1-p)^(n-k) for each p of the grid, n = len(fractions) - 1.

    Weights are formed in log space so the mixture stays finite for any n,
    which matters once n reaches the hundreds. Every p is checked before any
    value is computed; p = 0 and p = 1 read f_0 and f_n. The interior rows,
    log C(n,k) + k log p + (n-k) log1p(-p) from the scalar logs of their p,
    go through a block of about _BLOCK_CELLS cells at a time, one exp per
    block and one dot per row, to the same bits as one p at a time (see the
    module docstring).
    """
    ps = []
    for p in grid:
        _check_probability(p)
        ps.append(float(p))
    fr = np.asarray(fractions, dtype=float)
    n = fr.size - 1
    values = [float(fr[0]) if p == 0.0 else float(fr[n]) if p == 1.0 else None for p in ps]
    inner = [i for i, p in enumerate(ps) if 0.0 < p < 1.0]
    if not inner:
        return values
    log_binomials, k, rest = _mixture_terms(n)
    rows = min(len(inner), max(1, _BLOCK_CELLS // (n + 1)))
    logw = np.empty((rows, n + 1))
    part = np.empty((rows, n + 1))
    for start in range(0, len(inner), rows):
        block = inner[start:start + rows]
        w, q = logw[: len(block)], part[: len(block)]
        logs = np.array([(math.log(ps[i]), math.log1p(-ps[i])) for i in block])
        np.multiply(logs[:, :1], k, out=w)
        w += log_binomials
        np.multiply(logs[:, 1:], rest, out=q)
        w += q
        np.exp(w, out=w)
        for i, row in zip(block, w):
            values[i] = float(np.dot(row, fr))
    return values


def bernstein_mixture(fractions, p: float) -> float:
    """sum_k f_k C(n,k) p^k (1-p)^(n-k) with n = len(fractions) - 1, unclamped.

    The one-point case of the grid mixture: a block of one row. A point of
    a longer grid gets the same value, as its row is formed by the same
    float operations and summed by the same dot.
    """
    return _mixture(fractions, (p,))[0]


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _curve_values(fractions, grid) -> tuple:
    """The mixture on the grid clamped to [0, 1], each clamp logged at debug
    level, in grid order."""
    values = _mixture(fractions, grid)
    for i, (p, raw) in enumerate(zip(grid, values)):
        if not 0.0 <= raw <= 1.0:
            _log.debug("clamped curve value at p=%.17g; raw %.17g", p, raw)
            values[i] = _clamp01(raw)
    return tuple(values)


def _fractions(counts) -> tuple:
    """counts[j] / C(n, j) for j = 0..n, with n = len(counts) - 1."""
    n = len(counts) - 1
    return tuple(c / math.comb(n, j) for j, c in enumerate(counts))


def _read_only(values):
    arr = np.array(values)
    arr.setflags(write=False)
    return arr


def _complements(counts, what: str) -> tuple:
    """C(n,j) - counts[j] for j = 0..n, with n = len(counts) - 1."""
    out = tuple(math.comb(len(counts) - 1, j) - x for j, x in enumerate(counts))
    if min(out) < 0:
        raise ValueError(f"inconsistent {what} counts")
    return out


# ---------------------------------------------------------------------------
# coefficient container


@dataclass(frozen=True)
class ReliabilityCoefficients:
    """Exact integer coefficient vectors plus their normalized fractions.

    kind "node": connected_counts = S_0..S_N and cut_counts = C_0..C_N.
    kind "link": kept_counts = F_0..F_L (num_links = L) and cut_counts = C(L,j) - F_j.
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
        return ReliabilityCoefficients("node", num_nodes, s, _complements(s[::-1], "connected-subgraph"))

    @staticmethod
    def link(num_nodes: int, num_links: int, kept_counts) -> "ReliabilityCoefficients":
        f = tuple(int(x) for x in kept_counts)
        if len(f) != num_links + 1:
            raise ValueError("need F_0..F_L")
        return ReliabilityCoefficients("link", num_nodes, None, _complements(f, "kept-link"), f, num_links)

    @property
    def connected_fractions(self) -> tuple:
        """s_k = S_k / C(N,k), the chance a uniform k-subset induces a connected graph."""
        return _fractions(self.connected_counts)

    @property
    def cut_fractions(self) -> tuple:
        """c_j = C_j / C(n,j), the chance a uniform j-removal disconnects (n = N or L)."""
        return _fractions(self.cut_counts)

    @cached_property
    def _working_fractions(self):
        """W_k / C(n,k) as a read-only float array, built on first use: the
        working counts W_k are S_k for nodes and F_(L-k) for links. Caching
        an array leaves the object frozen, equal and picklable."""
        working = self.connected_counts if self.kind == "node" else self.kept_counts[::-1]
        return _read_only(_fractions(working))

    @cached_property
    def _reversed_cut_fractions(self):
        """c_(n-j) for j = 0..n, the C-form's mixture fractions, as a
        read-only float array built on first use."""
        return _read_only(_fractions(self.cut_counts)[::-1])

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
# can still grow: its unprocessed neighbours. When a mask empties, its
# component leaves: alone, it closes the set, which is counted once (every
# later vertex must then fail); beside another component, the state dies. A
# state's value is its count polynomial packed into one int, one digit of
# `width` bits per power; a digit counts at most C(n, k) < 2^width sets, so
# none overflows. Link counts run the same DP on the subdivided graph.


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


def _settle(comps, value: int, states: dict, may_close: bool) -> int:
    """Add state `comps` with `value` to `states` unless a component leaves;
    return the value the state closes with (0 unless its one component left
    and it `may_close`)."""
    if all(comps):
        key = tuple(sorted(comps))
        states[key] = states.get(key, 0) + value
        return 0
    return value if may_close and len(comps) == 1 else 0


def _digits(packed: int, width: int, count: int) -> list:
    mask = (1 << width) - 1
    return [packed >> (k * width) & mask for k in range(count)]


def _node_counts(graph: Graph, order, forced: int = 0) -> list:
    """S_0..S_N by the node frontier DP over `order`, a permutation of the vertices;
    the value's digit k counts the sets with k present vertices.

    `forced` is a bit mask of vertices that never fail: they are in every set
    and not counted in its digit, so there is one digit per number of the
    other vertices present, and no set closes before the last of them.
    """
    n = graph.num_nodes
    width = n - forced.bit_count() + 1
    nbr = [sum(1 << u for u in nb) for nb in graph.adjacency]
    states = {(): 1}
    closed = done = 0
    for v in order:
        vb = 1 << v
        done |= vb
        own = nbr[v] & ~done
        free = not forced & vb
        shift = width if free else 0
        may_close = not forced & ~done  # no forced vertex is left
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
            if free:
                closed += _settle([m & ~vb for m in state] if hit else state, value, grown, may_close)
            rest.append((hit | own) & ~vb)
            closed += _settle(rest, value << shift, grown, may_close)
        states = grown
    return _digits(closed, width, width)


def _link_counts(graph: Graph, order) -> list:
    """F_0..F_L by the node frontier DP on the subdivided graph: link i becomes
    node N + i, which may fail, joined to its two ends, which may not. Each link
    node comes right after its later end in `order`, ties going to the earlier
    end; the value's digit k counts the connected sets of k kept links."""
    n = graph.num_nodes
    links = graph.edges()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # sort keys: a vertex at its position, a link node after its later end
    keys = [(i, -1) for i in pos] + [(max(pos[u], pos[v]), min(pos[u], pos[v])) for u, v in links]
    sub = Graph(n + len(links), [(w, n + i) for i, ends in enumerate(links) for w in ends])
    return _node_counts(sub, sorted(range(n + len(links)), key=keys.__getitem__), (1 << n) - 1)[::-1]


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
    the graph in one component, by the node frontier DP on the subdivided graph.

    The cost grows with the number of frontier states, not with 2^L:
    milliseconds at L = 24. L above `cap` raises CapacityError.
    """
    n = graph.num_nodes
    l = graph.num_links
    if l > cap:
        raise CapacityError(f"exact link counts: L={l} exceeds the cap of {cap}")
    return ReliabilityCoefficients.link(n, l, _link_counts(graph, _frontier_order(graph)))


# ---------------------------------------------------------------------------
# polynomial evaluation


def _reliability_values(coeffs: ReliabilityCoefficients, kind: str, grid) -> tuple:
    """sum_k W_k p^k (1-p)^(n-k) at each p of the grid, over the counts W_k of
    connected configurations with k working elements: S_k for nodes (n = N),
    F_(L-k) for links (n = L). Evaluated through the binomial-fraction form,
    clamped to [0, 1].
    """
    if coeffs.kind != kind:
        raise ValueError(f"{kind}-kind coefficients required")
    return _curve_values(coeffs._working_fractions, grid)


def _reliability(coeffs: ReliabilityCoefficients, kind: str, p, exact: bool = False):
    """The reliability at one p; `exact` gives the rational value instead
    (p may be a Fraction). For p = a/b in lowest terms that value is
    Fraction(sum_k W_k a^k (b-a)^(n-k), b^n), whose integer sum is taken
    by Horner's rule in a, one power of b - a per step.
    """
    if not exact:
        return _reliability_values(coeffs, kind, (p,))[0]
    if coeffs.kind != kind:
        raise ValueError(f"{kind}-kind coefficients required")
    working = coeffs.connected_counts if kind == "node" else coeffs.kept_counts[::-1]
    _check_probability(p)
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    total, power = 0, 1  # power = (b-a)^(n-k) for the k of the step
    for w in reversed(working):
        total = total * a + w * power
        power *= b - a
    return Fraction(total, b ** (len(working) - 1))


def node_reliability_s_form(coeffs: ReliabilityCoefficients, p: float) -> float:
    """sum_k S_k p^k (1-p)^(N-k), evaluated through the binomial-fraction form."""
    return _reliability(coeffs, "node", p)


def node_reliability_c_form(coeffs: ReliabilityCoefficients, p: float) -> float:
    """1 - sum_j C_j p^(N-j) (1-p)^j; must agree with the S-form."""
    if coeffs.kind != "node":
        raise ValueError("node-kind coefficients required")
    return 1.0 - _curve_values(coeffs._reversed_cut_fractions, (p,))[0]


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
