"""Ground truth: exhaustive coefficient enumeration and closed-form polynomials.

The node reliability polynomial of a graph on N nodes, with every node
operational independently with probability p, can be written two ways:

    S-form:  nRel(p) = sum_k S_k p^k (1-p)^(N-k)
    C-form:  nRel(p) = 1 - sum_j C_j p^(N-j) (1-p)^j

where S_k counts induced connected subgraphs on k nodes and C_j counts
vertex cut sets of size j (removals that disconnect, the empty residual
counting as disconnected). The two count vectors are tied together by
S_k + C_{N-k} = C(N,k). The link variant counts F_j, the j-link removals
that keep the graph connected.
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

    @property
    def kept_fractions(self) -> tuple:
        return _fractions(self.kept_counts)

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
# exhaustive enumeration


def _neighbor_masks(graph: Graph):
    masks = []
    for nb in graph.adjacency:
        m = 0
        for u in nb:
            m |= 1 << u
        masks.append(m)
    return masks


def _mask_connected(mask: int, nbr) -> bool:
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


def enumerate_node_coefficients(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> ReliabilityCoefficients:
    """Exact S_0..S_N by checking all 2^N induced subgraphs; C filled from the
    complement identity S_k + C_{N-k} = C(N,k)."""
    n = graph.num_nodes
    if n > cap:
        raise CapacityError(f"node enumeration visits 2^N subsets; N={n} exceeds the cap of {cap}")
    nbr = _neighbor_masks(graph)
    s = [0] * (n + 1)
    for mask in range(1, 1 << n):
        if _mask_connected(mask, nbr):
            s[mask.bit_count()] += 1
    return ReliabilityCoefficients.node(n, s)


def enumerate_link_coefficients(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> ReliabilityCoefficients:
    """Exact F_0..F_L: the number of j-link removals that keep every node of
    the graph in one component."""
    n = graph.num_nodes
    l = graph.num_links
    if l > cap:
        raise CapacityError(f"link enumeration visits 2^L subsets; L={l} exceeds the cap of {cap}")
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
        if _mask_connected(everyone, nbr):
            f[l - kept.bit_count()] += 1
    return ReliabilityCoefficients.link(n, l, f)


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


def node_curve_value_exact(coeffs: ReliabilityCoefficients, p):
    """S-form value in exact rational arithmetic (p may be a Fraction)."""
    return _reliability(coeffs, "node", p, exact=True)


def link_curve_value_exact(coeffs: ReliabilityCoefficients, p):
    return _reliability(coeffs, "link", p, exact=True)


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

    These bypass the 2^N enumeration, which is what makes large-N fraction
    lookups (for the concentration estimate) possible.
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
