"""Degree-based approximations and random-graph ensemble formulas.

Everything here is computable from the degree distribution (or the model
parameters) alone. The central quantity is the probability that a random
surviving node is isolated, phi_D(1-p); treating isolation checks across
nodes as independent yields the stochastic approximations and the two
first-order isolation approximations, which are named upper bounds but are
not bounds in general. All powers are taken in log space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .curve import Curve, _check_probability
from .errors import ConnectivityWarning
from .graph import Graph


def _stochastic_curve(graph: Graph, grid, kind: str) -> Curve:
    """(1 - phi_D(1-p))^(N p) for kind "node", (1 - phi_D(1-p))^N for "link",
    on a grid."""
    grid = tuple(grid)
    for p in grid:
        _check_probability(p)
    n = graph.num_nodes
    values = []
    for p in grid:
        if kind == "node" and p == 0.0:
            values.append(1.0)  # exponent N*p vanishes: vacuous at p = 0, even with no nodes
            continue
        phi = graph.degree_distribution().pgf(1.0 - p)
        exponent = n * p if kind == "node" else n
        values.append(0.0 if phi >= 1.0 else math.exp(exponent * math.log1p(-phi)))
    # after the values: a graph with no degree distribution gets its error alone
    if not graph.is_connected():
        warnings.warn(
            f"stochastic {kind} reliability applied to a disconnected graph; the "
            "no-isolated-node surrogate for connectivity is unreliable there",
            ConnectivityWarning,
            stacklevel=3,  # the caller of the public function
        )
    return Curve(grid, tuple(values), {"method": "stochastic", "kind": kind})


def stochastic_node_reliability(graph: Graph, p: float) -> float:
    """(1 - phi_D(1-p))^(N p): chance the ~Np survivors have no isolated node.

    Not exact nRel: on the 3x40 and 20x5 lattices it is off by up to 0.40
    (at p = 0.82) and 0.34 (at p = 0.01).
    """
    return _stochastic_curve(graph, (p,), "node").values[0]


def stochastic_link_reliability(graph: Graph, p: float) -> float:
    """(1 - phi_D(1-p))^N, the link-failure analogue (all nodes present)."""
    return _stochastic_curve(graph, (p,), "link").values[0]


def power_relation_gap(node_curve: Curve, link_curve: Curve) -> float:
    """sup_p |node(p) - link(p)^p| over a shared grid.

    The node-variant curve tracks the link-variant curve raised to the
    power p on large dense graphs; this measures how closely.
    """
    node_curve._check_same_grid(link_curve)
    return max(
        abs(nv - lv**p)
        for p, nv, lv in zip(node_curve.grid, node_curve.values, link_curve.values)
    )


def arithmetic_upper_bound(graph: Graph, p: float) -> float:
    """(1 - p phi_D(1-p))^N from the mean not-isolated probability.

    An isolation approximation, not an upper bound in general: on the
    3-node star K_(1,2) at p = 0.5 it gives (19/24)^3 = 0.496, while the
    exact node reliability is 0.75. A lone survivor is isolated yet
    connected, and the isolation events of neighbours are not independent.
    Cost is one pgf evaluation, O(#distinct degrees).
    """
    _check_probability(p)
    phi = graph.degree_distribution().pgf(1.0 - p)
    x = p * phi
    if x >= 1.0:
        return 0.0
    return math.exp(graph.num_nodes * math.log1p(-x))


def geometric_upper_bound(graph: Graph, p: float) -> float:
    """prod_i (1 - p (1-p)^(d_i)), each node's own not-isolated probability.

    An isolation approximation, not an upper bound in general: on the
    3-node star K_(1,2) at p = 0.5 it gives 0.4921875, against an exact 0.75.
    """
    _check_probability(p)
    q = 1.0 - p
    total = 0.0
    for j, n_j in graph.degree_distribution().degree_counts.items():
        f = p * q**j
        if f >= 1.0:
            return 0.0
        total += n_j * math.log1p(-f)
    return math.exp(total)


# ---------------------------------------------------------------------------
# ensemble formulas


@dataclass(frozen=True)
class ErModel:
    """Erdos-Renyi ensemble G(N, p_l); mean_degree is N * p_l."""

    num_nodes: int
    link_probability: float

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if not 0.0 <= self.link_probability <= 1.0:
            raise ValueError("link probability must lie in [0, 1]")

    @property
    def mean_degree(self) -> float:
        return self.num_nodes * self.link_probability

    def growth_scale(self, p: float) -> float:
        """b(p) = e^(N p p_l) / N, the scale the reliability exponent lives on."""
        return math.exp(self.num_nodes * p * self.link_probability) / self.num_nodes


@dataclass(frozen=True)
class RggModel:
    """Random geometric graph ensemble on the unit square: pair probability pi r^2."""

    num_nodes: int
    radius: float

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if not self.radius >= 0:  # NaN too
            raise ValueError("radius must be nonnegative")
        if self.pair_probability > 1.0:
            raise ValueError("pi r^2 must not exceed 1")

    @property
    def pair_probability(self) -> float:
        return math.pi * self.radius * self.radius


def er_node_reliability(model: ErModel, p: float) -> float:
    """exp(-p N e^(-N p p_l)): expected survivors times their isolation odds.

    Valid where the surviving mean degree N p p_l is at least of order
    log(N p); the expression tends to 1 rather than 0 as p -> 0.
    """
    _check_probability(p)
    n = model.num_nodes
    return math.exp(-p * n * math.exp(-n * p * model.link_probability))


@dataclass(frozen=True)
class ErIntersection:
    p: float
    value: float
    inside: bool
    note: str


def er_intersection(m1: ErModel, m2: ErModel) -> ErIntersection:
    """Crossing point of two ensemble node-reliability curves.

    p_i = exp((k1 log N2 - k2 log N1) / (k2 - k1)) with k_i the mean degrees.
    A crossing lies in (0,1) only when the sparser ensemble has more nodes;
    when it does not, the violated inequality is reported in the note.
    p_i is the common growth scale b1(p*) = b2(p*) where the er_node_reliability
    curves do cross, at p* = ln(N2/N1)/(k2 - k1): for ER(100, 0.05) against
    ER(10000, 0.0012), p_i = 0.2683 while p* = 0.6579.
    """
    k1, k2 = m1.mean_degree, m2.mean_degree
    if k1 == k2:
        raise ValueError("models with equal mean degree never produce a crossing point")
    ln1, ln2 = math.log(m1.num_nodes), math.log(m2.num_nodes)
    log_p = (k1 * ln2 - k2 * ln1) / (k2 - k1)
    p_i = math.exp(log_p) if log_p < 700.0 else math.inf
    inside = 0.0 < p_i < 1.0
    value = math.exp(-p_i / m1.growth_scale(p_i)) if inside else math.nan
    note = ""
    if not inside:
        needed, found = (">", "<=") if k2 > k1 else ("<", ">=")
        note = (
            f"no intersection in (0, 1): needs log N1 / log N2 {needed} k1/k2, "
            f"but {ln1:.6g}/{ln2:.6g} {found} {k1:.6g}/{k2:.6g}"
        )
    return ErIntersection(p_i, value, inside, note)


def er_transition_width(model: ErModel, lo: float, hi: float) -> float:
    """p-distance over which the ensemble curve climbs from level lo to hi.

    Mapping a level v to c' = -log v, the width is
    (log(-log lo) - log(-log hi)) / (N p_l), so it shrinks like 1/(N p_l).
    """
    if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise ValueError("levels must lie strictly inside (0, 1)")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    scale = model.num_nodes * model.link_probability
    if scale <= 0:
        raise ValueError("transition width needs a positive mean degree")
    return (math.log(-math.log(lo)) - math.log(-math.log(hi))) / scale


def rgg_node_reliability(model: RggModel, p: float) -> float:
    """(1 - (1 - pi r^2)^(N p - 1))^(N p) for the geometric ensemble."""
    _check_probability(p)
    np_ = model.num_nodes * p
    if np_ < 1.0:
        raise ValueError("needs N p >= 1; fewer than one expected survivor")
    a = model.pair_probability
    if np_ == 1.0:
        return 0.0  # inner power is (1-a)^0 = 1, so the base vanishes
    inner = math.exp((np_ - 1.0) * math.log1p(-a))
    if inner >= 1.0:
        return 0.0
    return math.exp(np_ * math.log1p(-inner))


# ---------------------------------------------------------------------------
# curve conveniences (used by the CLI and demos)


def stochastic_node_curve(graph: Graph, grid) -> Curve:
    return _stochastic_curve(graph, grid, "node")


def stochastic_link_curve(graph: Graph, grid) -> Curve:
    return _stochastic_curve(graph, grid, "link")
