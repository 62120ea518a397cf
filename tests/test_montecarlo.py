import collections
import contextlib
import functools
import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from relpoly import (
    CutFractionEstimate,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_link_coefficients,
    enumerate_node_coefficients,
    estimate_link_cut_fractions,
    estimate_node_cut_fractions,
    family_node_coefficients,
    generate_ba,
    generate_er,
    generate_lattice,
    generate_rgg,
    laplace_curve,
    laplace_estimate,
    link_reliability,
    link_removal_profile,
    node_reliability_curve,
    node_reliability_s_form,
    node_removal_profile,
    path_graph,
    star_graph,
)
from relpoly import bernstein_mixture, montecarlo
from relpoly.montecarlo import _DRAW_BLOCK, _count_range, _order_blocks, _run_seeds, _seed_words
from oracle import (
    estimate_link_reliability_curve,
    forward_deletion_profile,
    link_disconnection_into,
    laplace_s_form,
    mix_seed,
    naive_connected,
    node_disconnection_into,
    run_order,
    splitmix_shuffle,
)

GRID = tuple(i / 20 for i in range(21))


class TestNodeEstimator:
    def test_k3_is_exact(self):
        est = estimate_node_cut_fractions(complete_graph(3), 500, seed=1)
        assert est.fractions == (0.0, 0.0, 0.0, 1.0)

    def test_star_center_fraction(self):
        # only the center removal disconnects S_3: c_1 = 1/3, sd ~ 0.0015
        est = estimate_node_cut_fractions(star_graph(3), 100000, seed=42)
        assert abs(est.fractions[1] - 1 / 3) < 0.01

    def test_empty_residual_always_disconnected(self, corpus):
        for label, g in corpus[:6]:
            est = estimate_node_cut_fractions(g, 50, seed=3)
            assert est.fractions[-1] == 1.0, label

    def test_connected_graph_has_zero_c0(self):
        est = estimate_node_cut_fractions(cycle_graph(6), 200, seed=5)
        assert est.fractions[0] == 0.0

    def test_disconnected_graph_has_unit_c0(self):
        from relpoly import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        est = estimate_node_cut_fractions(g, 100, seed=5)
        assert est.fractions[0] == 1.0
        curve = node_reliability_curve(est, GRID)
        assert curve.value_at(1.0) == 0.0

    def test_determinism(self):
        g = generate_er(15, 0.3, 77)
        a = estimate_node_cut_fractions(g, 2000, seed=9)
        b = estimate_node_cut_fractions(g, 2000, seed=9)
        assert a == b
        c = estimate_node_cut_fractions(g, 2000, seed=10)
        assert a != c

    def test_worker_count_invariance(self):
        g = generate_er(20, 0.25, 5)
        serial = estimate_node_cut_fractions(g, 600, seed=13, workers=1)
        parallel = estimate_node_cut_fractions(g, 600, seed=13, workers=2)
        assert serial == parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_node_cut_fractions(path_graph(3), 0, seed=1)


class TestProfiles:
    def test_reverse_equals_forward_deletion(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(50):
            n = int(rng.integers(2, 13))
            g = generate_er(n, float(rng.uniform(0.1, 0.7)), int(rng.integers(1 << 32)))
            order = list(rng.permutation(n))
            assert node_removal_profile(g, order) == forward_deletion_profile(g, order)

    def test_link_profile_against_naive(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(25):
            n = int(rng.integers(2, 10))
            g = generate_er(n, float(rng.uniform(0.3, 0.9)), int(rng.integers(1 << 32)))
            if g.num_links == 0:
                continue
            edges = g.edges()
            order = list(rng.permutation(g.num_links))
            expected = []
            for j in range(g.num_links + 1):
                kept = [edges[e] for e in order[j:]]
                from relpoly import Graph

                expected.append(not naive_connected(Graph(n, kept), range(n)))
            assert link_removal_profile(g, order) == expected

    def test_profile_validates_permutation(self):
        # cycle:3 has 3 nodes and 3 links, so one order fits either profile
        wrong_length = ([0, 1], [0, 1, 2, 0])
        duplicate = ([0, 1, 1],)
        out_of_range = ([0, 1, 3], [-1, 0, 1])
        not_integers = ([0.0, 1, 2],)
        for profile in (node_removal_profile, link_removal_profile):
            for order in wrong_length + duplicate + out_of_range + not_integers:
                with pytest.raises(ValueError, match="permutation"):
                    profile(cycle_graph(3), order)
            assert profile(cycle_graph(3), np.array([2, 0, 1])) == profile(cycle_graph(3), [2, 0, 1])

    @pytest.mark.parametrize("order, accepted", [
        ([np.int64(2), np.int32(0), 1], True),
        ([True, 0, 2], True),  # bool is an int subclass
        ([0, 1, 3], False),
        ([0, 1, 2**50], False),  # refused before any count of 2^50 ids is allocated
        ([0, 2, 2], False),
        ([0, 1.0, 2], False),
        ([0, np.float64(1), 2], False),
        ([0, 1, 2**63], False),  # beyond int64: ValueError, not OverflowError
        ([0, 1, -(2**64)], False),
        (np.array([2, 0, 1], np.int8), True),
        (np.array([2, 0, 1], np.uint64), True),
        (np.array([2, 0, 1], object), True),
        (np.array([True, False, True]), False),  # unlike a Python bool, a numpy bool is not an index
        (np.array([2.0, 0.0, 1.0]), False),
        (np.array([[2, 0, 1]]), False),
        (np.array([0, 1, 2**63], np.uint64), False),  # refused, not wrapped to -2^63
        (np.array([0, 1, 2**64 - 1], np.uint64), False),
        (np.array([0, 1, -1], np.int8), False),
        (np.array([0, 1, 1], np.uint8), False),
    ], ids=["numpy-ints", "bool", "out-of-range", "far-out-of-range", "duplicate", "float", "numpy-float",
            "beyond-int64", "below-int64", "int8-array", "uint64-array", "object-array", "bool-array",
            "float-array", "2d-array", "uint64-2^63", "uint64-max", "negative-int8", "duplicate-uint8"])
    @pytest.mark.parametrize("profile", [node_removal_profile, link_removal_profile])
    def test_order_elements(self, profile, order, accepted):
        if accepted:
            assert profile(cycle_graph(3), order) == profile(cycle_graph(3), [int(x) for x in order])
        else:
            with pytest.raises(ValueError, match="permutation"):
                profile(cycle_graph(3), order)


def _oracle_node_flags(graph, order):
    out = [0] * (graph.num_nodes + 1)
    node_disconnection_into(graph.adjacency, graph.num_nodes, order, out)
    return [bool(x) for x in out]


def _oracle_link_flags(graph, order):
    out = [0] * (graph.num_links + 1)
    link_disconnection_into(graph.edges(), graph.num_nodes, graph.num_links, order, out)
    return [bool(x) for x in out]


def _sweep_graphs():
    rng = np.random.Generator(np.random.PCG64(4104))
    graphs = []
    for _ in range(24):
        # mean degree 0.5..12: sparse draws are disconnected, dense ones connected
        n = int(rng.integers(30, 81))
        pl = float(rng.uniform(0.5, 12.0)) / (n - 1)
        graphs.append((f"er:{n},{pl:.3f}", generate_er(n, pl, int(rng.integers(1 << 32)))))
    graphs += [
        ("isolated:cycle+3", Graph(13, [(i, (i + 1) % 10) for i in range(10)])),
        ("isolated:edge+5", Graph(7, [(2, 5)])),
        ("isolated:er+4", Graph(44, generate_er(40, 0.15, 7).edges())),
        ("path:40", path_graph(40)),
        ("star:40", star_graph(40)),
        ("lattice:6x7", generate_lattice((6, 7))),
        ("lattice:3x3x4", generate_lattice((3, 3, 4))),
        ("single", Graph(1)),
        ("no-links:5", Graph(5)),
    ]
    return graphs


SWEEP_GRAPHS = _sweep_graphs()


def _oracle_counts(g, seed, runs, node=True):
    """Node and link counts of runs 0..runs-1 by the plain kernels."""
    n, l = g.num_nodes, g.num_links
    nodes = [0] * (n + 1)
    link = [0] * (l + 1)
    for r in range(runs):
        if node:
            node_disconnection_into(g.adjacency, n, run_order(n, seed, r), nodes)
        link_disconnection_into(g.edges(), n, l, run_order(l, seed, r), link)
    return nodes, link


class TestSweepsEqualOracle:
    """The shortcut sweeps against the plain union-find kernels in tests/oracle.py."""

    ORDERS = 40

    @pytest.mark.parametrize("label,g", SWEEP_GRAPHS, ids=[x for x, _ in SWEEP_GRAPHS])
    def test_node_profiles(self, label, g):
        rng = np.random.Generator(np.random.PCG64(g.num_nodes))
        for _ in range(self.ORDERS):
            order = rng.permutation(g.num_nodes).tolist()
            assert node_removal_profile(g, order) == _oracle_node_flags(g, order), label

    @pytest.mark.parametrize("label,g", SWEEP_GRAPHS, ids=[x for x, _ in SWEEP_GRAPHS])
    def test_link_profiles(self, label, g):
        rng = np.random.Generator(np.random.PCG64(g.num_links))
        for _ in range(self.ORDERS):
            order = rng.permutation(g.num_links).tolist()
            assert link_removal_profile(g, order) == _oracle_link_flags(g, order), label

    @pytest.mark.parametrize("label,g", SWEEP_GRAPHS, ids=[x for x, _ in SWEEP_GRAPHS])
    def test_run_counts(self, label, g):
        node, link = _oracle_counts(g, 97, self.ORDERS)
        assert _count_range("node", g, 97, 0, self.ORDERS) == node, label
        assert _count_range("link", g, 97, 0, self.ORDERS) == link, label

    def test_link_profile_without_links(self):
        assert link_removal_profile(Graph(1), []) == [False]
        assert link_removal_profile(Graph(4), []) == [True]
        assert link_removal_profile(Graph(0), []) == [True]

    def test_node_profile_of_single_node(self):
        assert node_removal_profile(Graph(1), [0]) == [False, True]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("g", [generate_er(20, 0.2, 11), generate_er(45, 0.08, 12)],
                             ids=["er:20", "er:45"])
    def test_estimates_equal_oracle_counts(self, g, workers):
        # these runs are swept a block at a time, so two workers' shares of
        # whole draw blocks leave one share: TestForkedShares forks
        node, link = _oracle_counts(g, 31, 120)
        assert estimate_node_cut_fractions(g, 120, 31, workers).counts == tuple(node)
        assert estimate_link_cut_fractions(g, 120, 31, workers).counts == tuple(link)


# every sweep graph with links: each way of sweeping applies to it
_WAY_GRAPHS = [(label, g) for label, g in SWEEP_GRAPHS if g.num_nodes >= 2 and g.num_links >= 1]


@functools.cache
def _way_oracle_counts(label, runs):
    return _oracle_counts(dict(_WAY_GRAPHS)[label], 97, runs)


class TestEveryWayEqualsOracle:
    """_count_range with _sweep_way forced to each way in turn, whatever the
    graph would take, against the plain kernels in tests/oracle.py: every
    way turns the same orders into the same counts on any graph."""

    RUNS = 40

    @pytest.mark.parametrize("kind,way", [
        ("node", "plain"), ("node", "numpy-start"), ("node", "block"), ("link", "numpy-start"), ("link", "block"),
    ])
    def test_forced_way(self, monkeypatch, kind, way):
        monkeypatch.setattr(montecarlo, "_sweep_way", lambda kind, graph: way)
        for label, g in _WAY_GRAPHS:
            node, link = _way_oracle_counts(label, self.RUNS)
            assert _count_range(kind, g, 97, 0, self.RUNS) == (node if kind == "node" else link), label


def _dumbbell(k):
    """Two k-cliques joined by the one bridge (k - 1, k)."""
    clique = list(itertools.combinations(range(k), 2))
    return Graph(2 * k, clique + [(u + k, v + k) for u, v in clique] + [(k - 1, k)])


# every graph here has at least _LABEL_MIN_LINKS links, so its link runs
# start at the isolation bound
LABELLED_GRAPHS = [
    ("er:1000,0.014", generate_er(1000, 0.014, 1)),
    ("rgg:2000,0.05", generate_rgg(2000, 0.05, 1)),
    ("ba:2000,3", generate_ba(2000, 3, 1)),
    ("lattice:30x30", generate_lattice((30, 30))),
    ("path:600", path_graph(600)),
    ("cycle:600", cycle_graph(600)),
    ("dumbbell:17", _dumbbell(17)),
    ("er:600,0.004", generate_er(600, 0.004, 3)),  # disconnected
]
_LABELLED_ORACLE = {}


def _labelled_oracle_counts(label, g, runs):
    if label not in _LABELLED_ORACLE:
        _LABELLED_ORACLE[label] = _oracle_counts(g, 97, runs, node=False)[1]
    return _LABELLED_ORACLE[label]


class TestLinkLabellingEqualsOracle:
    """Link sweeps that start from a numpy labelling at the isolation bound,
    against the plain union-find kernel in tests/oracle.py."""

    RUNS = 40

    def test_corpus(self):
        for label, g in LABELLED_GRAPHS:
            assert g.num_links >= montecarlo._LABEL_MIN_LINKS, label
            assert g.is_connected() == (label != "er:600,0.004"), label

    @pytest.mark.parametrize("label,g", LABELLED_GRAPHS, ids=[x for x, _ in LABELLED_GRAPHS])
    def test_run_counts(self, label, g):
        counts = _count_range("link", g, 97, 0, self.RUNS)
        assert counts == _labelled_oracle_counts(label, g, self.RUNS)

    @pytest.mark.parametrize("label,g", LABELLED_GRAPHS, ids=[x for x, _ in LABELLED_GRAPHS])
    def test_link_profiles(self, label, g):
        rng = np.random.Generator(np.random.PCG64(g.num_links))
        for _ in range(8):
            order = rng.permutation(g.num_links).tolist()
            assert link_removal_profile(g, order) == _oracle_link_flags(g, order)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("label,g", LABELLED_GRAPHS, ids=[x for x, _ in LABELLED_GRAPHS])
    def test_estimates(self, label, g, workers):
        est = estimate_link_cut_fractions(g, self.RUNS, 97, workers)
        assert est.counts == tuple(_labelled_oracle_counts(label, g, self.RUNS))

    def test_both_exits_reached(self, monkeypatch):
        # the union-find kernel runs only when the labelling leaves more than
        # one component; otherwise the run ends at the isolation bound
        fallbacks = {}
        kernel = montecarlo._link_connection_threshold

        def spy(ends, perm, start, parent, size, ncomp):
            fallbacks[label] += 1
            assert ncomp > 1 and start < len(ends[0]) - 1
            return kernel(ends, perm, start, parent, size, ncomp)

        monkeypatch.setattr(montecarlo, "_link_connection_threshold", spy)
        for label, g in LABELLED_GRAPHS[:-1]:
            fallbacks[label] = 0
            _count_range("link", g, 97, 0, self.RUNS)
        assert fallbacks["er:1000,0.014"] < self.RUNS
        assert fallbacks["path:600"] == fallbacks["cycle:600"] == self.RUNS
        assert fallbacks["dumbbell:17"] > 0


# all but the last two take the node shortcut: at least
# _NODE_SHORTCUT_MIN_NODES nodes and a mean degree of at most
# _NODE_SHORTCUT_MAX_MEAN_DEGREE
SHORTCUT_GRAPHS = [
    ("er:1000,0.014", generate_er(1000, 0.014, 1)),
    ("er:500,lnN/N", generate_er(500, math.log(500) / 500, 0)),  # criterion 6's graphs
    ("er:1000,lnN/N", generate_er(1000, math.log(1000) / 1000, 2)),
    ("lattice:30x30", generate_lattice((30, 30))),
    ("ba:1000,3", generate_ba(1000, 3, 1)),
    ("rgg:1000,0.06", generate_rgg(1000, 0.06, 1)),
    ("path:2000", path_graph(2000)),
    ("cycle:500", cycle_graph(500)),
    ("star:1000", star_graph(1000)),
    ("isolated:er1000+2", Graph(1002, generate_er(1000, 0.014, 1).edges())),  # two isolated nodes
    ("er:600,0.004", generate_er(600, 0.004, 3)),
    ("complete:300", complete_graph(300)),
    ("er:300,0.3", generate_er(300, 0.3, 1)),
]
_UNSHORTCUT = ("complete:300", "er:300,0.3")
_DISCONNECTED = ("rgg:1000,0.06", "isolated:er1000+2", "er:600,0.004")
_SHORTCUT_ORACLE = {}


def _shortcut_oracle_counts(label, g, runs):
    if label not in _SHORTCUT_ORACLE:
        out = [0] * (g.num_nodes + 1)
        for r in range(runs):
            node_disconnection_into(g.adjacency, g.num_nodes, run_order(g.num_nodes, 97, r), out)
        _SHORTCUT_ORACLE[label] = out
    return _SHORTCUT_ORACLE[label]


def _root(parent, v):
    while parent[v] != v:
        v = parent[v]
    return v


class TestNodeShortcutEqualsOracle:
    """Node sweeps that start from the isolated-node suffix and a numpy
    labelling, and jump across one-component stretches, against the plain
    union-find kernel in tests/oracle.py."""

    RUNS = 40

    def test_corpus(self):
        for label, g in SHORTCUT_GRAPHS:
            way = "plain" if label in _UNSHORTCUT else "numpy-start"
            assert montecarlo._sweep_way("node", g) == way, label
            assert g.is_connected() == (label not in _DISCONNECTED), label

    @pytest.mark.parametrize("label,g", SHORTCUT_GRAPHS, ids=[x for x, _ in SHORTCUT_GRAPHS])
    def test_run_counts(self, label, g):
        counts = _count_range("node", g, 97, 0, self.RUNS)
        assert counts == _shortcut_oracle_counts(label, g, self.RUNS)

    @pytest.mark.parametrize("label,g", SHORTCUT_GRAPHS, ids=[x for x, _ in SHORTCUT_GRAPHS])
    def test_node_profiles(self, label, g):
        rng = np.random.Generator(np.random.PCG64(g.num_nodes))
        for _ in range(8):
            order = rng.permutation(g.num_nodes).tolist()
            assert node_removal_profile(g, order) == _oracle_node_flags(g, order)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("label,g", SHORTCUT_GRAPHS, ids=[x for x, _ in SHORTCUT_GRAPHS])
    def test_estimates(self, label, g, workers):
        est = estimate_node_cut_fractions(g, self.RUNS, 97, workers)
        assert est.counts == tuple(_shortcut_oracle_counts(label, g, self.RUNS))

    def test_every_branch_runs(self, monkeypatch):
        # t0 = 0 leaves no sweep; a sweep starts from the labels at t0 and
        # jumps whenever one component remains, to the next node that starts
        # a new one (hanging the skipped nodes) or past the end
        seen = {label: collections.Counter() for label, _ in SHORTCUT_GRAPHS}
        sweep, bisect = montecarlo._node_sweep, montecarlo.bisect_right
        jumps = []

        def bisect_spy(starts, t):
            k = bisect(starts, t)
            jumps.append("to the end" if not k else "to a start, hanging" if starts[k - 1] < t else "to a start")
            return k

        def sweep_spy(adj, perm, start, inserted, parent, size, ncomp, out, starts=None):
            assert starts is not None and 0 <= start < len(parent) - 1
            # t0 = start + 1 is the lowest: the residual one removal earlier has no isolated node
            residual = {v for v, flag in enumerate(inserted) if flag} | {perm[start]}
            assert all(any(u in residual for u in adj[v]) for v in residual)
            seen[label]["sweeps"] += 1
            seen[label]["labels with several components"] += ncomp > 1
            jumps.clear()
            flags = [0] * len(out)
            sweep(adj, perm, start, inserted, parent, size, ncomp, flags, starts)
            seen[label].update(jumps)
            if flags[0]:
                # the sweep ended in union-find, so every root holds its true size
                assert all(inserted)
                roots = collections.Counter(_root(parent, v) for v in range(len(parent)))
                assert all(size[r] == c for r, c in roots.items())
                seen[label]["sizes checked after a hanging jump"] += "to a start, hanging" in jumps
            for t, f in enumerate(flags):
                out[t] += f

        monkeypatch.setattr(montecarlo, "_node_sweep", sweep_spy)
        monkeypatch.setattr(montecarlo, "bisect_right", bisect_spy)
        for label, g in SHORTCUT_GRAPHS[:-2]:
            counts = _count_range("node", g, 97, 0, self.RUNS)
            assert counts == _shortcut_oracle_counts(label, g, self.RUNS), label
        sweeps = {label: c["sweeps"] for label, c in seen.items()}
        assert sweeps["er:600,0.004"] < self.RUNS  # t0 = 0 in the other runs
        assert sweeps["er:1000,0.014"] == self.RUNS
        total = sum(seen.values(), collections.Counter())
        assert total["labels with several components"] > 0
        assert total["to a start, hanging"] > 0 and total["to the end"] > 0
        assert seen["isolated:er1000+2"]["sizes checked after a hanging jump"] > 0


class TestCurves:
    def test_exact_fractions_reproduce_polynomial(self):
        # feeding P_3's exact cut fractions c = (0, 1/3, 0, 1) through the
        # estimator's curve formula must reproduce the exact polynomial
        coeffs = enumerate_node_coefficients(path_graph(3))
        est = CutFractionEstimate("node", 3, (0, 1, 0, 3), 3, 0)
        curve = node_reliability_curve(est, GRID)
        assert curve.value_at(0.5) == pytest.approx(0.75, abs=1e-12)
        for p in GRID:
            assert curve.value_at(p) == pytest.approx(
                node_reliability_s_form(coeffs, p), abs=1e-12
            )

    def test_k3_curve(self):
        est = estimate_node_cut_fractions(complete_graph(3), 100, seed=0)
        curve = node_reliability_curve(est, GRID)
        assert curve.value_at(0.5) == pytest.approx(0.875, abs=1e-12)

    def test_p_one_is_one_minus_c0(self):
        g = generate_er(12, 0.3, 3)
        est = estimate_node_cut_fractions(g, 500, seed=21)
        curve = node_reliability_curve(est, GRID)
        assert curve.value_at(1.0) == pytest.approx(1.0 - est.fractions[0], abs=1e-15)

    def test_small_graph_convergence(self):
        g = cycle_graph(6)
        coeffs = enumerate_node_coefficients(g)
        est = estimate_node_cut_fractions(g, 20000, seed=8)
        curve = node_reliability_curve(est, GRID)
        gap = max(
            abs(curve.value_at(p) - node_reliability_s_form(coeffs, p)) for p in GRID
        )
        assert gap < 0.02

    def test_kind_checked(self):
        est = estimate_link_cut_fractions(cycle_graph(4), 50, seed=1)
        with pytest.raises(ValueError):
            node_reliability_curve(est, GRID)

    @pytest.mark.parametrize("kind, graph, runs, clamped", [
        ("node", generate_er(12, 0.3, 3), 500, False),
        ("node", generate_er(40, 0.15, 3), 300, False),
        ("link", generate_lattice((3, 5)), 300, False),
        ("link", generate_er(40, 0.15, 3), 300, False),
        ("link", complete_graph(10), 50, True),  # the mixture reads 1 + 2.2e-15 at p = 0.95
    ], ids=["node-small", "node-large", "link-small", "link-large", "link-clamped"])
    def test_equal_to_the_tuple_reference(self, caplog, kind, graph, runs, clamped):
        # the curve built as it was before it read the counts in numpy: a
        # float tuple of 1 - c_j in reverse, mixed, then clamped
        estimate = {"node": estimate_node_cut_fractions, "link": estimate_link_cut_fractions}[kind]
        curve_of = {"node": node_reliability_curve, "link": montecarlo.link_reliability_curve}[kind]
        est = estimate(graph, runs, seed=1, workers=1)
        rev_survive = [1.0 - c for c in reversed(est.fractions)]
        raw = [bernstein_mixture(rev_survive, p) for p in GRID]
        with caplog.at_level("DEBUG", logger="relpoly.exact"):
            values = curve_of(est, GRID).values
        assert values == tuple(min(max(x, 0.0), 1.0) for x in raw)
        outside = sum(not 0.0 <= x <= 1.0 for x in raw)
        assert bool(outside) == clamped
        assert len(caplog.records) == outside

    @pytest.mark.parametrize("counts", [(0, -1, 3), (-1, 0, 3), (0, 4, 3), (0, 1, 4)])
    def test_counts_outside_zero_to_runs_refused(self, counts):
        with pytest.raises(ValueError, match=r"counts must lie in \[0, runs\]"):
            CutFractionEstimate("node", 2, counts, 3, 0)
        # 0 and runs themselves are counts
        assert CutFractionEstimate("node", 2, (0, 3, 3), 3, 0).fractions == (0.0, 1.0, 1.0)


class TestLinkEstimator:
    def test_tree_curve_is_p_to_the_l(self):
        # every link of a tree is a bridge, so each run scores every j >= 1
        # as disconnected and the curve collapses to p^L with zero variance
        tree = star_graph(5)
        curve = estimate_link_reliability_curve(tree, 300, seed=2, grid=GRID)
        for p in GRID:
            assert curve.value_at(p) == pytest.approx(p**4, abs=1e-12)

    def test_k3_at_half(self):
        coeffs = enumerate_link_coefficients(complete_graph(3))
        curve = estimate_link_reliability_curve(complete_graph(3), 40000, seed=4, grid=GRID)
        sd_bound = 3 * 0.5 / math.sqrt(40000)
        assert abs(curve.value_at(0.5) - link_reliability(coeffs, 0.5)) <= sd_bound

    def test_connected_at_p_one(self):
        curve = estimate_link_reliability_curve(cycle_graph(5), 100, seed=6, grid=GRID)
        assert curve.value_at(1.0) == 1.0

    def test_worker_count_invariance(self):
        g = generate_er(12, 0.4, 19)
        a = estimate_link_cut_fractions(g, 400, seed=3, workers=1)
        b = estimate_link_cut_fractions(g, 400, seed=3, workers=2)
        assert a == b


class TestLaplace:
    def test_complete_graph_saturates(self):
        coeffs = family_node_coefficients("complete", 10)
        for p in (0.1, 0.3, 0.7, 1.0):
            assert laplace_estimate(coeffs, p) == 1.0

    def test_p_one_gives_connectivity_indicator(self, corpus):
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            coeffs = enumerate_node_coefficients(g)
            expected = 1.0 if g.is_connected() else 0.0
            assert laplace_estimate(coeffs, 1.0) == expected, label

    def test_equal_to_the_s_form_oracle(self, corpus):
        # the cut fractions read at N(1-p) and the connected fractions read
        # at Np interpolate one piecewise-linear function
        for label, g in corpus:
            coeffs = enumerate_node_coefficients(g)
            est = estimate_node_cut_fractions(g, 400, seed=5, workers=1)
            for source, fractions in ((coeffs, coeffs.cut_fractions), (est, est.fractions)):
                curve = laplace_curve(source, GRID)
                for p, value in zip(GRID, curve.values):
                    assert value == laplace_estimate(source, p), label
                    assert value == pytest.approx(laplace_s_form(fractions, p), abs=1e-12), label

    def test_interpolation(self):
        # at p = 0.75 the c-basis index is N(1-p) = 0.5, halfway c_0 -> c_1
        est = CutFractionEstimate("node", 2, (0, 0, 10), 10, 0)
        assert laplace_estimate(est, 0.75) == pytest.approx(1.0, abs=1e-12)
        est2 = CutFractionEstimate("node", 2, (0, 10, 10), 10, 0)
        assert laplace_estimate(est2, 0.75) == pytest.approx(0.5, abs=1e-12)
        est3 = CutFractionEstimate("node", 2, (0, 5, 10), 10, 0)
        assert laplace_estimate(est3, 0.75) == pytest.approx(0.75, abs=1e-12)

    def test_star_gap_shrinks_with_size(self):
        from relpoly import closed_form_eval

        grid = [p / 100 for p in range(10, 100)]
        gaps = []
        for n in (11, 101, 501):
            coeffs = family_node_coefficients("star", n)
            curve = laplace_curve(coeffs, grid)
            gap = max(
                abs(curve.value_at(p) - closed_form_eval("star", n, p)) for p in grid
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_accepts_plain_fraction_vector(self):
        assert laplace_estimate((0.0, 0.2, 1.0), 0.5) == pytest.approx(1.0 - 0.2)


class TestWorkerResolution:
    def test_env_caps_workers(self, monkeypatch):
        from relpoly.montecarlo import resolve_workers

        monkeypatch.setenv("RELPOLY_THREADS", "1")
        assert resolve_workers(8) == 1
        monkeypatch.delenv("RELPOLY_THREADS")
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.0"])
    def test_env_must_be_positive_integer(self, monkeypatch, value):
        from relpoly.montecarlo import resolve_workers

        monkeypatch.setenv("RELPOLY_THREADS", value)
        with pytest.raises(ValueError, match="RELPOLY_THREADS"):
            resolve_workers(2)


class TestSeedMixing:
    def test_mix_is_stable(self):
        assert mix_seed(42, 0) == mix_seed(42, 0)
        assert mix_seed(42, 0) != mix_seed(42, 1)
        assert mix_seed(42, 0) != mix_seed(43, 0)

    def test_mix_is_64_bit(self):
        vals = [mix_seed(7, i) for i in range(100)]
        assert all(0 <= v < (1 << 64) for v in vals)
        assert len(set(vals)) == 100

    SEEDS = [0, 1, (1 << 64) - 1, -1, (1 << 70) + 3] + [mix_seed(2024, t) for t in range(200)]

    def test_run_seeds_are_the_scalar_mix(self):
        # the bulk hash equals the oracle's scalar SplitMix64 step, for roots
        # below 0 and from 2^64 up, from the stream's start and far along it
        for s in [-(2**64) - 5, 1 << 64] + self.SEEDS:
            for start, stop in ((0, 5), (_DRAW_BLOCK - 2, _DRAW_BLOCK + 3), (2**40, 2**40 + 3)):
                assert _run_seeds(s, start, stop).tolist() == [mix_seed(s, r) for r in range(start, stop)], (s, start)

    @pytest.mark.parametrize("rows", [1, 2, _DRAW_BLOCK])
    def test_block_draw_is_per_run_shuffle(self, rows):
        # draw k of run r is mix_seed(mix_seed(seed, r), k), however runs are
        # grouped and sliced: from the stream's start, and mid-stream across a
        # block boundary
        for start, stop in ((0, 3), (_DRAW_BLOCK - 2, _DRAW_BLOCK + 3)):
            for n in range(1, 32):
                for s in self.SEEDS:
                    expected = [splitmix_shuffle(n, mix_seed(s, r)) for r in range(start, stop)]
                    got = [perm for perms in _order_blocks(n, s, start, stop, rows) for perm in perms.tolist()]
                    assert got == expected, (n, s, start)

    def test_seed_words_are_seed_sequence(self):
        seeds = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1] + [mix_seed(2024, t) for t in range(200)]
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        assert words.dtype == np.uint64
        for s, row in zip(seeds, words):
            assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist(), s

    @pytest.mark.parametrize("asked", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
    def test_run_words_serve_only_pcg64(self, asked):
        words = _seed_words(_run_seeds(1, 0, 3))
        seeds = montecarlo._RunWords(words)
        seeds.run = 2
        assert seeds.generate_state(4, np.uint64).tolist() == words[2].tolist()
        with pytest.raises(ValueError, match="4 uint64 words"):
            seeds.generate_state(*asked)

    def test_run_words_hold_contiguous_uint64_rows(self):
        # whatever the block's layout or integer dtype, each row PCG64 reads is
        # 4 uint64 words holding its values; rows not of 4 are refused
        words = _seed_words(_run_seeds(1, 0, 3))
        small = np.arange(12, dtype=np.uint32).reshape(3, 4)
        for block in (np.asfortranarray(words), np.repeat(words, 2, axis=0)[::2], small):
            seeds = montecarlo._RunWords(block)
            assert seeds.words.flags.c_contiguous and seeds.words.dtype == np.uint64
            assert seeds.words.tolist() == block.tolist()
        for bad in (words[:, :3], words.ravel(), words[None]):
            with pytest.raises(ValueError, match="rows of 4"):
                montecarlo._RunWords(bad)

    def test_run_words_seed_as_the_run_seed(self):
        # numpy seeds PCG64 from the hashed words as from the run seed itself:
        # for negative roots, roots of 2^64 and more, and across a block boundary
        for s in [-(2**64) - 5, 1 << 64] + self.SEEDS[:25]:
            for start, stop in ((0, 3), (_DRAW_BLOCK - 2, _DRAW_BLOCK + 3)):
                seeds = montecarlo._RunWords(_seed_words(_run_seeds(s, start, stop)))
                for run, r in enumerate(range(start, stop)):
                    seeds.run = run
                    expected = np.random.PCG64(mix_seed(s, r)).state
                    assert np.random.PCG64(seeds).state == expected, (s, r)

    @pytest.mark.parametrize("rows", [1, 2, _DRAW_BLOCK])
    def test_large_block_draw_is_per_run_generator(self, rows):
        # run r's order is Generator(PCG64(mix_seed(seed, r))).permutation(n),
        # from the stream's start and mid-stream across a block boundary, in
        # slices of any size; each slice is read before the next is drawn
        for start, stop in ((0, 3), (_DRAW_BLOCK - 2, _DRAW_BLOCK + 3)):
            for n in (32, 33, 67, 255, 256, 1000, 4097):  # 4097: one-row slices in _count_range
                for s in self.SEEDS:
                    got = [perm for perms in _order_blocks(n, s, start, stop, rows) for perm in perms.tolist()]
                    assert got == [run_order(n, s, r) for r in range(start, stop)], (n, s, start)


# graphs whose block-boundary runs are checked: orders below 32 elements and
# from 32 up; each kind has its own root seed
_BOUNDARY_GRAPHS = {
    "er:18,0.3": lambda: generate_er(18, 0.3, 1),
    "ba:12,3": lambda: generate_ba(12, 3, 1),  # L = 27
    "lattice:5x8": lambda: generate_lattice((5, 8)),  # N = 40, L = 67
}
_BOUNDARY_SEEDS = {"node": 5, "link": 6}


@functools.cache
def _boundary_oracle_counts(kind, label, runs):
    """The graph `label` and the oracle counts of its block-boundary runs."""
    g = _BOUNDARY_GRAPHS[label]()
    seed = _BOUNDARY_SEEDS[kind]
    if kind == "node":
        out = [0] * (g.num_nodes + 1)
        for r in range(runs):
            node_disconnection_into(g.adjacency, g.num_nodes, run_order(g.num_nodes, seed, r), out)
    else:
        out = [0] * (g.num_links + 1)
        for r in range(runs):
            link_disconnection_into(g.edges(), g.num_nodes, g.num_links, run_order(g.num_links, seed, r), out)
    return g, tuple(out)


class TestBlockBoundaryParity:
    """2 * _DRAW_BLOCK + 3 runs cross two block boundaries, and two workers
    split them elsewhere; the counts must not move."""

    RUNS = 2 * _DRAW_BLOCK + 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_node_counts(self, workers):
        g, expected = _boundary_oracle_counts("node", "er:18,0.3", self.RUNS)
        assert estimate_node_cut_fractions(g, self.RUNS, 5, workers).counts == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_link_counts(self, workers):
        g, expected = _boundary_oracle_counts("link", "ba:12,3", self.RUNS)
        assert estimate_link_cut_fractions(g, self.RUNS, 6, workers).counts == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mid_size_node_counts(self, workers):
        g, expected = _boundary_oracle_counts("node", "lattice:5x8", self.RUNS)
        assert g.num_nodes >= montecarlo._SMALL_PERMUTATION
        assert estimate_node_cut_fractions(g, self.RUNS, 5, workers).counts == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mid_size_link_counts(self, workers):
        g, expected = _boundary_oracle_counts("link", "lattice:5x8", self.RUNS)
        assert montecarlo._SMALL_PERMUTATION <= g.num_links < montecarlo._LABEL_MIN_LINKS
        assert estimate_link_cut_fractions(g, self.RUNS, 6, workers).counts == expected


def _range_oracle_counts(kind, g, seed, start, stop):
    """Counts of runs start..stop-1 by the plain kernels in tests/oracle.py."""
    n, l = g.num_nodes, g.num_links
    out = [0] * ((n if kind == "node" else l) + 1)
    for r in range(start, stop):
        if kind == "node":
            node_disconnection_into(g.adjacency, n, run_order(n, seed, r), out)
        else:
            link_disconnection_into(g.edges(), n, l, run_order(l, seed, r), out)
    return out


def _wheel(k):
    """A k-cycle and a hub, node k, linked to every cycle node: largest degree k."""
    return Graph(k + 1, [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)])


def _links_of(g, count):
    """The graph on g's nodes with g's first `count` links."""
    return Graph(g.num_nodes, g.edges()[:count])


class TestBlockSweeps:
    """Estimate runs swept a block at a time in lockstep, against the
    per-run kernels: the union-find sweep in src and the plain kernels in
    tests/oracle.py."""

    RUNS = 60

    def test_link_thresholds_run_by_run(self, corpus):
        rng = np.random.Generator(np.random.PCG64(256))
        graphs = corpus + SWEEP_GRAPHS + [("path:2", path_graph(2))]
        for label, g in graphs:
            n, l = g.num_nodes, g.num_links
            if montecarlo._sweep_way("link", g) != "block" or not l:
                continue
            perms = rng.permuted(np.tile(np.arange(l), (self.RUNS, 1)), axis=1)
            rows = tuple(map(memoryview, g.link_ends))
            expected = [montecarlo._link_connection_threshold(rows, perm, l - 1, list(range(n)), [1] * n, n)
                        for perm in perms.tolist()]
            assert montecarlo._link_block_thresholds(g.link_ends, n, perms).tolist() == expected, label

    def test_corpus_node_counts(self, corpus):
        swept = 0
        for label, g in corpus:
            if montecarlo._sweep_way("node", g) == "block":
                swept += 1
                assert _count_range("node", g, 41, 0, self.RUNS) == _range_oracle_counts(
                    "node", g, 41, 0, self.RUNS), label
        assert swept == len(corpus)  # no corpus graph has a degree above 12

    def test_smallest_graphs(self):
        # one node: no union at all; two nodes and one link (L = 1): one
        # union, which the single link's presence decides
        assert montecarlo._sweep_way("node", Graph(1)) == "block"
        assert estimate_node_cut_fractions(Graph(1), 5, 3).counts == (0, 5)
        assert estimate_node_cut_fractions(path_graph(2), 5, 3).counts == (0, 0, 5)
        assert montecarlo._sweep_way("link", path_graph(2)) == "block"
        assert estimate_link_cut_fractions(path_graph(2), 5, 3).counts == (0, 5)

    @pytest.mark.parametrize("g", [path_graph(9), star_graph(7), generate_ba(20, 1, 3)], ids=["path", "star", "ba:20,1"])
    def test_tree_thresholds_are_zero(self, g):
        l = g.num_links
        perms = next(montecarlo._order_blocks(l, 8, 0, self.RUNS, self.RUNS))
        assert not montecarlo._link_block_thresholds(g.link_ends, g.num_nodes, perms).any()
        assert _count_range("link", g, 8, 0, self.RUNS) == [0] + [self.RUNS] * l

    @pytest.mark.parametrize("g", [Graph(7, [(2, 5)]), Graph(13, [(i, (i + 1) % 10) for i in range(10)])],
                             ids=["edge+5", "cycle+3"])
    def test_node_estimate_with_isolated_nodes(self, g):
        assert montecarlo._sweep_way("node", g) == "block"
        est = estimate_node_cut_fractions(g, self.RUNS, 12)
        assert est.counts == tuple(_range_oracle_counts("node", g, 12, 0, self.RUNS))

    def test_degree_crossover(self):
        # the wheel on 12 cycle nodes has a hub of degree 12, the next one 13
        for k, way in ((12, "block"), (13, "plain")):
            g = _wheel(k)
            assert max(map(len, g.adjacency)) == k
            assert montecarlo._sweep_way("node", g) == way, k
            assert _count_range("node", g, 4, 0, self.RUNS) == _range_oracle_counts("node", g, 4, 0, self.RUNS), k

    def test_link_count_crossover(self):
        g = generate_er(40, 0.35, 5)
        for l, way in ((255, "block"), (256, "numpy-start")):
            sub = _links_of(g, l)
            assert sub.num_links == l and montecarlo._sweep_way("link", sub) == way
            assert _count_range("link", sub, 4, 0, self.RUNS) == _range_oracle_counts("link", sub, 4, 0, self.RUNS), l

    @pytest.mark.parametrize("kind", ["node", "link"])
    @pytest.mark.parametrize("label", ["er:18,0.3", "lattice:5x8"])
    def test_mid_stream_ranges(self, kind, label):
        # a worker's share starts anywhere; these cross a draw block boundary
        g = _BOUNDARY_GRAPHS[label]()
        for start, stop in ((7, 50), (_DRAW_BLOCK - 20, _DRAW_BLOCK + 13)):
            assert _count_range(kind, g, 9, start, stop) == _range_oracle_counts(kind, g, 9, start, stop), start

    @pytest.mark.parametrize("kind", ["node", "link"])
    @pytest.mark.parametrize("label", ["er:18,0.3", "lattice:5x8"])
    def test_sweeps_in_slices_of_capped_rows(self, monkeypatch, kind, label):
        # with 200 cells a slice holds 200 // (n + 1) rows, whatever the draw block
        g = _BOUNDARY_GRAPHS[label]()
        monkeypatch.setattr(montecarlo, "_BLOCK_CELLS", 200)
        cap = 200 // (g.num_nodes + 1)
        kernel = {"node": "_node_block_counts", "link": "_link_block_thresholds"}[kind]
        rows = []
        sweep = getattr(montecarlo, kernel)

        def spy(*args):
            rows.append(len(args[-2] if kind == "node" else args[-1]))
            return sweep(*args)

        monkeypatch.setattr(montecarlo, kernel, spy)
        start, stop = _DRAW_BLOCK - 9, _DRAW_BLOCK + 11
        assert _count_range(kind, g, 2, start, stop) == _range_oracle_counts(kind, g, 2, start, stop)
        # the 20 runs are one draw block, swept in slices of at most cap rows
        assert cap > 1 and rows == [min(cap, 20 - i) for i in range(0, 20, cap)]


class _InProcessFork:
    """A stand-in for the fork context: a child's task runs here as it
    starts. The fixture below records the share of every child in
    `children` and every share swept, the caller's too, in `swept`."""

    children = None
    swept = None
    Pipe = staticmethod(multiprocessing.Pipe)

    class Process:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            _InProcessFork.children.append(self.args[-2:])
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass


class TestBlockChunks:
    """Estimates split into contiguous shares of ceil(runs / workers) runs,
    rounded up to whole draw blocks where runs are swept a block at a time;
    the caller sweeps the first share after starting a child for each other."""

    @pytest.fixture
    def fork(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "resolve_workers", lambda workers: workers)
        monkeypatch.setattr(_InProcessFork, "children", None)
        monkeypatch.setattr(_InProcessFork, "swept", [])

        def get_context(method):
            assert method == "fork"
            _InProcessFork.children = []
            return _InProcessFork

        count_range = montecarlo._count_range

        def spy(kind, graph, seed, start, stop):
            _InProcessFork.swept.append((start, stop))
            return count_range(kind, graph, seed, start, stop)

        monkeypatch.setattr(montecarlo.multiprocessing, "get_context", get_context)
        monkeypatch.setattr(montecarlo, "_count_range", spy)
        return _InProcessFork

    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_lone_chunk_runs_without_a_pool(self, fork, kind):
        # 600 runs at two workers round up to one draw block: nothing forks
        g = generate_er(18, 0.3, 1)
        estimate = {"node": estimate_node_cut_fractions, "link": estimate_link_cut_fractions}[kind]
        est = estimate(g, 600, 3, workers=2)
        assert fork.children is None and fork.swept == [(0, 600)]
        assert est.counts == tuple(_range_oracle_counts(kind, g, 3, 0, 600))

    def test_chunks_are_whole_draw_blocks(self, fork):
        g, expected = _boundary_oracle_counts("node", "er:18,0.3", TestBlockBoundaryParity.RUNS)
        runs = TestBlockBoundaryParity.RUNS
        blocks = [(0, _DRAW_BLOCK), (_DRAW_BLOCK, 2 * _DRAW_BLOCK), (2 * _DRAW_BLOCK, runs)]
        # ceil(runs / 2) rounds up to two draw blocks, ceil(runs / 3) to one
        for workers, shares in ((2, [(0, 2 * _DRAW_BLOCK), blocks[2]]), (3, blocks)):
            fork.swept.clear()
            assert estimate_node_cut_fractions(g, runs, 5, workers).counts == expected
            assert fork.children == shares[1:] and fork.swept == shares[1:] + shares[:1], workers
        # complete:14 has degree 13, so its node runs keep shares of ceil(runs / workers)
        for workers, shares in ((2, [(0, 40), (40, 80)]), (3, [(0, 27), (27, 54), (54, 80)])):
            fork.swept.clear()
            estimate_node_cut_fractions(complete_graph(14), 80, 5, workers)
            assert fork.children == shares[1:] and fork.swept == shares[1:] + shares[:1], workers


# one graph for each way of sweeping each kind; link runs are never "plain"
FORK_GRAPHS = [
    ("node", "numpy-start", generate_er(600, 0.01, 1)),
    ("node", "block", generate_er(18, 0.3, 1)),
    ("node", "plain", _wheel(13)),
    ("link", "numpy-start", generate_er(40, 0.35, 5)),
    ("link", "block", generate_ba(12, 3, 107)),
]
_ESTIMATE = {"node": estimate_node_cut_fractions, "link": estimate_link_cut_fractions}


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block if it runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestForkedShares:
    """Estimates whose shares are swept by the caller and by forked
    children, whatever the host's CPU count. Each test must end within two
    minutes, and no child may outlive an estimate, whether it succeeds or
    fails."""

    RUNS = 30

    @pytest.fixture(autouse=True)
    def workers_as_asked(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "resolve_workers", lambda workers: workers)
        with _deadline(120):
            yield
        assert not multiprocessing.active_children()

    def _fail_in(self, monkeypatch, failing_start, failure):
        """Make the share that starts at run `failing_start` call failure()."""
        count_range = montecarlo._count_range

        def count_or_fail(kind, graph, seed, start, stop):
            if start == failing_start:
                failure()
            return count_range(kind, graph, seed, start, stop)

        monkeypatch.setattr(montecarlo, "_count_range", count_or_fail)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kind,way,g", FORK_GRAPHS, ids=[f"{k}-{w}" for k, w, _ in FORK_GRAPHS])
    def test_counts_equal_serial(self, kind, way, g, workers):
        assert montecarlo._sweep_way(kind, g) == way
        runs = 2 * _DRAW_BLOCK + 3 if way == "block" else self.RUNS
        assert len(montecarlo._shares(runs, workers, way == "block")) == workers
        assert _ESTIMATE[kind](g, runs, 13, workers).counts == _ESTIMATE[kind](g, runs, 13, 1).counts

    def test_child_exception_reaches_caller(self, monkeypatch):
        def exhausted():
            raise MemoryError

        self._fail_in(monkeypatch, 10, exhausted)
        with pytest.raises(MemoryError) as raised:
            estimate_node_cut_fractions(complete_graph(14), self.RUNS, 1, 3)
        # the child's traceback comes along as the cause
        cause = raised.value.__cause__
        assert isinstance(cause, ChildProcessError) and "in exhausted" in str(cause)

    @pytest.mark.parametrize("failing_start", [10, 20])
    def test_dead_child_names_its_exit_code(self, monkeypatch, failing_start):
        # the child dies without sending anything: its pipe reads end of file
        self._fail_in(monkeypatch, failing_start, lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            estimate_node_cut_fractions(complete_graph(14), self.RUNS, 1, 3)

    def test_caller_exception_stops_children(self, monkeypatch):
        def fails():
            raise ValueError("the caller's share failed")

        self._fail_in(monkeypatch, 0, fails)
        with pytest.raises(ValueError, match="caller's share"):
            estimate_node_cut_fractions(complete_graph(14), self.RUNS, 1, 3)


def _run_python(code, *args):
    """The stdout of `python -c code args`, with relpoly importable and stdout a pipe."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, check=True, timeout=120).stdout


# forks as many workers as asked, whatever the host's CPU count
_AS_ASKED = "import sys\nfrom relpoly import cli, montecarlo\nmontecarlo.resolve_workers = lambda workers: workers\n"


class TestForkedOutput:
    def test_buffered_stdout_written_once(self):
        # piped stdout is block-buffered: a child that inherited the line
        # unflushed would write it again when it exits
        out = _run_python(_AS_ASKED + "print('before the estimate')\n"
                          "from relpoly import complete_graph, estimate_node_cut_fractions\n"
                          "estimate_node_cut_fractions(complete_graph(14), 40, 1, 2)\n")
        assert out == b"before the estimate\n"

    def test_cli_stdout_same_at_one_and_two_workers(self):
        argv = ["mc", "--gen", "er:600,0.01", "--gen-seed", 1, "--runs", 40, "--seed", 3, "--grid", 11]
        code = _AS_ASKED + "print('before the run')\nsys.exit(cli.main(sys.argv[1:]))\n"
        one = _run_python(code, *argv, "--workers", 1)
        assert one.startswith(b"before the run\n") and one.count(b"before") == 1
        assert _run_python(code, *argv, "--workers", 2) == one
