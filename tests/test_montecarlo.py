import math

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
    estimate_link_reliability_curve,
    estimate_node_cut_fractions,
    family_node_coefficients,
    generate_er,
    generate_lattice,
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
from relpoly.montecarlo import _count_range, _permutation, mix_seed
from oracle import (
    forward_deletion_profile,
    link_disconnection_into,
    naive_connected,
    node_disconnection_into,
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
        for profile in (node_removal_profile, link_removal_profile):
            for order in wrong_length + duplicate + out_of_range:
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


def _oracle_counts(g, seed, runs):
    """Node and link counts of runs 0..runs-1 by the plain kernels."""
    n, l = g.num_nodes, g.num_links
    node = [0] * (n + 1)
    link = [0] * (l + 1)
    for r in range(runs):
        node_disconnection_into(g.adjacency, n, _permutation(n, mix_seed(seed, r)), node)
        link_disconnection_into(g.edges(), n, l, _permutation(l, mix_seed(seed, r)), link)
    return node, link


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
        n, l = g.num_nodes, g.num_links
        node, link = _oracle_counts(g, 97, self.ORDERS)
        assert _count_range("node", g.adjacency, n, l, 97, 0, self.ORDERS) == node, label
        assert _count_range("link", g.links, n, l, 97, 0, self.ORDERS) == link, label

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
        # 120 runs are enough for two workers to split them over a pool
        node, link = _oracle_counts(g, 31, 120)
        assert estimate_node_cut_fractions(g, 120, 31, workers).counts == tuple(node)
        assert estimate_link_cut_fractions(g, 120, 31, workers).counts == tuple(link)


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

    def test_bases_agree_on_exact_fractions(self):
        coeffs = enumerate_node_coefficients(cycle_graph(7))
        for p in GRID:
            s_val = laplace_estimate(coeffs, p, basis="s")
            c_val = laplace_estimate(coeffs, p, basis="c")
            assert s_val == pytest.approx(c_val, abs=1e-12)

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

    def test_small_permutation_is_mix_seed_shuffle(self):
        # the inline shuffle below 32 elements repeats mix_seed's stream:
        # draw k of run seed s is mix_seed(s, k)
        seeds = [0, 1, (1 << 64) - 1] + [mix_seed(2024, t) for t in range(200)]
        for n in range(1, 32):
            for s in seeds:
                expected = list(range(n))
                for k, i in enumerate(range(n - 1, 0, -1)):
                    j = (mix_seed(s, k) * (i + 1)) >> 64
                    expected[i], expected[j] = expected[j], expected[i]
                assert _permutation(n, s) == expected, (n, s)
