import math

import numpy as np
import pytest

from relpoly import (
    EdgeListFormatError,
    Graph,
    complete_graph,
    cycle_graph,
    degree_distribution,
    generate_ba,
    generate_er,
    generate_lattice,
    generate_rgg,
    is_connected,
    load_edge_list,
    path_graph,
    save_edge_list,
    star_graph,
)
from oracle import union_find_component_count


class TestGraphBasics:
    def test_simple_invariants(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
        assert g.num_nodes == 4
        assert g.num_links == 3
        assert g.degrees() == (1, 2, 2, 1)
        assert sum(g.degrees()) == 2 * g.num_links

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(3, 0), (2, 0), (1, 0)])
        assert g.neighbors(0) == (1, 2, 3)
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_links_cached_and_edges_fresh(self):
        g = cycle_graph(5)
        assert g.links is g.links
        assert g.links == tuple(g.edges()) == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        edges = g.edges()
        edges.append((1, 4))
        assert g.edges() is not edges
        assert len(g.edges()) == g.num_links == len(g.links)


class TestEdgeList:
    def test_parse_path(self):
        g = load_edge_list("0 1\n1 2")
        assert (g.num_nodes, g.num_links) == (3, 2)

    def test_comment_and_reverse_duplicate(self):
        g = load_edge_list("# comment\n0 1\n1 0")
        assert (g.num_nodes, g.num_links) == (2, 1)

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListFormatError, match="line 1"):
            load_edge_list("0 0")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListFormatError, match="line 2"):
            load_edge_list("0 1\n1 x")

    def test_isolated_intermediate_ids(self):
        g = load_edge_list("0 5\n")
        assert g.num_nodes == 6
        assert g.degree(3) == 0

    def test_round_trip_normalizes(self):
        text = "# c\n2 1\n0 1\n1 2\n"
        normalized = save_edge_list(load_edge_list(text))
        assert normalized == "0 1\n1 2\n"
        assert save_edge_list(load_edge_list(normalized)) == normalized


class TestDegreeDistribution:
    def test_star_counts(self):
        d = degree_distribution(star_graph(3))
        assert d.probabilities == {1: 2 / 3, 2: 1 / 3}

    def test_cycle_counts(self):
        d = degree_distribution(cycle_graph(4))
        assert d.probabilities == {2: 1.0}

    def test_isolated_node(self):
        d = degree_distribution(Graph(1))
        assert d.probabilities == {0: 1.0}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            degree_distribution(Graph(0))
        with pytest.raises(ValueError):
            Graph(0).degree_distribution()

    def test_cached_on_the_graph(self):
        g = star_graph(5)
        d = g.degree_distribution()
        assert g.degree_distribution() is d
        assert d.degree_counts == degree_distribution(g).degree_counts

    def test_pgf_normalization(self):
        for g in (star_graph(5), cycle_graph(6), path_graph(4)):
            assert degree_distribution(g).pgf(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_pgf_values(self):
        assert degree_distribution(cycle_graph(4)).pgf(0.5) == pytest.approx(0.25)
        assert degree_distribution(star_graph(3)).pgf(0.5) == pytest.approx(5 / 12)

    def test_pgf_domain(self):
        d = degree_distribution(cycle_graph(4))
        with pytest.raises(ValueError):
            d.pgf(-0.1)
        with pytest.raises(ValueError):
            d.pgf(1.1)

    def test_pgf_matches_per_node_average(self):
        # phi_D(1-p) must equal (1/N) sum_i (1-p)^(d_i) essentially exactly
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = generate_er(n, float(rng.uniform(0.1, 0.9)), int(rng.integers(1 << 32)))
            d = degree_distribution(g)
            for p in rng.uniform(0.0, 1.0, size=20):
                z = 1.0 - float(p)
                direct = sum(z**deg for deg in g.degrees()) / n
                assert abs(d.pgf(z) - direct) < 1e-12


class TestIsConnected:
    def test_complete_subset(self):
        assert is_connected(complete_graph(3), {0, 1, 2})

    def test_path_endpoints_only(self):
        assert not is_connected(path_graph(3), {0, 2})

    def test_empty_subset_disconnected(self):
        assert not is_connected(cycle_graph(5), set())

    def test_singleton_connected(self):
        assert is_connected(cycle_graph(5), {3})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_connected(path_graph(3), {0, 7})

    def test_agrees_with_union_find(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(100):
            n = int(rng.integers(1, 25))
            g = generate_er(n, float(rng.uniform(0.0, 0.5)), int(rng.integers(1 << 32)))
            by_union_find = union_find_component_count(g) == 1
            assert is_connected(g, range(n)) == by_union_find


class TestGenerators:
    def test_er_extremes(self):
        assert generate_er(4, 1.0, 0).num_links == 6
        assert generate_er(4, 0.0, 0).num_links == 0

    def test_er_determinism(self):
        assert generate_er(40, 0.2, 123) == generate_er(40, 0.2, 123)
        assert generate_er(40, 0.2, 123) != generate_er(40, 0.2, 124)

    def test_er_mean_links(self):
        # binomial over C(1000,2) pairs: mean 4995, single-draw sd ~ 70.3
        seeds = range(100)
        mean_links = sum(generate_er(1000, 0.01, s).num_links for s in seeds) / 100
        sd = math.sqrt(math.comb(1000, 2) * 0.01 * 0.99)
        assert abs(mean_links - 4995) < 4 * sd / math.sqrt(100)

    def test_rgg_extremes(self):
        full = generate_rgg(5, math.sqrt(2) + 1e-9, 3)
        assert full.num_links == 10
        assert generate_rgg(5, 0.0, 3).num_links == 0

    def test_rgg_negative_radius(self):
        with pytest.raises(ValueError):
            generate_rgg(5, -0.1, 0)

    def test_rgg_mean_degree_bracket(self):
        # area argument: pi r^2 (N-1), shaved down by boundary losses
        n, r = 500, 0.1
        target = math.pi * r * r * (n - 1)
        degs = []
        for seed in range(30):
            g = generate_rgg(n, r, seed)
            degs.append(2 * g.num_links / n)
        mean = sum(degs) / len(degs)
        assert 0.6 * target <= mean <= 1.0 * target

    def test_rgg_determinism(self):
        assert generate_rgg(30, 0.3, 5) == generate_rgg(30, 0.3, 5)

    def test_ba_link_count(self):
        g = generate_ba(1000, 3, 11)
        assert g.num_links == 3 + 3 * 997

    def test_ba_two_nodes(self):
        g = generate_ba(2, 1, 0)
        assert g.edges() == [(0, 1)]

    def test_ba_min_degree(self):
        g = generate_ba(50, 4, 2)
        assert min(g.degrees()) >= 4

    def test_ba_size_validation(self):
        with pytest.raises(ValueError):
            generate_ba(3, 3, 0)

    def test_ba_determinism(self):
        assert generate_ba(60, 2, 9) == generate_ba(60, 2, 9)

    def test_lattice_2d(self):
        g = generate_lattice((2, 3))
        assert (g.num_nodes, g.num_links) == (6, 7)

    def test_lattice_3d(self):
        g = generate_lattice((2, 2, 2))
        assert (g.num_nodes, g.num_links) == (8, 12)

    def test_lattice_degenerate_is_path(self):
        assert generate_lattice((1, 5)) == path_graph(5)

    def test_lattice_dimension_validation(self):
        with pytest.raises(ValueError):
            generate_lattice((4,))
        with pytest.raises(ValueError):
            generate_lattice((2, 2, 2, 2))

    def test_generators_yield_simple_graphs(self):
        for g in (
            generate_er(30, 0.3, 1),
            generate_rgg(30, 0.3, 1),
            generate_ba(30, 3, 1),
            generate_lattice((4, 5)),
        ):
            assert all(u != v for u, v in g.edges())
            assert len(set(g.edges())) == g.num_links
            assert sum(g.degrees()) == 2 * g.num_links
