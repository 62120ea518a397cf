import itertools
import json
import math
import tracemalloc

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
from relpoly import graph as graph_module
from relpoly.graph import _row_blocks
from oracle import triu_er, triu_rgg, union_find_component_count


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

    @pytest.mark.parametrize("link", [(0.0, 1), (0, 1.0), (0, 1.5), ("0", 1), (None, 1), 5],
                             ids=["float-head", "float-tail", "fraction", "str", "none", "not-a-pair"])
    def test_rejects_non_integer_ids(self, link):
        with pytest.raises(ValueError, match="integer node ids"):
            Graph(3, [link])

    def test_numpy_ids_stored_as_int(self):
        g = Graph(3, [(np.int64(0), np.int64(2)), (np.uint8(1), 2)])
        assert g.edges() == [(0, 2), (1, 2)]
        assert all(type(v) is int for link in g.edges() for v in link)
        assert all(type(v) is int for nbrs in g.adjacency for v in nbrs)
        assert json.loads(json.dumps(g.edges())) == [[0, 2], [1, 2]]

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


class TestWithLinks:
    def test_adds_and_collapses_duplicates(self):
        g = path_graph(5)
        added = [(4, 0), (1, 3), (0, 4), (3, 1), (0, 1)]
        h = g.with_links(added)
        assert h == Graph(5, g.edges() + added)
        assert h.num_links == 6 and h.edges() == Graph(5, g.edges() + added).edges()
        assert g == path_graph(5) and g.num_links == 4  # the base graph is unchanged

    def test_fresh_caches(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not g.is_connected() and g.links and g.degree_distribution()
        h = g.with_links([(1, 2)])
        assert h.is_connected()
        assert h.links == ((0, 1), (1, 2), (2, 3))
        assert h.degree_distribution().degree_counts == {1: 2, 2: 2}

    def test_numpy_ids_stored_as_int(self):
        h = Graph(3).with_links([(np.int64(0), np.uint8(2))])
        assert all(type(v) is int for nbrs in h.adjacency for v in nbrs)

    @pytest.mark.parametrize("link", [(1, 1), (0, 5), (-1, 2), (0.0, 1), ("0", 1), 5],
                             ids=["self-loop", "out-of-range", "negative", "float", "str", "not-a-pair"])
    def test_same_errors_as_the_constructor(self, link):
        g = cycle_graph(5)
        with pytest.raises(ValueError) as expected:
            Graph(5, g.edges() + [(0, 2), link])
        with pytest.raises(ValueError) as got:
            g.with_links([(0, 2), link])
        assert str(got.value) == str(expected.value)


class TestEdgeList:
    def test_parse_path(self):
        g = load_edge_list("0 1\n1 2")
        assert (g.num_nodes, g.num_links) == (3, 2)

    def test_comment_and_reverse_duplicate(self):
        g = load_edge_list("# comment\n0 1\n1 0")
        assert (g.num_nodes, g.num_links) == (2, 1)
        # shuffled lines, each link repeated in both orientations
        links = generate_er(30, 0.2, 5).edges()
        lines = [f"{u} {v}" for u, v in links] + [f"{v} {u}" for u, v in links] * 2
        np.random.Generator(np.random.PCG64(5)).shuffle(lines)
        unique = "".join(f"{u} {v}\n" for u, v in links)
        assert save_edge_list(load_edge_list("\n".join(lines))) == unique

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

    @pytest.mark.parametrize(
        "dims",
        list(itertools.product(range(1, 6), repeat=2)) + list(itertools.product(range(1, 4), repeat=3)),
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_lattice_matches_networkx(self, dims):
        import networkx as nx

        # grid_graph lists the axes last first; sorted node tuples are then
        # the row-major order of `dims`
        grid = nx.convert_node_labels_to_integers(nx.grid_graph(dim=dims[::-1]), ordering="sorted")
        assert generate_lattice(dims) == Graph(grid.number_of_nodes(), grid.edges())

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


def _generator_corpus():
    """(N, p_l, r, seed) cases for the block generators against the oracles:
    every N up to 12, N that span several blocks, p_l and r at both extremes
    (r > sqrt 2 links every pair) and at random, and dense p_l and r."""
    rng = np.random.Generator(np.random.PCG64(606))
    cases = []
    for n in list(range(1, 13)) + [100, 724, 725, 1023, 1500, 2048]:
        seed = int(rng.integers(1 << 63))
        cases.append(pytest.param(n, 0.0, 0.0, seed, id=f"N{n}-empty"))
        if n <= 725:  # complete graphs: two blocks at N = 725
            cases.append(pytest.param(n, 1.0, 1.5, seed, id=f"N{n}-complete"))
        # random p_l and r; sparse above N = 100 to keep the graphs cheap
        scale = 1.0 if n <= 100 else 10.0 / n
        pl, r = scale * float(rng.random()), math.sqrt(2 * scale) * float(rng.random())
        cases.append(pytest.param(n, pl, r, seed, id=f"N{n}-random"))
    # dense graphs, and sparse RGG strips of several blocks (about 3 at N = 2048)
    for n, pl, r, label in ((1500, 0.3, 0.3, "dense"), (1000, 0.6, 1.0, "r1"), (2048, 0.01, 0.15, "strips")):
        cases.append(pytest.param(n, pl, r, 1000 + n, id=f"N{n}-{label}"))
    return cases


class TestBlockGenerators:
    @pytest.mark.parametrize("n, pl, r, seed", _generator_corpus())
    def test_equal_to_triu_oracles(self, n, pl, r, seed):
        assert generate_er(n, pl, seed) == triu_er(n, pl, seed)
        assert generate_rgg(n, r, seed) == triu_rgg(n, r, seed)

    @staticmethod
    def _check_blocks(ends, block):
        """The blocks of _row_blocks(ends) hold every pair (i, j < ends[i]) in
        order, in whole rows, each nonempty and within `block` pairs unless
        it holds a single nonempty row."""
        iu, ju = np.triu_indices(len(ends), k=1)
        mask = ju < ends[iu]
        blocks = list(_row_blocks(ends))
        heads, tails = [iu[:0]], [ju[:0]]
        for count, pair_of in blocks:
            bi, bj = pair_of()
            heads.append(bi)
            tails.append(bj)
            assert 0 < count == bi.size == bj.size
            assert bj[0] == bi[0] + 1 and bj[-1] == ends[bi[-1]] - 1  # starts and ends a row
            assert count <= block or bi[0] == bi[-1]  # over the block only as one row
            # any offsets map to the same pairs as the whole block
            offsets = np.flatnonzero(np.arange(count) % 3 != 1)
            oi, oj = pair_of(offsets)
            assert np.array_equal(oi, bi[offsets]) and np.array_equal(oj, bj[offsets])
        assert np.array_equal(np.concatenate(heads), iu[mask])
        assert np.array_equal(np.concatenate(tails), ju[mask])
        return blocks

    @pytest.mark.parametrize("block", [1, 6, 117, 2997, graph_module._PAIR_BLOCK])
    def test_pair_blocks_are_whole_rows_in_order(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        for n in (1, 2, 3, 5, 60, 1500):
            self._check_blocks(np.full(n, n), block)

    @pytest.mark.parametrize("block", [1, 6, 117])
    def test_ragged_rows(self, monkeypatch, block):
        # empty rows anywhere, rows longer than the block, and rows that end early
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        rng = np.random.Generator(np.random.PCG64(block))
        for n in (1, 2, 7, 40, 300):
            ids = np.arange(n)
            for ends in (ids + 1, np.where(ids % 2, ids + 1, n), np.where(ids % 5 == 3, n, ids + 1),
                         ids + 1 + rng.integers(0, n - ids), np.minimum(ids + 2, n)):
                self._check_blocks(ends, block)
        assert list(_row_blocks(np.arange(1, 6))) == []

    @pytest.mark.parametrize("block, n", [(6, 5), (117, 60), (2997, 1500)])
    def test_block_full_at_a_row_end(self, monkeypatch, block, n):
        # rows hold n-1, n-2, ... pairs; here some run of rows fills a block exactly
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        assert block in [count for count, _ in self._check_blocks(np.full(n, n), block)]
        cases = [(min(1.0, 10 / n), min(1.5, 3 / math.sqrt(n)))] + [(1.0, 1.5)] * (n <= 100)
        for pl, r in cases:
            assert generate_er(n, pl, 7) == triu_er(n, pl, 7)
            assert generate_rgg(n, r, 7) == triu_rgg(n, r, 7)

    @pytest.mark.parametrize("r", [0.1, 1 / 3], ids=["r0.1", "r0.333"])
    def test_rgg_strip_edges_on_crafted_points(self, monkeypatch, r):
        # points on both sides of the strip's edge, tied x values, and (for
        # r = 0.1) pairs whose dx*dx + dy*dy rounds to exactly r*r
        pts = []
        for k, b in enumerate((0.0, 0.1, 0.3, 1 / 3, 0.55)):
            y = 0.125 + 0.17 * k
            pts.append((b, y))
            for gap in (r, math.nextafter(r, 0), math.nextafter(r, math.inf)):
                pts += [(b + gap, y), (math.nextafter(b + gap, 0), y), (math.nextafter(b + gap, 1), y)]
        pts += [(0.5, 0.1), (0.5, 0.15), (0.5, 0.2), (0.55, 0.1), (0.9, 0.95), (0.9, 0.95 - r)]
        pts += [(0.0, 0.0), (0.08, 0.060000000000000005), (0.06, 0.08000000000000002)]
        pts = np.array(pts)[np.random.Generator(np.random.PCG64(3)).permutation(len(pts))]

        class FixedPoints:
            def random(self, shape):
                assert shape == pts.shape
                return pts.copy()

        monkeypatch.setattr(graph_module, "_seeded_generator", lambda seed: FixedPoints())
        n = len(pts)
        brute = []
        for i, j in itertools.combinations(range(n), 2):
            dx, dy = pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]
            brute.append(dx * dx + dy * dy)
        brute = np.array(brute)
        if r == 0.1:
            assert np.count_nonzero(brute == r * r) >= 2
        # the strip's edge: pairs at distance about r along x alone, on both sides
        assert np.count_nonzero(brute < r * r) and np.count_nonzero(np.abs(brute - r * r) < 1e-15)
        links = [pair for pair, d2 in zip(itertools.combinations(range(n), 2), brute) if d2 < r * r]
        assert generate_rgg(n, r, 0).edges() == links

    def test_large_generators_trace_little_memory(self):
        # the degree-large benchmark graphs; all pairs at once traced 298 and 572 MiB
        n = 5000
        pl = 1.5 * math.log(n) / n
        for generate, x in ((generate_er, pl), (generate_rgg, math.sqrt(pl / math.pi))):
            tracemalloc.start()
            try:
                generate(n, x, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, (generate.__name__, peak)
