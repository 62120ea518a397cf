import collections
import itertools
import json
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction

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
    load_edge_list,
    path_graph,
    save_edge_list,
    star_graph,
)
from relpoly import ConnectivityWarning, approx, kgrip
from relpoly import graph as graph_module
from relpoly.graph import FAMILIES, _row_blocks
import oracle
from conftest import CORPUS
from oracle import naive_connected, set_adjacency, set_graph, triu_er, triu_rgg, union_find_component_count


_GRID = tuple(k / 20 for k in range(21))


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
        assert g.link_ends is g.link_ends
        assert list(zip(*g.link_ends.tolist())) == g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        edges = g.edges()
        edges.append((1, 4))
        assert g.edges() is not edges
        assert len(g.edges()) == g.num_links

    @pytest.mark.parametrize("n, links", [
        (5, [(1, 0), (1, 2), (3, 2), (4, 3), (0, 4)]), (0, []), (3, []), (6, [(4, 1), (0, 5), (2, 1)]),
        (300, [(v, u) for u, v in generate_er(300, 0.05, 2).edges()][::-1]),
    ], ids=["cycle:5", "empty", "no-links", "isolated", "er:300"])
    def test_link_ends_built_once_read_only_and_equal_to_links(self, n, links):
        g = Graph(n, links)
        assert g._ends is None  # built on first use
        ends = g.link_ends
        assert g.link_ends is ends and g._adj is None  # once, and with no per-node tuple
        assert ends.dtype == np.int64 and ends.shape == (2, g.num_links)
        assert list(zip(*ends.tolist())) == sorted({(min(u, v), max(u, v)) for u, v in links}) == g.edges()
        assert not ends.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ends[0, 0:1] = 0

    def test_pickle_sends_the_csr_pair_only(self, corpus):
        # a pickled graph carries its CSR pair as stored, and the unpickled
        # one builds its caches on first use: for every corpus graph, one
        # pickled after its caches were built, one with no nodes and one
        # with trailing isolated nodes
        built = generate_er(200, 0.05, 4)
        assert built.link_ends.size and built.is_connected() and built.adjacency and built.degree_distribution()
        for g in [g for _, g in corpus] + [built, Graph(0), Graph(10, [(0, 1), (2, 3)])]:
            h = pickle.loads(pickle.dumps(g))
            assert h._bounds.dtype == h._nbrs.dtype == np.int64
            assert not h._bounds.flags.writeable and not h._nbrs.flags.writeable
            assert h._adj is None and h._ends is None and h._connected is None and h._degrees is None
            assert h == g and hash(h) == hash(g) and (h.num_nodes, h.num_links) == (g.num_nodes, g.num_links)
            assert h.edges() == g.edges() and h.is_connected() == g.is_connected() and h.adjacency == g.adjacency
            assert h.link_ends is h.link_ends and not h.link_ends.flags.writeable
            assert np.array_equal(h.link_ends, g.link_ends)


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
        assert not g.is_connected() and g.link_ends.size and g.degree_distribution()
        h = g.with_links([(1, 2)])
        assert h.is_connected()
        assert h.link_ends.tolist() == [[0, 1, 2], [1, 2, 3]]
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


_LATTICE_DIMS = ((1, 1), (1, 6), (7, 9), (2, 2, 2), (3, 4, 5))


def _lattice_links(dims):
    """Links of the grid graph on `dims`, numbered in row-major order."""
    coords = list(itertools.product(*map(range, dims)))
    ids = {c: k for k, c in enumerate(coords)}
    return [(ids[c], ids[c[:a] + (c[a] + 1,) + c[a + 1:]])
            for c in coords for a in range(len(dims)) if c[a] + 1 < dims[a]]


def _builder_corpus():
    """(N, links) cases for the adjacency builder against the set oracle."""
    cases = [pytest.param(0, [], id="N0"), pytest.param(1, [], id="N1"),
             pytest.param(10, [(0, 1), (3, 2)], id="N10-trailing-isolated")]
    for dims in _LATTICE_DIMS:
        cases.append(pytest.param(math.prod(dims), _lattice_links(dims), id="lattice-" + "x".join(map(str, dims))))
    graphs = [("er-trailing-isolated", generate_er(100, 0.01, 6)), ("er", generate_er(300, 0.05, 3)),
              ("rgg", generate_rgg(300, 0.1, 2)), ("ba", generate_ba(200, 3, 4))]
    graphs += [(f"{name}-{n}", builder(n)) for name, (builder, low, _) in FAMILIES.items() for n in (low, 9)]
    cases += [pytest.param(g.num_nodes, g.edges(), id=label) for label, g in graphs]
    return cases


class TestAdjacencyBuilder:
    @pytest.mark.parametrize("n, links", _builder_corpus())
    def test_equal_to_set_oracle(self, n, links):
        # every link in both orientations, half of them once more, shuffled
        mixed = links + [(v, u) for u, v in links] + links[: len(links) // 2]
        mixed = [mixed[k] for k in np.random.Generator(np.random.PCG64(n)).permutation(len(mixed))]
        expected = set_adjacency(n, links)
        assert set_adjacency(n, mixed) == expected
        g = Graph(n, mixed)
        assert g.adjacency == expected and g.num_nodes == n
        assert all(type(v) is int for nbrs in g.adjacency for v in nbrs)
        assert Graph(n, [(np.int64(u), np.uint16(v)) for u, v in mixed]).adjacency == expected
        heads = np.array([u for u, _ in mixed], dtype=np.int64)
        tails = np.array([v for _, v in mixed], dtype=np.int64)
        bounds, nbrs = graph_module._adjacency(n, heads, tails)
        assert bounds.dtype == nbrs.dtype == np.int64 and bounds.shape == (n + 1,)
        assert tuple(tuple(nbrs[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])) == expected
        # every reader of the arrays agrees with the oracle's tuples
        assert g.degrees() == tuple(map(len, expected)) and g.num_links == sum(map(len, expected)) // 2
        assert all(g.neighbors(v) == nbrs_v and g.degree(v) == len(nbrs_v) for v, nbrs_v in enumerate(expected))
        assert g.edges() == [(u, v) for u, nbrs_u in enumerate(expected) for v in nbrs_u if u < v]
        assert all(g.has_link(u, v) and g.has_link(v, u) for u, v in links)
        assert not any(g.has_link(u, v) for u in range(min(n, 12)) for v in range(min(n, 12))
                       if v not in expected[u])

    @pytest.mark.parametrize("n, links", _builder_corpus())
    def test_equality_hash_and_pickle(self, n, links):
        g = Graph(n, links[::-1])
        oracle = set_graph(n, links)
        assert g == oracle and hash(g) == hash(oracle)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back.num_nodes == n and back.adjacency == oracle.adjacency
        # one more trailing isolated node, or one link fewer, is another graph
        assert g != Graph(n + 1, links) and g != oracle.adjacency
        if links:
            assert g != Graph(n, links[1:])

    @pytest.mark.parametrize("n, links", _builder_corpus())
    def test_with_links_equal_to_set_oracle(self, n, links):
        half = len(links) // 2
        g = Graph(n, links[:half]).with_links([(v, u) for u, v in links[half // 2:]])
        assert g == set_graph(n, links) and g.num_links == len({frozenset(link) for link in links})

    @pytest.mark.parametrize("dims", _LATTICE_DIMS, ids=lambda dims: "x".join(map(str, dims)))
    def test_lattice_equal_to_set_oracle(self, dims):
        assert generate_lattice(dims) == set_graph(math.prod(dims), _lattice_links(dims))


class _NoLoop(str):
    """Text whose splitlines fails: load_edge_list reads it only by its bulk path."""

    def splitlines(self, *args, **kwargs):
        raise AssertionError("per-line loop")


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

    @pytest.mark.parametrize("text", ["10000000000000000000 1\n", "0 1\n1 9223372036854775808\n"],
                             ids=["line-1", "line-2"])
    def test_id_beyond_int64_names_its_line(self, text):
        with pytest.raises(EdgeListFormatError, match=f"line {text.count(chr(10))}: node id .* int64"):
            load_edge_list(text)

    def test_isolated_intermediate_ids(self):
        g = load_edge_list("0 5\n")
        assert g.num_nodes == 6
        assert g.degree(3) == 0

    @pytest.mark.parametrize("g", [generate_er(100, 0.01, 6), generate_er(300, 0.02, 3), generate_rgg(300, 0.08, 5),
                                   generate_rgg(200, 0.05, 14), generate_lattice((7, 9)), generate_lattice((3, 4, 5)),
                                   Graph(1)],
                             ids=["er-trailing-isolated", "er", "rgg", "rgg-trailing-isolated", "lattice-7x9",
                                  "lattice-3x4x5", "N1"])
    def test_bulk_path_equals_the_loop(self, g):
        text = save_edge_list(g)
        bulk = load_edge_list(_NoLoop(text))
        assert bulk == g and bulk.num_nodes == g.num_nodes
        for variant in ("# c\n" + text, text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            with pytest.raises(AssertionError, match="per-line loop"):
                load_edge_list(_NoLoop(variant))
            loop = load_edge_list(variant)
            assert loop == bulk and loop.num_nodes == bulk.num_nodes

    @pytest.mark.parametrize("text, n, links", [
        ("", 0, []),
        ("0 1\n1 2", 3, [(0, 1), (1, 2)]),
        ("007 0010\n", 11, [(7, 10)]),
        ("000000000000000001 000000000000000002\n000000000000000123 000000000000000004\n", 124, [(1, 2), (4, 123)]),
        ("# nodes 6\n0 1\n", 6, [(0, 1)]),
        ("# nodes 000006\n1 0\n", 6, [(0, 1)]),
    ], ids=["empty", "no-final-newline", "leading-zeros", "18-digits", "nodes-header", "nodes-header-zeros"])
    def test_edge_cases_both_paths(self, text, n, links):
        for t in (text, "# c\n" + text):
            g = load_edge_list(t)
            assert g == Graph(n, links) and g.num_nodes == n

    @pytest.mark.parametrize("k", [1, 2, 17, 40])
    def test_self_loop_in_saved_text_keeps_its_line(self, k):
        lines = save_edge_list(generate_er(30, 0.2, 5)).splitlines(keepends=True)
        assert len(lines) >= 40
        lines.insert(k - 1, "7 7\n")
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list("".join(lines))
        assert str(err.value) == f"line {k}: self-loop 7 7 not allowed"

    def test_nodes_header_keeps_trailing_isolated_nodes(self):
        g = generate_er(100, 0.01, 6)
        assert g.num_nodes == 100 and g.degree(99) == 0
        text = save_edge_list(g)
        assert text.startswith("# nodes 100\n") and text.count("#") == 1
        assert load_edge_list(text) == g
        assert save_edge_list(Graph(1)) == "# nodes 1\n" and load_edge_list("# nodes 1\n") == Graph(1)
        assert save_edge_list(Graph(0)) == "" and load_edge_list("") == Graph(0)
        # node N-1 has a link: no header
        assert save_edge_list(Graph(4, [(3, 0)])) == "0 3\n"

    @pytest.mark.parametrize("block", [1, 2, 5, 1 << 18])
    @pytest.mark.parametrize("g", [
        Graph(0), Graph(1), Graph(2, [(0, 1)]), Graph(8, [(4, 0), (0, 1), (2, 3), (1, 4)]), star_graph(9),
        generate_er(100, 0.01, 6), generate_rgg(60, 0.3, 2), generate_lattice((4, 5)),
    ], ids=["N0", "N1", "N2", "trailing-isolated", "star-9", "er-trailing-isolated", "rgg", "lattice-4x5"])
    def test_blocks_equal_one_format(self, monkeypatch, g, block):
        # save_edge_list formats a block of whole nodes of about _PAIR_BLOCK
        # links at a time; star-9's centre alone holds more than a small block
        n = g.num_nodes
        one = (f"# nodes {n}\n" if n and not g.degree(n - 1) else "") + "".join(f"{u} {v}\n" for u, v in g.edges())
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        assert save_edge_list(g) == one
        assert load_edge_list(one) == g

    @pytest.mark.parametrize("text, message", [
        ("# nodes 3\n0 1\n1 3\n", "line 3: node id 3 out of range for 3 nodes"),
        ("# c\n# nodes 3\n5 1\n", "line 3: node id 5 out of range for 3 nodes"),
        ("0 1\n# nodes 3\n", "line 2: '# nodes' must come once, before the first link"),
        ("# nodes 3\n# nodes 4\n0 1\n", "line 2: '# nodes' must come once, before the first link"),
    ], ids=["bulk-form", "loop", "after-a-link", "twice"])
    def test_nodes_header_errors(self, text, message):
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("# nodes 10000000000000000000\n0 1\n", "line 1: node count 10000000000000000000 does not fit in int64"),
        ("# nodes 10000001\n0 1\n", "line 1: node count 10000001 is above the limit of 10000000"),
        ("# c\n# nodes 10000001\n0 1\n", "line 2: node count 10000001 is above the limit of 10000000"),
        ("0 1\n10000000000 1\n", "line 2: node id 10000000000 needs more nodes than the limit of 10000000"),
        ("# c\n1 10000000\n", "line 2: node id 10000000 needs more nodes than the limit of 10000000"),
    ], ids=["nodes-beyond-int64", "nodes-bulk-form", "nodes-loop", "id-bulk-form", "id-loop"])
    def test_node_count_above_limit_refused_before_allocation(self, text, message):
        assert graph_module.MAX_EDGE_LIST_NODES == 10**7
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListFormatError) as err:
                load_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 1 << 20

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

    def test_counts_equal_a_per_node_count(self):
        for g in (case.values[0] for case in _SAVED_FORM_CORPUS):
            assert degree_distribution(g).degree_counts == collections.Counter(g.degrees())

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
        assert complete_graph(3).is_connected()

    def test_empty_subset_disconnected(self):
        # no nodes at all: disconnected by convention
        assert not Graph(0).is_connected()

    def test_singleton_connected(self):
        assert Graph(1).is_connected()

    def test_trailing_isolated_node(self):
        links = [(0, 1), (1, 2), (2, 3)]
        assert not Graph(5, links).is_connected()
        assert Graph(4, links).is_connected()

    def test_long_path_is_iterative(self):
        # a recursive walk would pass Python's recursion limit here
        assert path_graph(100_000).is_connected()
        assert not Graph(100_000, path_graph(99_999).edges()).is_connected()

    @pytest.mark.parametrize("n, links", _builder_corpus())
    def test_agrees_with_naive_oracle(self, n, links):
        g = Graph(n, links)
        assert g.is_connected() == naive_connected(g, range(n))

    @pytest.mark.parametrize("n, links", [
        (0, []), (1, []), (2, []), (7, []),
        (9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]),
        (8, [(0, 7), (7, 2), (2, 5), (1, 6), (6, 3), (3, 4)]),
        (6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 0)]),
    ], ids=["N0", "N1", "two-isolated", "all-isolated", "path-and-cycle", "interleaved-ids", "two-triangles"])
    def test_small_cases_against_oracles(self, n, links):
        import networkx as nx

        g = Graph(n, links)
        assert g.is_connected() == naive_connected(set_graph(n, links), range(n)) == (n == 1)
        if n:  # networkx has no connectivity for the null graph
            full = nx.Graph()
            full.add_nodes_from(range(n))
            full.add_edges_from(links)
            assert g.is_connected() == nx.is_connected(full)

    def test_random_sparse_er_against_networkx(self):
        import networkx as nx

        rng = np.random.Generator(np.random.PCG64(23))
        seen = set()
        for _ in range(60):
            n = int(rng.integers(10, 400))
            g = generate_er(n, float(rng.uniform(0.5, 4.0)) * math.log(n) / n, int(rng.integers(1 << 32)))
            full = nx.Graph()
            full.add_nodes_from(range(n))
            full.add_edges_from(g.edges())
            seen.add(g.is_connected())
            assert g.is_connected() == nx.is_connected(full) == naive_connected(g, range(n))
        assert seen == {False, True}

    def test_agrees_with_union_find(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(100):
            n = int(rng.integers(1, 25))
            g = generate_er(n, float(rng.uniform(0.0, 0.5)), int(rng.integers(1 << 32)))
            by_union_find = union_find_component_count(g) == 1
            assert g.is_connected() == by_union_find


def _residuals(g, seed):
    """Node and link residuals of g under two drawn removal orders, each
    removing about 10%, 30%, 50% and 70% of the nodes or links, as the
    (n, heads, tails) that the Monte Carlo runs label: every node stays, and
    only the kept links join them."""
    n, (heads, tails) = g.num_nodes, g.link_ends
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = []
    for _ in range(2):
        pos = np.empty(n, np.int64)
        pos[rng.permutation(n)] = np.arange(n)
        link_order = rng.permutation(g.num_links)
        for share in (0.1, 0.3, 0.5, 0.7):
            kept = np.minimum(pos[heads], pos[tails]) >= int(share * n)
            cases.append((n, heads[kept], tails[kept]))
            kept = link_order[int(share * g.num_links):]
            cases.append((n, heads[kept], tails[kept]))
    return cases


def _label_cases():
    lattice = generate_lattice((30, 30))
    heads, tails = lattice.link_ends
    ids = np.random.Generator(np.random.PCG64(5)).permutation(2000)
    cases = [(name, (g.num_nodes, *g.link_ends)) for name, g in CORPUS if name.startswith("er:")]
    cases += [(f"er:1000,0.014 residual {k}", c) for k, c in enumerate(_residuals(generate_er(1000, 0.014, 0), 3))]
    cases += [(f"lattice:30x30 residual {k}", c) for k, c in enumerate(_residuals(lattice, 4))]
    return cases + [
        ("path with shuffled ids", (2000, ids[:-1], ids[1:])),
        ("lattice and an isolated top node", (901, heads, tails)),
        ("lattice and a star on its top ids", (911, np.append(heads, [900] * 10), np.append(tails, np.arange(901, 911)))),
        ("repeated and reversed links", (7, np.array([0, 1, 0, 5, 3, 6, 3, 5]), np.array([1, 0, 1, 3, 5, 3, 6, 3]))),
        ("one node", (1, np.array([], np.int64), np.array([], np.int64))),
    ]


_LABEL_CASES = _label_cases()


class TestLabelComponents:
    """graph._label_components against networkx's connected components."""

    @pytest.mark.parametrize("n, heads, tails", [c for _, c in _LABEL_CASES], ids=[name for name, _ in _LABEL_CASES])
    def test_smallest_id_of_each_component(self, n, heads, tails):
        import networkx as nx

        full = nx.Graph()
        full.add_nodes_from(range(n))
        full.add_edges_from(zip(heads.tolist(), tails.tolist()))
        smallest = np.empty(n, np.int64)
        for component in nx.connected_components(full):
            smallest[list(component)] = min(component)
        labels = graph_module._label_components(n, heads, tails)
        assert labels.tolist() == smallest.tolist()
        assert (labels[labels] == labels).all()


class TestDegreeOperationsBuildNoTuples:
    """The degree-based operations read the CSR arrays alone."""

    def test_load_approx_kgrip_save_and_connectivity(self):
        n = 600
        pl = 1.5 * math.log(n) / n
        sources = [generate_er(n, pl, 1), generate_rgg(n, math.sqrt(pl / math.pi), 1)]
        graphs = []
        for source in sources:
            text = save_edge_list(source)
            g = load_edge_list(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConnectivityWarning)
                approx.stochastic_node_curve(g, _GRID)
                approx.stochastic_link_curve(g, _GRID)
            [approx.arithmetic_upper_bound(g, p) for p in _GRID]
            [approx.geometric_upper_bound(g, p) for p in _GRID]
            plans = [kgrip.greedy_lowest_degree_addition(g, 20), kgrip.random_pairing_addition(g, 20, 7),
                     kgrip.highest_degree_addition(g, 20)]
            for new, _ in plans:
                kgrip.objective(new, 0.5)
                save_edge_list(new)
                new.is_connected()
            assert save_edge_list(g) == text and g == source and g.is_connected() == source.is_connected()
            graphs += [source, g] + [new for new, _ in plans]
        assert all(h._adj is None for h in graphs)


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
    def _check_blocks(starts, ends, block):
        """The blocks of _row_blocks(starts, ends) hold every pair (i, j) with
        starts[i] <= j < ends[i] in order, in whole rows, each nonempty and
        within `block` pairs unless it holds a single nonempty row."""
        width = int(np.max(ends, initial=0))
        iu, ju = np.divmod(np.arange(len(ends) * width), width or 1)  # every i and j < max(ends)
        mask = (starts[iu] <= ju) & (ju < ends[iu])
        blocks = list(_row_blocks(starts, ends))
        heads, tails = [iu[:0]], [ju[:0]]
        for count, pair_of in blocks:
            bi, bj = pair_of()
            heads.append(bi)
            tails.append(bj)
            assert 0 < count == bi.size == bj.size
            assert bj[0] == starts[bi[0]] and bj[-1] == ends[bi[-1]] - 1  # starts and ends a row
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
            self._check_blocks(np.arange(1, n + 1), np.full(n, n), block)

    @pytest.mark.parametrize("block", [1, 6, 117])
    def test_ragged_rows(self, monkeypatch, block):
        # empty rows anywhere, rows longer than the block, and rows that end early
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        rng = np.random.Generator(np.random.PCG64(block))
        for n in (1, 2, 7, 40, 300):
            ids = np.arange(n)
            for ends in (ids + 1, np.where(ids % 2, ids + 1, n), np.where(ids % 5 == 3, n, ids + 1),
                         ids + 1 + rng.integers(0, n - ids), np.minimum(ids + 2, n)):
                self._check_blocks(ids + 1, ends, block)
        assert list(_row_blocks(np.arange(1, 6), np.arange(1, 6))) == []

    @pytest.mark.parametrize("block", [1, 6, 117])
    def test_ragged_starts(self, monkeypatch, block):
        # rows that start anywhere, before i, at i + 1 or past it, empty rows
        # between and after them, and rows longer than the block
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        rng = np.random.Generator(np.random.PCG64(block + 1))
        for n in (1, 2, 7, 40, 300):
            ids = np.arange(n)
            starts = rng.integers(0, n + 1, n)
            for starts, ends in ((starts, rng.integers(starts, n + 1)), (starts, starts),
                                 (np.minimum(ids + 3, n), np.full(n, n)), (ids // 2, np.maximum(ids, 1)),
                                 (np.where(ids % 3, n, 0), np.full(n, n))):
                self._check_blocks(starts, ends, block)
        long_rows = self._check_blocks(np.array([0, 3, 3, 1]), np.array([0, 3, 300, 300]), block)
        assert [count for count, _ in long_rows][-2:] == [297, 299]
        assert list(_row_blocks(np.arange(2, 7), np.arange(2, 7))) == []

    @pytest.mark.parametrize("block, n", [(6, 5), (117, 60), (2997, 1500)])
    def test_block_full_at_a_row_end(self, monkeypatch, block, n):
        # rows hold n-1, n-2, ... pairs; here some run of rows fills a block exactly
        monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
        assert block in [count for count, _ in self._check_blocks(np.arange(1, n + 1), np.full(n, n), block)]
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

    @pytest.mark.parametrize("r", [0.1, 0.25, 1 / 3, 0.45], ids=["r0.1", "r0.25", "r0.333", "r0.45"])
    def test_rgg_band_edges_on_crafted_points(self, monkeypatch, r):
        # y on the band edges k*h, on k*r, on the edges of bands one 2^-52
        # step lower than h (too low to keep every linked pair within two
        # bands), and one ulp either side; pairs across an edge whose dy is
        # within an ulp of r; and x ties at both ends of the next band's
        # range, x - r and x + r, and an ulp either side
        h = Fraction(math.ceil(math.ldexp(r, 52)), 1 << 52)  # the band height: 2^-52 steps, at least r
        edges = [float(k * h) for k in (1, 2, 3)] + [k * r for k in (1, 2)]
        edges += [float(k * (h - Fraction(1, 1 << 52))) for k in (1, 2)]

        def up(v):
            return math.nextafter(v, math.inf)

        def down(v):
            return math.nextafter(v, -math.inf)

        x, pts = 0.4, []
        for edge in edges:
            for y in (down(edge), edge, up(edge)):
                pts.append((x, y))
                for dy in (r, down(r), up(r)):
                    pts += [(x, y + dy), (x, down(y + dy)), (x, up(y + dy)), (x, y - dy), (x, up(y - dy))]
            for gap in (r, down(r), up(r)):
                for end in (x - gap, x + gap):
                    for xt in (down(end), end, up(end)):
                        pts += [(xt, edge), (xt, up(edge)), (xt, edge + r / 4)]
        pts = np.array([(x, y) for x, y in pts if 0 <= x < 1 and 0 <= y < 1])
        pts = pts[np.random.Generator(np.random.PCG64(5)).permutation(len(pts))]

        class FixedPoints:
            def random(self, shape):
                assert shape == pts.shape
                return pts.copy()

        monkeypatch.setattr(graph_module, "_seeded_generator", lambda seed: FixedPoints())
        monkeypatch.setattr(oracle, "_seeded_generator", lambda seed: FixedPoints())
        g = generate_rgg(len(pts), r, 0)
        assert g == triu_rgg(len(pts), r, 0)
        # linked pairs across an edge, some with |dy| within an ulp of r
        band = [int(Fraction(y) / h) for y in pts[:, 1].tolist()]
        across = [(u, v) for u, v in g.edges() if band[u] != band[v]]
        near = [(u, v) for u, v in across if abs(abs(pts[u, 1] - pts[v, 1]) - r) <= math.ulp(r)]
        assert len(across) > len(near) > 0

    @pytest.mark.parametrize(
        "r",
        [v for m in (2, 3, 10) for v in (1 / m, math.nextafter(1 / m, 0), math.nextafter(1 / m, 1))]
        + [0.0, 1e-300, 5e-324, 0.02, 1.0, 1.5, math.inf],
    )
    def test_rgg_radii_at_band_heights_and_extremes(self, r):
        # bands of height about 1/m, one band (r >= 1), and radii below 1/N,
        # where the N-band cap sets the height (r = 0.02 at N = 30 gives links)
        links = 0
        for n, seed in [(1, 1), (2, 2), (300, 3)] + [(30, seed) for seed in range(10)]:
            g = generate_rgg(n, r, seed)
            assert g == triu_rgg(n, r, seed)
            links += g.num_links if n == 30 else 0
        assert (links > 0) == (r >= 0.02)

    def test_rgg_candidates_stay_near_n_plus_l(self, monkeypatch):
        # the pairs _row_blocks hands out: the bands give 1.59-1.72 times
        # N + L here; one x-sorted strip gave 19.5 at degree-large's N = 5000,
        # 37 at rgg:20000,0.015 and 74 at rgg:100000,0.0078
        handed = []
        row_blocks = graph_module._row_blocks

        def counted(*rows):
            for count, pairs in row_blocks(*rows):
                handed.append(count)
                yield count, pairs

        monkeypatch.setattr(graph_module, "_row_blocks", counted)
        degree_large = math.sqrt(1.5 * math.log(5000) / (math.pi * 5000))
        for n, r in ((5000, degree_large), (20000, 0.015), (100000, 0.0078), (200000, 0.004), (5000, 0.3)):
            handed.clear()
            links = generate_rgg(n, r, 1).num_links
            assert sum(handed) <= 3 * (n + links), (n, r, sum(handed), links)

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


def _saved_form_corpus():
    """Graphs of every generator and family, for the saved-form scan: the
    block generators' cases, less their dense graphs above N = 100."""
    cases = [case.values for case in _generator_corpus() if case.values[0] <= 100 or case.values[1] < 0.1]
    graphs = [(f"er-{n}-{pl:.3g}", generate_er(n, pl, seed)) for n, pl, _, seed in cases]
    graphs += [(f"rgg-{n}-{r:.3g}", generate_rgg(n, r, seed)) for n, _, r, seed in cases]
    graphs += [("ba-200-3", generate_ba(200, 3, 4)), ("er-100-trailing-isolated", generate_er(100, 0.01, 6))]
    graphs += [("lattice-" + "x".join(map(str, dims)), generate_lattice(dims)) for dims in _LATTICE_DIMS]
    graphs += [(f"{name}-{n}", builder(n)) for name, (builder, low, _) in FAMILIES.items() for n in (low, 9)]
    return [pytest.param(g, id=label) for label, g in graphs]


_SAVED_FORM_CORPUS = _saved_form_corpus()


def _per_line_parse(text):
    """The graph of saved-form text, read one line at a time by hand."""
    lines = text.splitlines()
    n = int(lines.pop(0).removeprefix("# nodes ")) if lines and lines[0].startswith("#") else None
    pairs = [(int(u), int(v)) for u, v in map(str.split, lines)]
    return Graph(max(map(max, pairs), default=-1) + 1 if n is None else n, pairs)


class TestSavedFormScan:
    """load_edge_list reads text in the saved form with one numpy scan."""

    @pytest.mark.parametrize("g", _SAVED_FORM_CORPUS)
    def test_round_trip_equals_a_per_line_parse(self, g):
        text = save_edge_list(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scanned = load_edge_list(_NoLoop(text))
        expected = _per_line_parse(text)
        assert scanned == g == expected and scanned.num_nodes == g.num_nodes == expected.num_nodes

    @pytest.mark.parametrize("g", _SAVED_FORM_CORPUS)
    def test_link_ends_in_edges_order(self, g):
        # random_pairing_addition relies on this order
        assert list(map(tuple, g.link_ends.T.tolist())) == g.edges()

    @pytest.mark.parametrize("text, n, links", [
        ("# nodes 5\n0 1\n2 3\n", 5, [(0, 1), (2, 3)]),
        ("# nodes 3\n", 3, []),
        ("", 0, []),
    ], ids=["trailing-isolated", "header-only", "empty"])
    def test_edge_cases(self, text, n, links):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_edge_list(_NoLoop(text))
        assert g == Graph(n, links) and g.num_nodes == n and save_edge_list(g) == text


class TestRefusals:
    """Each refusal of the graph module, with its exception and message."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Graph(-1), ValueError, "num_nodes must be nonnegative"),
        (lambda: Graph(3, [(0, 1, 2)]), ValueError, "too many values to unpack"),
        (lambda: Graph(3, [(0, 2**64)]), ValueError, r"link \(0, 18446744073709551616\) out of range for 3 nodes"),
        (lambda: Graph(2**65, [(0, 2**64)]), OverflowError, "too large"),
        (lambda: load_edge_list("0 1 2\n"), EdgeListFormatError, "line 1: expected two tokens, got 3"),
        (lambda: load_edge_list("0 1\n2 -1\n"), EdgeListFormatError, "line 2: negative node id"),
        (lambda: generate_er(0, 0.5, 0), ValueError, "num_nodes must be positive"),
        (lambda: generate_er(5, 1.5, 0), ValueError, r"link probability must lie in \[0, 1\]"),
        (lambda: generate_rgg(0, 0.1, 0), ValueError, "num_nodes must be positive"),
        (lambda: generate_rgg(5, math.nan, 0), ValueError, "radius must be nonnegative"),
        (lambda: generate_ba(5, 0, 0), ValueError, "links_per_step must be positive"),
        (lambda: generate_lattice((3, 0)), ValueError, "lattice dimensions must be positive"),
        (lambda: complete_graph(0), ValueError, r"complete graph needs n >= 1"),
        (lambda: graph_module.complete_pendant_graph(2), ValueError, r"complete-plus-pendant needs n >= 3"),
        (lambda: cycle_graph(2), ValueError, r"cycle needs n >= 3"),
        (lambda: path_graph(0), ValueError, r"path needs n >= 1"),
        (lambda: star_graph(2), ValueError, r"star needs n >= 3"),
        (lambda: graph_module.star_pendant_graph(2), ValueError, r"star-plus-pendant needs n >= 3"),
        (lambda: graph_module.DegreeDistribution({}, 0), ValueError, "degree distribution needs at least one node"),
        (lambda: graph_module.DegreeDistribution({1: 2}, 3), ValueError, "degree counts must sum to the node count"),
    ], ids=[
        "negative-nodes", "not-a-pair", "id-beyond-int64", "id-beyond-int64-in-range", "three-tokens",
        "negative-id", "er-nodes", "er-probability", "rgg-nodes", "rgg-nan-radius", "ba-links-per-step",
        "lattice-dimension", "complete", "complete-pendant", "cycle", "path", "star", "star-pendant",
        "degrees-no-nodes", "degrees-bad-sum",
    ])
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_blank_line_of_other_text_skipped(self):
        # not the saved form, so the per-line loop reads it
        g = load_edge_list("0 1\n\n  \n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]
