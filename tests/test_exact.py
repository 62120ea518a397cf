import dataclasses
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from relpoly import (
    CapacityError,
    CutFractionEstimate,
    ErModel,
    Graph,
    ReliabilityCoefficients,
    RggModel,
    approx,
    bernstein_mixture,
    closed_form_eval,
    complete_graph,
    complete_pendant_graph,
    cycle_graph,
    enumerate_link_coefficients,
    enumerate_node_coefficients,
    family_node_coefficients,
    generate_ba,
    generate_er,
    generate_lattice,
    generate_rgg,
    laplace_estimate,
    link_reliability,
    node_reliability_c_form,
    node_reliability_s_form,
    path_graph,
    star_graph,
    star_pendant_graph,
)
from relpoly.cutset import estimate_curve_source, exact_link_curve_source, exact_node_curve_source
from relpoly import exact
from relpoly.curve import probability_grid
from relpoly.exact import _clamp01, _frontier_order, _link_counts, _node_counts
from relpoly.graph import FAMILIES
from oracle import (
    brute_connected_counts,
    brute_cut_counts,
    brute_link_kept_counts,
    cycle_rational_form,
    direct_link_polynomial,
    direct_node_polynomial,
    mask_link_coefficients,
    mask_node_coefficients,
    node_curve_value_exact,
    partition_link_counts,
    path_rational_form,
    point_mixture,
)


def clamped_mixture(counts, p):
    """The mixture of counts[k] / C(n,k), fractions rebuilt on each call, clamped."""
    return _clamp01(bernstein_mixture(exact._fractions(counts), p))


class TestNodeEnumeration:
    def test_path3(self):
        c = enumerate_node_coefficients(path_graph(3))
        assert c.connected_counts == (0, 3, 2, 1)
        assert c.cut_counts == (0, 1, 0, 1)

    def test_k3(self):
        c = enumerate_node_coefficients(complete_graph(3))
        assert c.connected_counts == (0, 3, 3, 1)
        assert c.cut_counts == (0, 0, 0, 1)

    def test_cycle4(self):
        c = enumerate_node_coefficients(cycle_graph(4))
        assert c.connected_counts == (0, 4, 4, 4, 1)
        # the two diagonal removals are the only proper cut sets
        assert c.cut_counts == (0, 0, 2, 0, 1)

    def test_matches_brute_force_on_corpus(self, corpus):
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            c = enumerate_node_coefficients(g)
            assert list(c.connected_counts) == brute_connected_counts(g), label

    def test_complement_identity_vs_independent_cut_enumeration(self, corpus):
        for label, g in corpus:
            if g.num_nodes > 9:
                continue
            c = enumerate_node_coefficients(g)
            oracle_cuts = brute_cut_counts(g)
            n = g.num_nodes
            for k in range(n + 1):
                assert c.connected_counts[k] + oracle_cuts[n - k] == math.comb(n, k), label

    def test_capacity_error(self):
        with pytest.raises(CapacityError, match="24"):
            enumerate_node_coefficients(Graph(25))

    def test_fraction_bounds(self, corpus):
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            c = enumerate_node_coefficients(g)
            assert all(0.0 <= x <= 1.0 for x in c.connected_fractions), label
            assert all(0.0 <= x <= 1.0 for x in c.cut_fractions), label


class TestLinkEnumeration:
    def test_k3(self):
        c = enumerate_link_coefficients(complete_graph(3))
        assert c.kept_counts == (1, 3, 0, 0)

    def test_cycle4(self):
        c = enumerate_link_coefficients(cycle_graph(4))
        assert c.kept_counts == (1, 4, 0, 0, 0)

    def test_tree_only_full_set_survives(self):
        for tree in (path_graph(5), star_graph(5)):
            c = enumerate_link_coefficients(tree)
            assert c.kept_counts[0] == 1
            assert all(x == 0 for x in c.kept_counts[1:])

    def test_disconnected_graph_has_f0_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        c = enumerate_link_coefficients(g)
        assert c.kept_counts[0] == 0

    def test_matches_brute_force(self, corpus):
        for label, g in corpus:
            if g.num_links > 9:
                continue
            c = enumerate_link_coefficients(g)
            assert list(c.kept_counts) == brute_link_kept_counts(g), label

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_link_coefficients(complete_graph(8))  # 28 links


def _seeded_er_graphs():
    """200 seeded ER graphs, N = 0..13 in turn, link probability in [0.05, 0.7)."""
    rng = np.random.Generator(np.random.PCG64(77))
    graphs = []
    for i in range(200):
        n = i % 14
        pl = float(rng.uniform(0.05, 0.7))
        seed = int(rng.integers(1 << 32))
        graphs.append((f"er:{n},{pl:.3f}@{seed}", generate_er(n, pl, seed) if n else Graph(0)))
    return graphs


# lattices, disconnected graphs, isolated nodes and the smallest sizes
SPECIAL_GRAPHS = [
    ("empty:0", Graph(0)),
    ("single:1", Graph(1)),
    ("apart:2", Graph(2)),
    ("pair:2", Graph(2, [(0, 1)])),
    ("isolated:4", Graph(4)),
    ("lattice:3x4", generate_lattice((3, 4))),
    ("lattice:2x2x3", generate_lattice((2, 2, 3))),
    ("lattice:1x7", generate_lattice((1, 7))),
    ("lattice:3x3", generate_lattice((3, 3))),
    ("two-triangles", Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    ("path+isolated", Graph(5, [(1, 2), (2, 3), (3, 4)])),
    ("cycle+isolated", Graph(7, [(i, (i + 1) % 6) for i in range(6)])),
    ("star+edge", Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (6, 7)])),
]

LINK_ORACLE_MAX_L = 16  # the 2^L oracle takes about 0.3 s at L = 16
# on the densest seeded ER graphs, L = 53 and 59, the two link DPs take 2 and 10 s
PARTITION_ORACLE_MAX_L = 50


def _frontier_width(graph, order):
    """Most processed vertices with an unprocessed neighbour, over `order`."""
    done, widest = set(), 0
    for v in order:
        done.add(v)
        widest = max(widest, sum(1 for u in done if set(graph.neighbors(u)) - done))
    return widest


# link counts that only the partition DP can check, with the cap raised (L = 36-178)
PAST_MASK_GRAPHS = [
    *((f"lattice:{a}x{b}", generate_lattice((a, b))) for a, b in ((3, 10), (4, 8), (5, 6), (3, 30), (2, 60))),
    ("ba:30,2@1", generate_ba(30, 2, 1)),
    ("er:16,0.3@1", generate_er(16, 0.3, 1)),
]


def check_partitions(label, g):
    f = enumerate_link_coefficients(g, cap=g.num_links).kept_counts
    assert list(f) == partition_link_counts(g, _frontier_order(g)), label


class TestFrontierEqualsMasks:
    """The frontier DP against the 2^N and 2^L mask loops in tests/oracle.py,
    and link counts past the reach of the 2^L loop against the partition DP."""

    @staticmethod
    def check(label, g):
        assert enumerate_node_coefficients(g) == mask_node_coefficients(g), label
        if g.num_links <= LINK_ORACLE_MAX_L:
            assert enumerate_link_coefficients(g) == mask_link_coefficients(g), label
        elif g.num_links <= PARTITION_ORACLE_MAX_L:
            check_partitions(label, g)

    def test_corpus(self, corpus):
        for label, g in corpus:
            self.check(label, g)

    def test_seeded_er(self):
        for label, g in _seeded_er_graphs():
            self.check(label, g)

    def test_special_graphs(self):
        for label, g in SPECIAL_GRAPHS:
            self.check(label, g)

    def test_counts_do_not_depend_on_the_order(self, corpus):
        rng = np.random.Generator(np.random.PCG64(78))
        small = [(label, g) for label, g in corpus if g.num_nodes <= 10]
        for label, g in SPECIAL_GRAPHS + small:
            node = mask_node_coefficients(g).connected_counts
            link = mask_link_coefficients(g).kept_counts if g.num_links <= 12 else None
            for _ in range(3):
                order = rng.permutation(g.num_nodes).tolist()
                assert tuple(_node_counts(g, order)) == node, (label, order)
                if link is not None:
                    assert tuple(_link_counts(g, order)) == link, (label, order)

    def test_seeded_er_under_random_orders(self):
        # a random order makes the densest graphs slow in both DPs: 21 s each at L = 59
        rng = np.random.Generator(np.random.PCG64(79))
        for label, g in _seeded_er_graphs():
            order = rng.permutation(g.num_nodes).tolist()
            if g.num_links > 30:
                continue
            assert _link_counts(g, order) == partition_link_counts(g, order), (label, order)

    @pytest.mark.parametrize("label,g", PAST_MASK_GRAPHS, ids=[label for label, _ in PAST_MASK_GRAPHS])
    def test_link_counts_past_the_mask_oracle(self, label, g):
        check_partitions(label, g)

    def test_order_is_a_permutation(self, corpus):
        for label, g in SPECIAL_GRAPHS + corpus:
            assert sorted(_frontier_order(g)) == list(range(g.num_nodes)), label

    @pytest.mark.parametrize("dims", [(3, 40), (20, 5), (6, 6), (2, 9)])
    def test_lattice_order_is_narrow(self, dims):
        # the greedy order sweeps a lattice across its short side
        g = generate_lattice(dims)
        assert _frontier_width(g, _frontier_order(g)) == min(dims)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_at_the_cap(self, family):
        c = enumerate_node_coefficients(FAMILIES[family][0](24))
        assert c == family_node_coefficients(family, 24)

    def test_dense_er_at_the_cap(self):
        g = generate_er(24, 0.5, 0)
        s = enumerate_node_coefficients(g).connected_counts
        assert (s[0], s[1], s[2], s[24]) == (0, 24, g.num_links, int(g.is_connected()))
        assert all(0 <= x <= math.comb(24, k) for k, x in enumerate(s))

    def test_spanning_trees_at_the_cap(self):
        import networkx as nx

        graphs = [
            generate_er(12, 0.35, 0),  # L = 24
            generate_lattice((4, 4)),  # L = 24
            generate_er(11, 0.4, 0),
            generate_rgg(12, 0.45, 0),
            generate_ba(10, 2, 0),
            complete_graph(7),
            cycle_graph(24),
        ]
        for g in graphs:
            n, l = g.num_nodes, g.num_links
            assert l <= 24 and g.is_connected(), g
            f = enumerate_link_coefficients(g).kept_counts
            nxg = nx.Graph(g.edges())
            assert f[l - n + 1] == round(nx.number_of_spanning_trees(nxg)), g
            assert f[0] == 1 and all(x == 0 for x in f[l - n + 2:]), g

    @pytest.mark.slow
    def test_er22_against_the_node_oracle(self):
        g = generate_er(22, 0.5, 0)
        assert enumerate_node_coefficients(g) == mask_node_coefficients(g)


class TestEvaluation:
    def test_p3_half(self):
        c = enumerate_node_coefficients(path_graph(3))
        assert node_reliability_s_form(c, 0.5) == pytest.approx(0.75, abs=1e-12)
        assert node_reliability_c_form(c, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_k3_half_c_form(self):
        c = enumerate_node_coefficients(complete_graph(3))
        assert node_reliability_c_form(c, 0.5) == pytest.approx(0.875, abs=1e-12)

    def test_endpoints(self, corpus):
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            c = enumerate_node_coefficients(g)
            assert node_reliability_s_form(c, 0.0) == 0.0, label
            expected_at_one = 1.0 if g.is_connected() else 0.0
            assert node_reliability_s_form(c, 1.0) == expected_at_one, label
            assert node_reliability_c_form(c, 1.0) == expected_at_one, label

    def test_s_and_c_forms_agree(self, corpus, grid99):
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            c = enumerate_node_coefficients(g)
            for p in grid99:
                s_val = node_reliability_s_form(c, p)
                c_val = node_reliability_c_form(c, p)
                assert abs(s_val - c_val) < 1e-12, (label, p)

    def test_log_space_matches_direct_sum(self, corpus, grid99):
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            c = enumerate_node_coefficients(g)
            for p in grid99[::7]:
                direct = direct_node_polynomial(c.connected_counts, p)
                assert node_reliability_s_form(c, p) == pytest.approx(direct, abs=1e-12)

    def test_link_evaluation(self):
        c = enumerate_link_coefficients(complete_graph(3))
        assert link_reliability(c, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert link_reliability(c, 1.0) == 1.0
        tree = enumerate_link_coefficients(path_graph(5))
        for p in (0.2, 0.5, 0.9):
            assert link_reliability(tree, p) == pytest.approx(p**4, abs=1e-12)
            assert link_reliability(tree, p) == pytest.approx(
                direct_link_polynomial(tree.kept_counts, p), abs=1e-12
            )

    def test_kind_mismatch(self):
        node = enumerate_node_coefficients(path_graph(3))
        link = enumerate_link_coefficients(path_graph(3))
        with pytest.raises(ValueError):
            link_reliability(node, 0.5)
        with pytest.raises(ValueError):
            node_reliability_s_form(link, 0.5)

    def test_exact_rational_evaluation(self):
        c = enumerate_node_coefficients(path_graph(3))
        assert node_curve_value_exact(c, Fraction(1, 2)) == Fraction(3, 4)

    @pytest.mark.parametrize("evaluate,coefficients,expected", [
        (node_reliability_s_form, lambda: family_node_coefficients("star", 60),
         lambda c, p: clamped_mixture(c.connected_counts, p)),
        (link_reliability, lambda: enumerate_link_coefficients(generate_er(9, 0.5, 4)),
         lambda c, p: clamped_mixture(c.kept_counts[::-1], p)),
        (lambda c, p: exact_node_curve_source(c)(p), lambda: family_node_coefficients("star", 60),
         lambda c, p: clamped_mixture(c.connected_counts, p)),
        (lambda c, p: exact_link_curve_source(c)(p), lambda: enumerate_link_coefficients(generate_er(9, 0.5, 4)),
         lambda c, p: clamped_mixture(c.kept_counts[::-1], p)),
        (node_reliability_c_form, lambda: family_node_coefficients("star", 60),
         lambda c, p: 1.0 - clamped_mixture(c.cut_counts[::-1], p)),
    ], ids=["s-form", "link", "node-source", "link-source", "c-form"])
    def test_fractions_built_once_per_object(self, monkeypatch, evaluate, coefficients, expected):
        # the float fractions, N + 1 big-integer divisions, are built on the
        # first evaluation and kept; the values are the mixture of the
        # rebuilt fractions, clamped, to the bit
        grid = probability_grid(101)
        c = coefficients()
        values = [expected(c, p) for p in grid]
        built = []
        fractions = exact._fractions
        monkeypatch.setattr(exact, "_fractions", lambda counts: built.append(len(counts)) or fractions(counts))
        assert [evaluate(c, p) for p in grid] == values
        assert len(built) == 1
        # the object stays frozen, equal to a fresh one, hashable and picklable
        fresh = coefficients()
        assert c == fresh and hash(c) == hash(fresh) and pickle.loads(pickle.dumps(c)) == c
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.kind = "node"

    def test_c_form_is_the_clamped_mixture(self, corpus, grid99, caplog):
        # 1 - clamp(m) equals clamp(1 - m) bit for bit, and the clamp is logged
        for label, g in corpus:
            if g.num_nodes > 10:
                continue
            c = enumerate_node_coefficients(g)
            for p in grid99:
                reference = _clamp01(1.0 - bernstein_mixture(c.cut_fractions[::-1], p))
                assert node_reliability_c_form(c, p) == reference, (label, p)
        # every 10-node removal disconnects: the mixture of ones rounds above 1 at p = 0.01
        ones = ReliabilityCoefficients.node(10, [0] * 11)
        assert bernstein_mixture(ones.cut_fractions[::-1], 0.01) > 1.0
        with caplog.at_level("DEBUG", logger="relpoly.exact"):
            assert node_reliability_c_form(ones, 0.01) == 0.0
        assert [r.getMessage().split(";")[0] for r in caplog.records] == ["clamped curve value at p=0.01"]

    def test_mixture_equals_the_uncached_expression(self):
        # log C(n,k) and the exponents are cached per n, read-only; the sum is
        # the one formed from a fresh integer arange, bit for bit
        rng = np.random.default_rng(2)
        grid = probability_grid(101)
        for n in (8, 9, 18, 40, 67, 200, 1000, 6925):
            log_binomials, k, rest = exact._mixture_terms(n)
            assert not any(arr.flags.writeable for arr in (log_binomials, k, rest))
            for _ in range(2):
                fr = rng.random(n + 1)
                ints = np.arange(n + 1)
                for p in grid[1:-1]:
                    logw = log_binomials + ints * math.log(p) + (n - ints) * math.log1p(-p)
                    assert bernstein_mixture(fr, p) == float(np.dot(np.exp(logw), fr)), (n, p)
            assert bernstein_mixture(fr, 0.0) == fr[0] and bernstein_mixture(fr, 1.0) == fr[n]


def interior_grid(count: int) -> tuple:
    return tuple((i + 1) / (count + 1) for i in range(count))


class TestGridMixture:
    """The grid mixture against the former one-point expression, kept in
    tests/oracle.py, bit for bit."""

    EDGE_GRID = (0.0, 5e-324, 0.25, 0.5, 1 - 2**-53, 1.0)

    @staticmethod
    def check(fr, grid):
        assert exact._mixture(fr, grid) == [point_mixture(fr, p) for p in grid], (fr.size - 1, len(grid))

    def test_random_fractions(self):
        rng = np.random.default_rng(26)
        for n in (*range(1, 81), 600, 1000, 6925):
            fr = rng.random(n + 1)
            for grid in (probability_grid(101), probability_grid(1001), self.EDGE_GRID):
                self.check(fr, grid)

    def test_row_counts_around_a_block_boundary(self):
        # 2^14 cells hold 399 rows of n = 40; the grids end one row short of,
        # on, and one row past a block
        rows = exact._BLOCK_CELLS // 41
        fr = np.random.default_rng(27).random(41)
        for count in (rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1):
            self.check(fr, interior_grid(count))
            self.check(fr, (0.0, *interior_grid(count), 1.0))

    @pytest.mark.parametrize("cells", [1, 41, 2**12, 2**18])
    def test_any_block_size(self, monkeypatch, cells):
        monkeypatch.setattr(exact, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(28)
        for n in (8, 40, 67, 1000):
            self.check(rng.random(n + 1), probability_grid(101))

    def test_one_point_case(self):
        fr = np.random.default_rng(29).random(68)
        for p in self.EDGE_GRID:
            assert bernstein_mixture(fr, p) == point_mixture(fr, p) == exact._mixture(fr, (p,))[0]

    @pytest.mark.parametrize("bad", [float("nan"), -0.25, -5e-324, 1.5])
    def test_bad_p_raises_before_any_value(self, monkeypatch, caplog, bad):
        # the points ahead of the bad one would clamp and log
        terms = []
        monkeypatch.setattr(exact, "_mixture_terms", lambda n: terms.append(n))
        with caplog.at_level("DEBUG", logger="relpoly.exact"):
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
                exact._curve_values(np.ones(11), (0.01, 0.02, bad, 0.5))
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
                bernstein_mixture(np.ones(11), bad)
        assert terms == [] and caplog.records == []

    def test_each_clamp_logs_one_record_in_grid_order(self, caplog):
        # below 0 near p = 0 and above 1 near p = 1
        fr = np.ones(11)
        fr[0] = -1.0
        grid = probability_grid(101)
        raw = [point_mixture(fr, p) for p in grid]
        with caplog.at_level("DEBUG", logger="relpoly.exact"):
            values = exact._curve_values(fr, grid)
        assert values == tuple(_clamp01(x) for x in raw)
        clamped = [(p, x) for p, x in zip(grid, raw) if not 0.0 <= x <= 1.0]
        assert min(x for _, x in clamped) < 0.0 < 1.0 < max(x for _, x in clamped)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("relpoly.exact", f"clamped curve value at p={p:.17g}; raw {x:.17g}") for p, x in clamped
        ]


class TestClosedForms:
    def test_worked_values(self):
        assert closed_form_eval("complete", 3, 0.5) == pytest.approx(0.875, abs=1e-12)
        assert closed_form_eval("cycle", 4, 0.3) == pytest.approx(0.6717, abs=1e-12)
        assert closed_form_eval("path", 3, 0.3) == pytest.approx(0.594, abs=1e-12)
        assert closed_form_eval("star", 3, 0.5) == pytest.approx(0.75, abs=1e-12)
        assert closed_form_eval("star-pendant", 4, 0.5) == pytest.approx(0.625, abs=1e-12)

    def test_family_minimums(self):
        closed_form_eval("complete", 1, 0.5)
        for family in ("cycle", "path", "star", "star-pendant", "complete-pendant"):
            with pytest.raises(ValueError):
                closed_form_eval(family, 2, 0.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            closed_form_eval("wheel", 5, 0.5)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_enumeration(self, family, grid99):
        for n in range(3, 8):
            coeffs = enumerate_node_coefficients(FAMILIES[family][0](n))
            for p in grid99[::3]:
                brute = node_reliability_s_form(coeffs, p)
                assert abs(closed_form_eval(family, n, p) - brute) < 1e-10, (family, n, p)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_coefficients_match_enumeration(self, family):
        for n in range(3, 9):
            direct = family_node_coefficients(family, n)
            brute = enumerate_node_coefficients(FAMILIES[family][0](n))
            assert direct.connected_counts == brute.connected_counts, (family, n)

    def test_rational_forms_agree_away_from_half(self):
        for n in (3, 5, 8):
            for p in (0.1, 0.3, 0.47, 0.62, 0.9):
                assert cycle_rational_form(n, p) == pytest.approx(
                    closed_form_eval("cycle", n, p), abs=1e-9
                )
                assert path_rational_form(n, p) == pytest.approx(
                    closed_form_eval("path", n, p), abs=1e-9
                )

    def test_rational_forms_reject_pole(self):
        with pytest.raises(ValueError):
            cycle_rational_form(5, 0.5)
        with pytest.raises(ValueError):
            path_rational_form(5, 0.5)

    def test_structural_cross_checks(self):
        # complete-with-pendant on 3 nodes is the 3-path; star-with-pendant on 4 is the 4-path
        kp3 = enumerate_node_coefficients(complete_pendant_graph(3))
        p3 = enumerate_node_coefficients(path_graph(3))
        assert kp3.connected_counts == p3.connected_counts
        sp4 = enumerate_node_coefficients(star_pendant_graph(4))
        p4 = enumerate_node_coefficients(path_graph(4))
        assert sp4.connected_counts == p4.connected_counts


class TestSerialization:
    def test_node_round_trip(self):
        c = enumerate_node_coefficients(cycle_graph(5))
        again = ReliabilityCoefficients.from_json(c.to_json())
        assert again == c

    def test_link_round_trip(self):
        c = enumerate_link_coefficients(cycle_graph(5))
        again = ReliabilityCoefficients.from_json(c.to_json())
        assert again == c

    def test_link_cut_counts_survive_json(self):
        c = enumerate_link_coefficients(cycle_graph(5))
        assert "C" not in json.loads(c.to_json())
        again = ReliabilityCoefficients.from_json(c.to_json())
        assert again.cut_counts == c.cut_counts == (0, 0, 10, 10, 5, 1)

    def test_decimal_strings_preserve_big_integers(self):
        c = family_node_coefficients("complete", 80)
        again = ReliabilityCoefficients.from_json(c.to_json())
        assert again.connected_counts == c.connected_counts
        assert max(c.connected_counts) == math.comb(80, 40)


_NODE_C4 = ReliabilityCoefficients.node(4, [0, 4, 4, 4, 1])
_LINK_C4 = ReliabilityCoefficients.link(4, 4, [1, 4, 0, 0, 0])
_EST = CutFractionEstimate("node", 2, (0, 1, 3), 3, 0)

# every public function that evaluates one curve at one p
PER_P = {
    "node_reliability_s_form": lambda p: node_reliability_s_form(_NODE_C4, p),
    "node_reliability_c_form": lambda p: node_reliability_c_form(_NODE_C4, p),
    "link_reliability": lambda p: link_reliability(_LINK_C4, p),
    "bernstein_mixture": lambda p: bernstein_mixture((0.0, 0.5, 1.0), p),
    "closed_form_eval": lambda p: closed_form_eval("cycle", 4, p),
    "laplace_estimate": lambda p: laplace_estimate(_NODE_C4, p),
    "exact_node_curve_source": lambda p: exact_node_curve_source(_NODE_C4)(p),
    "exact_link_curve_source": lambda p: exact_link_curve_source(_LINK_C4)(p),
    "estimate_curve_source": lambda p: estimate_curve_source(_EST)(p),
    "stochastic_node_reliability": lambda p: approx.stochastic_node_reliability(cycle_graph(4), p),
    "stochastic_link_reliability": lambda p: approx.stochastic_link_reliability(cycle_graph(4), p),
    "arithmetic_upper_bound": lambda p: approx.arithmetic_upper_bound(cycle_graph(4), p),
    "geometric_upper_bound": lambda p: approx.geometric_upper_bound(cycle_graph(4), p),
    "er_node_reliability": lambda p: approx.er_node_reliability(ErModel(100, 0.05), p),
    "rgg_node_reliability": lambda p: approx.rgg_node_reliability(RggModel(100, 0.2), p),
}


class TestProbabilityChecked:
    @pytest.mark.parametrize("p", [-0.5, 1.5, math.nan], ids=["below", "above", "nan"])
    @pytest.mark.parametrize("name", list(PER_P))
    def test_p_outside_unit_interval_refused(self, name, p):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            PER_P[name](p)

    @pytest.mark.parametrize("p", [Fraction(-1, 2), Fraction(3, 2), -1, 2], ids=["-1/2", "3/2", "-1", "2"])
    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_rational_p_outside_unit_interval_refused(self, kind, p):
        # Fraction and int probes take the rational sum, not the mixture
        source = {"node": exact_node_curve_source(_NODE_C4), "link": exact_link_curve_source(_LINK_C4)}[kind]
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            source(p)


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: ReliabilityCoefficients.node(3, [0, 3, 2]), r"need S_0\.\.S_N"),
        (lambda: ReliabilityCoefficients.link(3, 2, [1, 2]), r"need F_0\.\.F_L"),
        (lambda: ReliabilityCoefficients.node(3, [0, 4, 3, 1]), "inconsistent connected-subgraph counts"),
        (lambda: ReliabilityCoefficients.link(3, 2, [1, 3, 1]), "inconsistent kept-link counts"),
        (lambda: exact_link_curve_source(family_node_coefficients("path", 4))(Fraction(1, 2)),
         "link-kind coefficients required"),
        (lambda: node_reliability_c_form(enumerate_link_coefficients(cycle_graph(4)), 0.5),
         "node-kind coefficients required"),
    ], ids=["node-length", "link-length", "node-above-binomial", "link-above-binomial", "exact-link-source",
            "c-form-on-link"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
