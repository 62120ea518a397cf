import json
import math
import tracemalloc

import numpy as np
import pytest

from relpoly import (
    CapacityError,
    Graph,
    complete_graph,
    cycle_graph,
    generate_er,
    generate_lattice,
    greedy_lowest_degree_addition,
    highest_degree_addition,
    path_graph,
    random_pairing_addition,
    star_graph,
)
from relpoly.kgrip import AugmentationPlan, objective, restructuring_delta
from oracle import degree_changes, greedy_addition, random_pairing

GRID = tuple((i + 1) / 20 for i in range(19))


def effective_degrees(graph):
    return graph.degrees()


def has_descending_restructuring(augmented, plan):
    """True when moving one endpoint of an added link would raise the objective."""
    deg = augmented.degrees()
    for u, v in plan.added:
        for keep, move in ((u, v), (v, u)):
            for w in range(augmented.num_nodes):
                if w in (keep, move) or augmented.has_link(keep, w):
                    continue
                if deg[move] - 1 > deg[w]:
                    return True
    return False


class TestObjective:
    def test_star_worked_value(self):
        assert objective(star_graph(3), 0.5) == pytest.approx(7 / 12, abs=1e-12)

    def test_regular_graph(self):
        for p in (0.2, 0.5, 0.8):
            assert objective(cycle_graph(6), p) == pytest.approx(1 - (1 - p) ** 2, abs=1e-12)

    def test_p_one_counts_isolated(self):
        g = Graph(4, [(0, 1)])
        assert objective(g, 1.0) == pytest.approx(0.5, abs=1e-12)


class TestRestructuringDelta:
    def test_positive_gap(self):
        assert restructuring_delta(2, 5, 0.5) == pytest.approx(0.09375, abs=1e-12)

    def test_zero_at_boundary(self):
        for dm in range(0, 8):
            assert restructuring_delta(dm, dm + 1, 0.37) == 0.0

    def test_negative_when_moving_upward(self):
        assert restructuring_delta(5, 2, 0.5) < 0

    def test_sign_condition_exhaustive(self):
        for dest in range(0, 21):
            for source in range(1, 21):
                for p in (0.05, 0.3, 0.5, 0.7, 0.95):
                    delta = restructuring_delta(dest, source, p)
                    if source - 1 > dest:
                        assert delta > 0, (dest, source, p)
                    elif source - 1 == dest:
                        assert delta == 0.0
                    else:
                        assert delta < 0, (dest, source, p)

    def test_move_and_inverse_cancel(self):
        for dm, dn, p in ((0, 3, 0.4), (2, 7, 0.5), (5, 6, 0.9), (4, 1, 0.25)):
            forward = restructuring_delta(dm, dn, p)
            inverse = restructuring_delta(dn - 1, dm + 1, p)
            assert forward + inverse == pytest.approx(0.0, abs=1e-18)

    def test_source_needs_a_link(self):
        with pytest.raises(ValueError):
            restructuring_delta(3, 0, 0.5)


class TestGreedyLowest:
    def test_star_pairs_leaves(self):
        _, plan = greedy_lowest_degree_addition(star_graph(4), 1)
        assert plan.added == ((1, 2),)

    def test_path_closes_cycle(self):
        g, plan = greedy_lowest_degree_addition(path_graph(4), 1)
        assert plan.added == ((0, 3),)
        assert g == cycle_graph(4)

    def test_complete_graph_has_no_capacity(self):
        with pytest.raises(CapacityError):
            greedy_lowest_degree_addition(complete_graph(5), 1)

    def test_capacity_limit_exact(self):
        g = path_graph(4)
        free = math.comb(4, 2) - 3
        augmented, plan = greedy_lowest_degree_addition(g, free)
        assert augmented == complete_graph(4)
        with pytest.raises(CapacityError):
            greedy_lowest_degree_addition(g, free + 1)

    def test_plan_disjoint_from_base(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(25):
            n = int(rng.integers(5, 25))
            g = generate_er(n, 0.3, int(rng.integers(1 << 32)))
            k = int(rng.integers(1, 5))
            if k > math.comb(n, 2) - g.num_links:
                continue
            _, plan = greedy_lowest_degree_addition(g, k)
            assert len(plan.added) == k
            for u, v in plan.added:
                assert not g.has_link(u, v)

    def test_no_descending_restructuring(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(40):
            n = int(rng.integers(4, 31))
            g = generate_er(n, float(rng.uniform(0.1, 0.5)), int(rng.integers(1 << 32)))
            k = int(rng.integers(1, 11))
            if k > math.comb(n, 2) - g.num_links:
                continue
            augmented, plan = greedy_lowest_degree_addition(g, k)
            assert not has_descending_restructuring(augmented, plan)


class TestHighestDegree:
    def test_path_example(self):
        _, plan = highest_degree_addition(path_graph(4), 1)
        assert plan.added == ((1, 3),)

    def test_star_example(self):
        # the center is adjacent to everyone, so the scan falls through to leaves
        _, plan = highest_degree_addition(star_graph(4), 1)
        assert plan.added == ((1, 2),)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            highest_degree_addition(complete_graph(4), 1)


class TestRandomPairing:
    def test_exhaustion_gives_triangle(self):
        g = Graph(3)
        for seed in (0, 1, 99):
            augmented, plan = random_pairing_addition(g, 3, seed)
            assert augmented == complete_graph(3)

    def test_determinism(self):
        g = generate_er(20, 0.2, 4)
        _, a = random_pairing_addition(g, 10, seed=7)
        _, b = random_pairing_addition(g, 10, seed=7)
        assert a == b
        _, c = random_pairing_addition(g, 10, seed=8)
        assert a != c

    def test_plan_disjoint_on_many_instances(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for i in range(100):
            n = int(rng.integers(4, 20))
            g = generate_er(n, 0.35, int(rng.integers(1 << 32)))
            free = math.comb(n, 2) - g.num_links
            if free == 0:
                continue
            k = int(rng.integers(1, min(free, 6) + 1))
            _, plan = random_pairing_addition(g, k, seed=i)
            assert len(set(plan.added)) == k
            for u, v in plan.added:
                assert u < v
                assert not g.has_link(u, v)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            random_pairing_addition(complete_graph(4), 1, seed=0)


def _oracle_cases():
    """Seeded ER graphs, n = 2..40 at link probabilities 0..1, with k = 1, 3
    and every free pair."""
    for n in range(2, 41):
        for i, pl in enumerate((0.0, 0.1, 0.3, 0.6, 0.9, 1.0)):
            g = generate_er(n, pl, 100 * n + i)
            free = math.comb(n, 2) - g.num_links
            for k in sorted({1, 3, free}):
                if 1 <= k <= free:
                    yield g, k


def _assert_greedy_plans_equal_oracle(g, k):
    assert list(greedy_lowest_degree_addition(g, k)[1].added) == greedy_addition(g, k, False)
    assert list(highest_degree_addition(g, k)[1].added) == greedy_addition(g, k, True)


class TestPlansEqualOracle:
    def test_greedy_strategies(self):
        for g, k in _oracle_cases():
            _assert_greedy_plans_equal_oracle(g, k)

    @pytest.mark.parametrize("n", [300, 600, 1000])
    def test_greedy_strategies_at_scale(self, n):
        g = generate_er(n, 1.5 * math.log(n) / n, n)
        for k in (1, 50, 300):
            _assert_greedy_plans_equal_oracle(g, k)

    def test_greedy_strategies_until_saturated(self):
        # a dense graph runs out of free pairs, so nodes become adjacent to everyone
        g = generate_er(60, 0.7, 60)
        free = math.comb(60, 2) - g.num_links
        for k in (1, 50, free // 2, free):
            _assert_greedy_plans_equal_oracle(g, k)

    @pytest.mark.parametrize("dims", [(20, 30), (6, 6, 6)])
    def test_greedy_strategies_on_lattices(self, dims):
        # most lattice nodes tie on degree
        g = generate_lattice(dims)
        for k in (1, 50, 300):
            _assert_greedy_plans_equal_oracle(g, k)

    def test_random_pairing(self):
        for g, k in _oracle_cases():
            for seed in (0, 1, 2**63 + 5):
                assert list(random_pairing_addition(g, k, seed)[1].added) == random_pairing(g, k, seed)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_random_pairing_many_free_pairs(self, n):
        # more than 10,000 free pairs and a small k take numpy's set-based draw
        for pl in (0.0, 0.01, 0.1):
            g = generate_er(n, pl, n)
            for k in (1, 7, 100):
                for seed in (0, 1, 2):
                    assert list(random_pairing_addition(g, k, seed)[1].added) == random_pairing(g, k, seed)

    def test_random_pairing_memory_is_linear(self):
        # a table of every pair would hold C(5000, 2) = 12.5M entries
        g = cycle_graph(5000)
        tracemalloc.start()
        try:
            random_pairing_addition(g, 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestAugmentedGraph:
    @staticmethod
    def _assert_equal_to_rebuilt(g, k, seed):
        for new, plan in (greedy_lowest_degree_addition(g, k), highest_degree_addition(g, k),
                          random_pairing_addition(g, k, seed)):
            rebuilt = Graph(g.num_nodes, g.edges() + list(plan.added))
            assert new == rebuilt and new.edges() == rebuilt.edges()
            assert new.num_links == rebuilt.num_links == g.num_links + k

    def test_equal_to_graph_of_all_links(self):
        for g, k in _oracle_cases():
            self._assert_equal_to_rebuilt(g, k, k)

    def test_equal_to_graph_of_all_links_at_scale(self):
        g = generate_er(1000, 1.5 * math.log(1000) / 1000, 1)
        for k in (1, 100, 1000):
            self._assert_equal_to_rebuilt(g, k, k)


class TestStrategyOrdering:
    def test_objective_dominance(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for i in range(12):
            n = int(rng.integers(10, 40))
            g = generate_er(n, float(rng.uniform(0.08, 0.3)), int(rng.integers(1 << 32)))
            k = int(rng.integers(2, 9))
            if k > math.comb(n, 2) - g.num_links:
                continue
            greedy_g, _ = greedy_lowest_degree_addition(g, k)
            random_g, _ = random_pairing_addition(g, k, seed=i)
            highest_g, _ = highest_degree_addition(g, k)
            for p in GRID:
                greedy_val = objective(greedy_g, p)
                random_val = objective(random_g, p)
                highest_val = objective(highest_g, p)
                assert greedy_val >= random_val - 1e-12, (i, p)
                assert greedy_val >= highest_val - 1e-12, (i, p)

    def test_adding_links_never_lowers_objective(self):
        g = generate_er(15, 0.2, 2)
        augmented, _ = greedy_lowest_degree_addition(g, 5)
        for p in GRID:
            assert objective(augmented, p) >= objective(g, p) - 1e-15


class TestPlanSerialization:
    def test_json_fields(self):
        _, plan = random_pairing_addition(Graph(4), 2, seed=5)
        payload = json.loads(plan.to_json())
        assert payload["strategy"] == "random"
        assert payload["k"] == 2
        assert payload["seed"] == 5
        assert len(payload["added"]) == 2

    def test_greedy_json_has_no_seed(self):
        _, plan = greedy_lowest_degree_addition(path_graph(5), 2)
        payload = json.loads(plan.to_json())
        assert "seed" not in payload

    def test_degree_changes_sum(self):
        _, plan = greedy_lowest_degree_addition(path_graph(6), 3)
        changes = degree_changes(plan, 6)
        assert sum(changes) == 2 * 3
        assert all(a >= 0 for a in changes)


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: AugmentationPlan("lowest", 2, ((0, 1),)), "plan size must equal k"),
        (lambda: AugmentationPlan("lowest", 1, ((1, 1),)), "self-pairs are not allowed"),
        (lambda: restructuring_delta(-1, 2, 0.5), "degrees are nonnegative"),
        (lambda: greedy_lowest_degree_addition(path_graph(4), 0), "k must be positive"),
        (lambda: highest_degree_addition(path_graph(4), 0), "k must be positive"),
        (lambda: random_pairing_addition(path_graph(4), 0, 1), "k must be positive"),
    ], ids=["plan-size", "plan-self-pair", "negative-degree", "lowest-k0", "highest-k0", "random-k0"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
