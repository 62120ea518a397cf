import math

import numpy as np
import pytest

from relpoly import (
    ConnectivityWarning,
    Curve,
    ErModel,
    Graph,
    RggModel,
    arithmetic_upper_bound,
    complete_graph,
    cycle_graph,
    er_intersection,
    er_node_reliability,
    enumerate_node_coefficients,
    er_transition_width,
    generate_er,
    geometric_upper_bound,
    node_reliability_s_form,
    power_relation_gap,
    rgg_node_reliability,
    star_graph,
    stochastic_link_curve,
    stochastic_link_reliability,
    stochastic_node_curve,
    stochastic_node_reliability,
)


class TestStochasticApproximation:
    def test_cycle_worked_value(self):
        # phi(0.5) = 0.25 for the 2-regular cycle, exponent N p = 2
        assert stochastic_node_reliability(cycle_graph(4), 0.5) == pytest.approx(0.5625, abs=1e-12)

    def test_link_variant_worked_value(self):
        assert stochastic_link_reliability(cycle_graph(4), 0.5) == pytest.approx(
            0.75**4, abs=1e-12
        )

    def test_p_zero_limit(self):
        assert stochastic_node_reliability(cycle_graph(5), 0.0) == 1.0

    def test_p_zero_needs_no_degree_distribution(self):
        # a graph with no nodes has no degree distribution, yet N*p = 0 at p = 0
        with pytest.warns(ConnectivityWarning):
            assert stochastic_node_reliability(Graph(0), 0.0) == 1.0

    def test_p_one_without_isolated_nodes(self):
        assert stochastic_node_reliability(cycle_graph(5), 1.0) == 1.0
        assert stochastic_link_reliability(cycle_graph(5), 1.0) == 1.0

    def test_isolated_nodes_kill_the_value(self):
        g = Graph(3, [(0, 1)])
        with pytest.warns(ConnectivityWarning):
            assert stochastic_node_reliability(g, 1.0) < 1.0

    def test_disconnected_warns(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.warns(ConnectivityWarning):
            stochastic_node_reliability(g, 0.5)
        with pytest.warns(ConnectivityWarning):
            stochastic_link_reliability(g, 0.5)

    def test_warning_points_at_caller(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for call in (
            lambda: stochastic_node_reliability(g, 0.5),
            lambda: stochastic_link_reliability(g, 0.5),
            lambda: stochastic_node_curve(g, (0.25, 0.5)),
            lambda: stochastic_link_curve(g, (0.25, 0.5)),
        ):
            with pytest.warns(ConnectivityWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_power_identity_exact(self, corpus):
        # node value == link value ** p by construction, everywhere
        grid = [i / 25 for i in range(26)]
        for label, g in corpus:
            if not g.is_connected():
                continue
            for p in grid:
                node = stochastic_node_reliability(g, p)
                link = stochastic_link_reliability(g, p)
                assert abs(node - link**p) < 1e-12, (label, p)


class TestPowerRelationGap:
    def test_identical_stochastic_inputs(self):
        grid = tuple(i / 50 for i in range(51))
        g = cycle_graph(8)
        node = stochastic_node_curve(g, grid)
        link = stochastic_link_curve(g, grid)
        assert power_relation_gap(node, link) < 1e-12

    def test_constant_one_curves(self):
        grid = (0.0, 0.5, 1.0)
        ones = Curve(grid, (1.0, 1.0, 1.0))
        assert power_relation_gap(ones, ones) == 0.0

    def test_grid_mismatch(self):
        a = Curve((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
        b = Curve((0.0, 0.4, 1.0), (0.0, 0.5, 1.0))
        with pytest.raises(ValueError):
            power_relation_gap(a, b)


class TestBounds:
    def test_arithmetic_worked_value(self):
        assert arithmetic_upper_bound(star_graph(3), 0.5) == pytest.approx(
            (19 / 24) ** 3, abs=1e-12
        )

    def test_geometric_worked_values(self):
        assert geometric_upper_bound(star_graph(3), 0.5) == pytest.approx(0.4921875, abs=1e-12)
        k2 = complete_graph(2)
        assert geometric_upper_bound(k2, 0.5) == pytest.approx(0.5625, abs=1e-12)

    def test_not_upper_bounds_on_the_3_node_star(self):
        # the 3-node star K_(1,2) at p = 1/2: both isolation approximations
        # sit far below the exact node reliability p + 2p(1-p)^2 = 3/4
        star = star_graph(3)
        exact = node_reliability_s_form(enumerate_node_coefficients(star), 0.5)
        assert exact == pytest.approx(0.75, abs=1e-12)
        assert arithmetic_upper_bound(star, 0.5) == pytest.approx((19 / 24) ** 3, abs=1e-12)
        assert geometric_upper_bound(star, 0.5) == pytest.approx(0.4921875, abs=1e-12)
        assert arithmetic_upper_bound(star, 0.5) < exact
        assert geometric_upper_bound(star, 0.5) < exact

    def test_vacuous_at_p_zero(self):
        g = cycle_graph(6)
        assert arithmetic_upper_bound(g, 0.0) == 1.0
        assert geometric_upper_bound(g, 0.0) == 1.0

    def test_one_at_p_one_without_isolated_nodes(self):
        g = cycle_graph(6)
        assert arithmetic_upper_bound(g, 1.0) == 1.0
        assert geometric_upper_bound(g, 1.0) == 1.0

    def test_isolated_node_at_p_one(self):
        # the geometric product carries the isolated node's zero factor; the
        # arithmetic mean only dilutes it to (1 - Pr[D=0])^N
        g = Graph(3, [(0, 1)])
        assert geometric_upper_bound(g, 1.0) == 0.0
        assert arithmetic_upper_bound(g, 1.0) == pytest.approx((2 / 3) ** 3, abs=1e-12)

    def test_am_gm_ordering(self, grid99):
        rng = np.random.Generator(np.random.PCG64(55))
        for _ in range(60):
            n = int(rng.integers(2, 40))
            g = generate_er(n, float(rng.uniform(0.05, 0.9)), int(rng.integers(1 << 32)))
            for p in grid99[::5]:
                am = arithmetic_upper_bound(g, p)
                gm = geometric_upper_bound(g, p)
                assert am >= gm - 1e-14

    def test_equality_on_regular_graphs(self, grid99):
        for g in (cycle_graph(9), complete_graph(6)):
            for p in grid99[::7]:
                assert arithmetic_upper_bound(g, p) == pytest.approx(
                    geometric_upper_bound(g, p), abs=1e-14
                )


class TestErFormulas:
    def test_connectivity_threshold_value(self):
        n = 1000
        model = ErModel(n, math.log(n) / n)
        assert er_node_reliability(model, 1.0) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_zero_link_probability(self):
        model = ErModel(100, 0.0)
        assert er_node_reliability(model, 0.5) == pytest.approx(math.exp(-50), rel=1e-12)

    def test_dense_limit_is_one(self):
        model = ErModel(1000, 0.5)
        assert er_node_reliability(model, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_intersection_worked_example(self):
        # mean degrees 5 and 12 with sizes 100 and 10000
        res = er_intersection(ErModel(100, 0.05), ErModel(10000, 0.0012))
        assert res.p == pytest.approx(0.2683, abs=1e-4)
        assert res.inside
        expected_value = math.exp(-res.p / (math.exp(5 * res.p) / 100))
        assert res.value == pytest.approx(expected_value, rel=1e-12)

    def test_equal_sizes_intersect_at_one_over_n(self):
        res = er_intersection(ErModel(50, 0.1), ErModel(50, 0.2))
        assert res.p == pytest.approx(1 / 50, rel=1e-12)
        assert res.inside

    def test_no_intersection_reported(self):
        # log N1 / log N2 = 1/6 fails to exceed k1/k2 = 10/11
        small, large = ErModel(10, 1.0), ErModel(10**6, 11 / 10**6)
        res = er_intersection(small, large)
        assert not res.inside
        assert res.note == (
            "no intersection in (0, 1): needs log N1 / log N2 > k1/k2, "
            "but 2.30259/13.8155 <= 10/11"
        )
        assert er_intersection(large, small).note == (
            "no intersection in (0, 1): needs log N1 / log N2 < k1/k2, "
            "but 13.8155/2.30259 >= 11/10"
        )

    def test_equal_mean_degree_rejected(self):
        with pytest.raises(ValueError):
            er_intersection(ErModel(100, 0.05), ErModel(200, 0.025))

    def test_width_worked_example(self):
        model = ErModel(1000, 0.02)  # N p_l = 20
        width = er_transition_width(model, 0.01, 0.99)
        assert width == pytest.approx(0.3063, abs=1e-3)

    def test_width_halves_when_density_doubles(self):
        a = er_transition_width(ErModel(1000, 0.02), 0.01, 0.99)
        b = er_transition_width(ErModel(1000, 0.04), 0.01, 0.99)
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_width_degenerate_levels(self):
        assert er_transition_width(ErModel(100, 0.1), 0.4, 0.4) == 0.0

    def test_width_level_validation(self):
        with pytest.raises(ValueError):
            er_transition_width(ErModel(100, 0.1), 0.0, 0.5)
        with pytest.raises(ValueError):
            er_transition_width(ErModel(100, 0.1), 0.5, 1.0)


class TestRggFormula:
    def test_worked_value(self):
        model = RggModel(100, 0.2)
        assert rgg_node_reliability(model, 1.0) == pytest.approx(0.99983, abs=1e-5)

    def test_single_survivor_is_zero(self):
        model = RggModel(100, 0.2)
        assert rgg_node_reliability(model, 0.01) == 0.0

    def test_full_pair_probability(self):
        r = math.sqrt(1 / math.pi)
        model = RggModel(10, r)
        assert rgg_node_reliability(model, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            RggModel(100, 0.6)  # pi r^2 > 1
        model = RggModel(100, 0.2)
        with pytest.raises(ValueError):
            rgg_node_reliability(model, 0.001)  # N p < 1
