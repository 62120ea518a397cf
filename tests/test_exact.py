import math
from fractions import Fraction

import pytest

from relpoly import (
    CapacityError,
    Graph,
    ReliabilityCoefficients,
    closed_form_eval,
    complete_graph,
    complete_pendant_graph,
    cycle_graph,
    enumerate_link_coefficients,
    enumerate_node_coefficients,
    family_node_coefficients,
    link_reliability,
    node_reliability_c_form,
    node_reliability_s_form,
    path_graph,
    star_graph,
    star_pendant_graph,
)
from relpoly.graph import FAMILIES
from oracle import (
    brute_connected_counts,
    brute_cut_counts,
    brute_link_kept_counts,
    cycle_rational_form,
    direct_link_polynomial,
    direct_node_polynomial,
    node_curve_value_exact,
    path_rational_form,
)


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

    def test_decimal_strings_preserve_big_integers(self):
        c = family_node_coefficients("complete", 80)
        again = ReliabilityCoefficients.from_json(c.to_json())
        assert again.connected_counts == c.connected_counts
        assert max(c.connected_counts) == math.comb(80, 40)
