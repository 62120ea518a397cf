import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from relpoly import (
    CapacityError,
    ProbeSystem,
    ReliabilityCoefficients,
    build_probe_system,
    complete_graph,
    cycle_graph,
    default_probes,
    enumerate_link_coefficients,
    enumerate_node_coefficients,
    estimate_curve_source,
    estimate_link_cut_fractions,
    estimate_node_cut_fractions,
    exact_link_curve_source,
    exact_node_curve_source,
    family_node_coefficients,
    generate_er,
    generate_lattice,
    node_reliability_s_form,
    path_graph,
    recover_cut_counts,
    source_cut_counts,
    star_graph,
)
from relpoly.cutset import _solve
from oracle import (
    brute_cut_counts,
    direct_link_polynomial,
    direct_node_polynomial,
    gauss_jordan_solve,
    probe_matrix,
)


def exact_system(graph):
    coeffs = enumerate_node_coefficients(graph)
    return build_probe_system(graph.num_nodes, exact_node_curve_source(coeffs))


class TestProbeSystem:
    def test_matrix_row_at_half(self):
        sys2 = build_probe_system(2, lambda p: float(p), probes=[0.25, 0.5, 0.75])
        rows = probe_matrix(sys2)
        assert rows[1] == pytest.approx([0.25, 0.25, 0.25])

    def test_matrix_row_at_quarter(self):
        sys2 = build_probe_system(2, lambda p: float(p), probes=[0.25, 0.5, 0.75])
        assert probe_matrix(sys2)[0] == pytest.approx([0.0625, 0.1875, 0.5625])

    def test_default_probes_interior_equispaced(self):
        probes = default_probes(3)
        assert probes == [Fraction(i + 1, 5) for i in range(4)]

    def test_boundary_probe_rejected(self):
        with pytest.raises(ValueError):
            build_probe_system(2, lambda p: p, probes=[0.0, 0.5, 0.9])

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ValueError):
            build_probe_system(2, lambda p: p, probes=[0.5, 0.5, 0.9])

    def test_probe_count_checked(self):
        with pytest.raises(ValueError):
            build_probe_system(3, lambda p: p, probes=[0.2, 0.4, 0.6])

    def test_rhs_is_one_minus_curve(self):
        coeffs = enumerate_node_coefficients(path_graph(3))
        system = exact_system(path_graph(3))
        for p, r in zip(system.probes, system.rhs):
            assert float(r) == pytest.approx(1.0 - node_reliability_s_form(coeffs, float(p)), abs=1e-12)


class TestExactRecovery:
    def test_path3(self):
        rec = recover_cut_counts(exact_system(path_graph(3)))
        assert rec.counts == (0, 1, 0, 1)
        assert rec.residual == 0.0
        assert rec.max_rounding_deviation < 1e-6

    def test_k3(self):
        rec = recover_cut_counts(exact_system(complete_graph(3)))
        assert rec.counts == (0, 0, 0, 1)

    def test_cycle4(self):
        rec = recover_cut_counts(exact_system(cycle_graph(4)))
        assert rec.counts == (0, 0, 2, 0, 1)

    def test_explicit_probes(self):
        probes = [Fraction(i, 5) for i in range(1, 5)]
        source = exact_node_curve_source(enumerate_node_coefficients(complete_graph(3)))
        assert recover_cut_counts(build_probe_system(3, source, probes)).counts == (0, 0, 0, 1)

    def test_round_trip_matches_brute_force(self, corpus):
        for label, g in corpus:
            if g.num_nodes > 9:
                continue
            rec = recover_cut_counts(exact_system(g))
            assert list(rec.counts) == brute_cut_counts(g), label
            assert rec.max_rounding_deviation < 1e-6, label
            assert not rec.flags, label

    def test_no_rounding_returns_raw(self):
        rec = recover_cut_counts(exact_system(path_graph(4)), rounding=False)
        assert rec.counts == rec.raw
        assert not rec.rounded


class TestExactProbeValues:
    """Exact probe values, summed in integers, against the plain Fraction sums
    of tests/oracle.py, over the whole corpus."""

    @staticmethod
    def probes(n: int) -> list:
        rng = random.Random(n)
        drawn = [Fraction(rng.randrange(1, 10**6), 10**6 + rng.randrange(1, 10**3)) for _ in range(20)]
        return [0, 1, Fraction(0), Fraction(1), *default_probes(n), *drawn]

    @staticmethod
    def check(label, n, source, polynomial, counts, expected_cuts):
        for p in TestExactProbeValues.probes(n):
            value = source(p)
            assert isinstance(value, Fraction) and value == polynomial(counts, Fraction(p)), (label, p)
        # the recovery from the library's probe values is the one from the oracle's
        rec = recover_cut_counts(build_probe_system(n, source))
        assert rec == recover_cut_counts(build_probe_system(n, lambda p: polynomial(counts, p))), label
        assert list(rec.counts) == expected_cuts and rec.max_rounding_deviation == 0.0, label

    def test_node(self, corpus):
        for label, g in corpus:
            c = enumerate_node_coefficients(g)
            self.check(label, g.num_nodes, exact_node_curve_source(c), direct_node_polynomial,
                       c.connected_counts, list(c.cut_counts))

    def test_link(self, corpus):
        for label, g in corpus:
            l = g.num_links
            c = enumerate_link_coefficients(g, cap=l)
            expected = [math.comb(l, j) - f for j, f in enumerate(c.kept_counts)]
            self.check(label, l, exact_link_curve_source(c), direct_link_polynomial, c.kept_counts, expected)


class TestFloatRecovery:
    def test_float_probes_use_extended_precision(self):
        g = star_graph(6)
        coeffs = enumerate_node_coefficients(g)
        probes = [(i + 1) / (g.num_nodes + 2) for i in range(g.num_nodes + 1)]
        system = build_probe_system(g.num_nodes, exact_node_curve_source(coeffs), probes)
        assert not system.exact
        rec = recover_cut_counts(system)
        assert list(rec.counts) == list(coeffs.cut_counts)
        assert rec.max_rounding_deviation < 1e-6
        assert rec.residual < 1e-9

    def test_mc_source_returns_vector_and_residual(self):
        g = path_graph(5)
        est = estimate_node_cut_fractions(g, 10000, seed=11)
        probes = [float(p) for p in default_probes(g.num_nodes)]
        system = build_probe_system(g.num_nodes, estimate_curve_source(est), probes)
        rec = recover_cut_counts(system)
        assert len(rec.counts) == g.num_nodes + 1
        assert math.isfinite(rec.residual)


class TestLinkVariant:
    @pytest.mark.parametrize("graph", [path_graph(5), star_graph(6), cycle_graph(6), cycle_graph(9)])
    def test_recovers_link_cut_counts(self, graph):
        coeffs = enumerate_link_coefficients(graph)
        l = graph.num_links
        system = build_probe_system(l, exact_link_curve_source(coeffs))
        rec = recover_cut_counts(system)
        expected = [math.comb(l, j) - f for j, f in enumerate(coeffs.kept_counts)]
        assert list(rec.counts) == expected


class TestSourceCounts:
    @pytest.mark.parametrize("enumerate_", [enumerate_node_coefficients, enumerate_link_coefficients])
    def test_exact_counts_agree_with_the_solve(self, corpus_n10, enumerate_):
        for label, g in corpus_n10:
            coeffs = enumerate_(g)
            rec = source_cut_counts(coeffs)
            n = len(coeffs.cut_counts) - 1
            curve = {"node": exact_node_curve_source, "link": exact_link_curve_source}[coeffs.kind](coeffs)
            solved = recover_cut_counts(build_probe_system(n, curve))
            assert rec.counts == coeffs.cut_counts == solved.counts, label
            assert rec.max_rounding_deviation == 0.0 and not rec.flags, label

    def test_estimate_counts_are_exact_fractions(self):
        est = estimate_link_cut_fractions(cycle_graph(7), 300, seed=5)
        values = [Fraction(math.comb(7, j) * r, 300) for j, r in enumerate(est.counts)]
        rec = source_cut_counts(est)
        assert rec.counts == tuple(round(v) for v in values)
        assert rec.raw == tuple(float(v) for v in values)
        assert rec.max_rounding_deviation == max(abs(float(v) - round(v)) for v in values)
        assert source_cut_counts(est, rounding=False).counts == rec.raw

    def test_json_has_no_probes_or_residual(self):
        payload = json.loads(source_cut_counts(enumerate_node_coefficients(path_graph(3))).to_json())
        assert payload == {"C": [0, 1, 0, 1], "rounded": True, "max_rounding_deviation": 0.0}

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            source_cut_counts(estimate_node_cut_fractions(path_graph(31), 10, seed=1))


class TestGuards:
    def test_capacity_cap(self):
        system = build_probe_system(31, lambda p: float(p))
        with pytest.raises(CapacityError):
            recover_cut_counts(system)

    def test_consistency_flags(self):
        # a constant "curve" above 1 forces every recovered count negative
        system = build_probe_system(3, lambda p: 2.0, probes=[0.2, 0.4, 0.6, 0.8])
        rec = recover_cut_counts(system)
        assert any("outside" in f for f in rec.flags)
        assert any("empty residual" in f for f in rec.flags)
        # and the JSON report writes them
        payload = json.loads(rec.to_json())
        assert payload["C"] == [-1, -3, -3, -1]
        assert payload["flags"] == list(rec.flags) == [
            "C_0=-1 outside [0, C(3,0)]", "C_1=-3 outside [0, C(3,1)]", "C_2=-3 outside [0, C(3,2)]",
            "C_3=-1 outside [0, C(3,3)]", "C_3=-1 but the empty residual forces 1",
        ]

    def test_json_payload(self):
        rec = recover_cut_counts(exact_system(path_graph(3)))
        payload = json.loads(rec.to_json())
        assert payload["C"] == [0, 1, 0, 1]
        assert payload["rounded"] is True
        assert payload["residual"] == 0.0
        assert payload["probes"] == [float(Fraction(i + 1, 5)) for i in range(4)]


def _uniform_probes(n, seed):
    rng = random.Random(seed)
    return sorted(rng.uniform(0.02, 0.98) for _ in range(n + 1))


def _cycle_link_coefficients(l):
    # removing one link of a cycle keeps it connected, removing two never does
    return ReliabilityCoefficients.link(l, l, [1, l] + [0] * (l - 1))


# (id, builder of a probe system); every kind of system the solver meets
SYSTEMS = (
    ("exact-node-rational", lambda: exact_system(generate_er(10, 0.4, 3))),
    ("exact-link-rational", lambda: build_probe_system(
        10, exact_link_curve_source(enumerate_link_coefficients(generate_lattice((2, 4)))))),
    ("exact-node-rational-n30", lambda: build_probe_system(
        30, exact_node_curve_source(family_node_coefficients("star", 30)))),
    ("exact-link-rational-n30", lambda: build_probe_system(
        30, exact_link_curve_source(_cycle_link_coefficients(30)))),
    ("exact-node-float", lambda: build_probe_system(
        9, exact_node_curve_source(enumerate_node_coefficients(generate_er(9, 0.5, 8))), _uniform_probes(9, 1))),
    ("exact-link-float", lambda: build_probe_system(
        7, exact_link_curve_source(enumerate_link_coefficients(generate_lattice((2, 3)))), _uniform_probes(7, 2))),
    ("exact-node-float-n30", lambda: build_probe_system(
        30, exact_node_curve_source(family_node_coefficients("cycle", 30)), _uniform_probes(30, 3))),
    ("mc-node", lambda: build_probe_system(
        8, estimate_curve_source(estimate_node_cut_fractions(generate_er(8, 0.5, 5), 300, seed=1)))),
    ("mc-link", lambda: build_probe_system(
        7, estimate_curve_source(estimate_link_cut_fractions(generate_lattice((2, 3)), 300, seed=2)),
        _uniform_probes(7, 4))),
    ("mc-node-n30", lambda: build_probe_system(
        30, estimate_curve_source(estimate_node_cut_fractions(path_graph(30), 200, seed=3)))),
    ("mc-link-n29", lambda: build_probe_system(
        29, estimate_curve_source(estimate_link_cut_fractions(cycle_graph(29), 200, seed=4)))),
)


def _as_read(system):
    """The system with every entry as the rational the solver reads it as:
    itself when all-rational, else the float it rounds to."""
    if system.exact:
        return system
    return dataclasses.replace(
        system,
        probes=tuple(Fraction(float(p)) for p in system.probes),
        rhs=tuple(Fraction(float(r)) for r in system.rhs),
    )


class TestExactSolver:
    @pytest.mark.parametrize("build", [b for _, b in SYSTEMS], ids=[i for i, _ in SYSTEMS])
    def test_raw_is_the_oracle_solution(self, build):
        system = build()
        read = _as_read(system)
        expected = gauss_jordan_solve(probe_matrix(read), read.rhs)
        rec = recover_cut_counts(system, rounding=False)
        assert rec.raw == tuple(float(x) for x in expected)
        assert rec.residual == 0.0

    @pytest.mark.parametrize("build", [b for _, b in SYSTEMS], ids=[i for i, _ in SYSTEMS])
    def test_solution_satisfies_the_matrix_exactly(self, build):
        read = _as_read(build())
        solution = _solve(read)
        for row, r in zip(probe_matrix(read), read.rhs):
            assert sum(a * x for a, x in zip(row, solution)) == r

    @pytest.mark.parametrize("probes", [
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)),
        (0.25, 0.5, 0.5),
    ])
    def test_repeated_probes_are_singular(self, probes):
        system = ProbeSystem(2, probes, (Fraction(1, 2),) * 3)
        with pytest.raises(ValueError, match="singular"):
            recover_cut_counts(system)
        with pytest.raises(ValueError, match="singular"):
            gauss_jordan_solve(probe_matrix(system), system.rhs)

    def test_zero_probe_is_a_value_error(self):
        # P itself is regular here, but row 0 has no Vandermonde form t^j
        system = ProbeSystem(1, (Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))
        with pytest.raises(ValueError):
            recover_cut_counts(system)
