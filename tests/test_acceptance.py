"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
pin every seed and use the full 10^5 run count, so the slow ones take a few
minutes each on two cores; deselect with `-m "not slow"` for a quick pass.
"""

import json
import math
import time

import pytest

from relpoly import (
    ErModel,
    arithmetic_upper_bound,
    build_probe_system,
    closed_form_eval,
    complete_graph,
    cycle_graph,
    enumerate_node_coefficients,
    er_intersection,
    er_node_reliability,
    er_transition_width,
    estimate_link_cut_fractions,
    estimate_node_cut_fractions,
    exact_node_curve_source,
    family_node_coefficients,
    generate_er,
    geometric_upper_bound,
    greedy_lowest_degree_addition,
    highest_degree_addition,
    laplace_curve,
    link_reliability_curve,
    load_edge_list,
    node_reliability_curve,
    node_reliability_s_form,
    power_relation_gap,
    probability_grid,
    random_pairing_addition,
    recover_cut_counts,
    save_edge_list,
    stochastic_link_reliability,
    stochastic_node_curve,
    stochastic_node_reliability,
)
from relpoly.cli import main as cli_main
from relpoly.graph import FAMILIES
from relpoly.kgrip import objective, restructuring_delta
from conftest import CORPUS, INTERIOR_GRID_99, WORKERS
from oracle import brute_cut_counts


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_forms_match_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    for family, (builder, _, _) in FAMILIES.items():
        for n in range(3, 11):
            coeffs = enumerate_node_coefficients(builder(n))
            for p in INTERIOR_GRID_99:
                gap = abs(closed_form_eval(family, n, p) - node_reliability_s_form(coeffs, p))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"six families, N in [3,10], 99-point grid: worst gap {worst:.2e} < 1e-10, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_complement_identity_exact():
    checked = 0
    ok = True
    for i in range(100):
        n = 4 + (i % 11)
        g = generate_er(n, 0.15 + 0.05 * (i % 10), seed=20000 + i)
        s = enumerate_node_coefficients(g).connected_counts
        cut_oracle = brute_cut_counts(g)
        for k in range(n + 1):
            if s[k] + cut_oracle[n - k] != math.comb(n, k):
                ok = False
        checked += 1
    _report(2, ok and checked >= 100, f"S_k + C_(N-k) = C(N,k) exactly on {checked} random graphs, N <= 14")


@pytest.mark.slow
def test_criterion_3_mc_convergence(corpus_n10):
    t0 = time.perf_counter()
    worst = 0.0
    for idx, (label, g) in enumerate(corpus_n10):
        coeffs = enumerate_node_coefficients(g)
        est = estimate_node_cut_fractions(g, 100000, seed=9000 + idx, workers=WORKERS)
        curve = node_reliability_curve(est, INTERIOR_GRID_99)
        gap = max(
            abs(v - node_reliability_s_form(coeffs, p))
            for p, v in zip(curve.grid, curve.values)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        worst < 0.02 and elapsed < 60.0,
        f"{len(corpus_n10)} corpus graphs N<=10 at M=1e5: worst sup-gap {worst:.4f} < 0.02, {elapsed:.0f}s < 60s",
    )


def test_criterion_4_laplace_improves_with_size():
    # sup taken over p in [0.10, 0.99]: for any grid touching p <= 2/N the
    # singleton convention pins the estimate near 1 while the exact curve
    # sits near 1 - 1/e, and that artifact grows with N instead of shrinking
    grid = tuple(p for p in INTERIOR_GRID_99 if p >= 0.10)
    gaps = []
    for n in (11, 101, 501):
        coeffs = family_node_coefficients("star", n)
        curve = laplace_curve(coeffs, grid)
        gap = max(
            abs(v - closed_form_eval("star", n, p)) for p, v in zip(curve.grid, curve.values)
        )
        gaps.append(gap)
    ok = gaps[0] > gaps[1] > gaps[2]
    _report(4, ok, f"star concentration gaps strictly fall: {gaps[0]:.3f} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_5_am_gm_ordering():
    worst_violation = 0.0
    for i in range(200):
        n = 2 + (i % 49)
        g = generate_er(n, 0.05 + 0.9 * ((i * 37) % 100) / 100, seed=30000 + i)
        for p in INTERIOR_GRID_99[::3]:
            am = arithmetic_upper_bound(g, p)
            gm = geometric_upper_bound(g, p)
            worst_violation = max(worst_violation, gm - am)
    equality_gap = 0.0
    for g in (cycle_graph(12), complete_graph(9)):
        for p in INTERIOR_GRID_99[::3]:
            equality_gap = max(
                equality_gap, abs(arithmetic_upper_bound(g, p) - geometric_upper_bound(g, p))
            )
    ok = worst_violation <= 1e-14 and equality_gap <= 1e-14
    _report(
        5,
        ok,
        f"200 random graphs x 99-grid: arith >= geom within {worst_violation:.1e}; regular equality gap {equality_gap:.1e}",
    )


@pytest.mark.slow
def test_criterion_6_stochastic_trend_with_size():
    # first seeds whose realizations are connected at p_l = log N / N
    seeds = {200: 1, 500: 0, 1000: 2, 2000: 2}
    grid = probability_grid(101)[1:]  # the formula's p = 0 limit is a documented failure
    gaps = []
    for n in (200, 500, 1000, 2000):
        g = generate_er(n, math.log(n) / n, seeds[n])
        assert g.is_connected()
        est = estimate_node_cut_fractions(g, 100000, seed=1000 + n, workers=WORKERS)
        mc = node_reliability_curve(est, grid)
        st = stochastic_node_curve(g, grid)
        gaps.append(mc.sup_gap(st))
    inversions = [
        max(b - a, 0.0) for a, b in zip(gaps, gaps[1:])
    ]
    bad = [x for x in inversions if x > 0]
    ok = len(bad) <= 1 and all(x <= 0.01 for x in bad)
    _report(
        6,
        ok,
        "sup-gaps at N=200,500,1000,2000: "
        + ", ".join(f"{x:.4f}" for x in gaps)
        + f"; inversions {bad}",
    )


@pytest.mark.slow
def test_criterion_7_power_relation():
    # algebraic identity between the two stochastic approximations
    worst_identity = 0.0
    for label, g in CORPUS:
        if not g.is_connected():
            continue
        for p in probability_grid(51):
            node = stochastic_node_reliability(g, p)
            link = stochastic_link_reliability(g, p)
            worst_identity = max(worst_identity, abs(node - link**p))
    # statistical closeness of the Monte Carlo curves on a dense ER graph;
    # the interior grid matters because x^p degenerates to 1 at p = 0
    g = generate_er(1000, 0.014, 0)
    ne = estimate_node_cut_fractions(g, 100000, seed=71, workers=WORKERS)
    le = estimate_link_cut_fractions(g, 100000, seed=72, workers=WORKERS)
    node_curve = node_reliability_curve(ne, INTERIOR_GRID_99)
    link_curve = link_reliability_curve(le, INTERIOR_GRID_99)
    gap = power_relation_gap(node_curve, link_curve)
    ok = worst_identity < 1e-12 and gap <= 0.05
    _report(
        7,
        ok,
        f"stochastic identity gap {worst_identity:.1e} < 1e-12; ER(1000,0.014) MC power gap {gap:.4f} <= 0.05",
    )


def test_criterion_8_er_formula_behavior():
    threshold_ok = True
    details = []
    for c in (-1, 0, 1):
        n = 10**4
        model = ErModel(n, (math.log(n) + c) / n)
        got = er_node_reliability(model, 1.0)
        want = math.exp(-math.exp(-c))
        details.append(f"c={c}: {got:.4f} vs {want:.4f}")
        if abs(got - want) > 0.02:
            threshold_ok = False
    res = er_intersection(ErModel(100, 0.05), ErModel(10000, 0.0012))
    intersection_ok = abs(res.p - 0.2683) <= 1e-4 and res.inside
    w1 = er_transition_width(ErModel(1000, 0.02), 0.01, 0.99)
    w2 = er_transition_width(ErModel(1000, 0.04), 0.01, 0.99)
    width_ok = w1 == pytest.approx(2 * w2, rel=1e-12)
    _report(
        8,
        threshold_ok and intersection_ok and width_ok,
        f"threshold {'; '.join(details)}; intersection p={res.p:.5f}; width halves {w1:.4f}->{w2:.4f}",
    )


def test_criterion_9_cut_set_round_trip(corpus_n12):
    worst_dev = 0.0
    ok = True
    for label, g in corpus_n12:
        coeffs = enumerate_node_coefficients(g)
        system = build_probe_system(g.num_nodes, exact_node_curve_source(coeffs))
        rec = recover_cut_counts(system)
        if list(rec.counts) != brute_cut_counts(g):
            ok = False
        worst_dev = max(worst_dev, rec.max_rounding_deviation)
    _report(
        9,
        ok and worst_dev < 1e-6,
        f"{len(corpus_n12)} corpus graphs N<=12: integer C vectors recovered, worst deviation {worst_dev:.2e} < 1e-6",
    )


@pytest.mark.slow
def test_criterion_10_kgrip():
    # (a) sign condition, exhaustive over effective degrees <= 20
    sign_ok = True
    for dest in range(0, 21):
        for source in range(1, 21):
            for p in INTERIOR_GRID_99:
                delta = restructuring_delta(dest, source, p)
                if (delta > 0) != (source - 1 > dest):
                    sign_ok = False

    # (b) greedy output admits no descending restructuring, N <= 30, k <= 10
    local_opt_ok = True
    case = 0
    for n in range(4, 31, 2):
        for k in (1, 4, 7, 10):
            g = generate_er(n, 0.25, seed=40000 + case)
            case += 1
            if k > math.comb(n, 2) - g.num_links:
                continue
            augmented, plan = greedy_lowest_degree_addition(g, k)
            deg = augmented.degrees()
            for u, v in plan.added:
                for keep, move in ((u, v), (v, u)):
                    for w in range(n):
                        if w in (keep, move) or augmented.has_link(keep, w):
                            continue
                        if deg[move] - 1 > deg[w]:
                            local_opt_ok = False

    # (c) strategy ordering, surrogate objective level then MC curves
    base = generate_er(200, 0.015, 0)
    greedy_g, _ = greedy_lowest_degree_addition(base, 50)
    random_g, _ = random_pairing_addition(base, 50, seed=1)
    highest_g, _ = highest_degree_addition(base, 50)
    objective_ok = True
    for p in INTERIOR_GRID_99:
        ge, ra, hi = (objective(x, p) for x in (greedy_g, random_g, highest_g))
        if not (ge >= ra - 1e-12 and ra >= hi - 1e-12):
            objective_ok = False

    runs = 100000
    grid = tuple(p for p in INTERIOR_GRID_99 if 0.3 <= p <= 0.9)
    curves = {}
    for name, gg, seed in (("greedy", greedy_g, 501), ("random", random_g, 502), ("highest", highest_g, 503)):
        est = estimate_node_cut_fractions(gg, runs, seed=seed, workers=WORKERS)
        curves[name] = node_reliability_curve(est, grid)
    # each curve value is a convex mixture of binomial fractions, so its MC
    # standard deviation is at most 0.5/sqrt(M); two curves combine by sqrt(2)
    tol = 2 * math.sqrt(2) * 0.5 / math.sqrt(runs)
    mc_ok = all(
        gv >= rv - tol and rv >= hv - tol
        for gv, rv, hv in zip(
            curves["greedy"].values, curves["random"].values, curves["highest"].values
        )
    )
    _report(
        10,
        sign_ok and local_opt_ok and objective_ok and mc_ok,
        f"sign condition exhaustive; greedy locally optimal ({case} instances); "
        f"objective ordering pointwise; MC ordering within {tol:.4f} on p in [0.3, 0.9]",
    )


@pytest.mark.slow
def test_criterion_11_cli_ingests_midsize_network(tmp_path):
    # curves for the real networks themselves are out of scope; the CLI just
    # has to ingest a comparable-size edge list and produce both curves fast
    g = generate_er(600, 0.012, seed=3)
    edge_file = tmp_path / "net.edges"
    edge_file.write_text(save_edge_list(g))
    t0 = time.perf_counter()
    mc_out = tmp_path / "mc.csv"
    st_out = tmp_path / "stoch.csv"
    rc1 = cli_main(
        ["mc", "--input", str(edge_file), "--runs", "10000", "--seed", "11",
         "--grid", "101", "--workers", str(WORKERS), "--out", str(mc_out)]
    )
    rc2 = cli_main(
        ["approx", "stochastic", "--input", str(edge_file), "--grid", "101", "--out", str(st_out)]
    )
    elapsed = time.perf_counter() - t0
    parsed = load_edge_list(edge_file.read_text())
    rows_mc = len(mc_out.read_text().splitlines()) - 1
    rows_st = len(st_out.read_text().splitlines()) - 1
    side = json.loads((tmp_path / "mc.csv.meta.json").read_text())
    ok = (
        rc1 == 0 and rc2 == 0 and parsed.num_nodes == 600
        and rows_mc == 101 and rows_st == 101
        and side["runs"] == 10000 and elapsed < 300.0
    )
    _report(
        11,
        ok,
        f"N=600 edge list -> MC (M=1e4) + stochastic curves in {elapsed:.0f}s < 300s",
    )
