import argparse
import json
import math
import multiprocessing
import time
import tracemalloc
from fractions import Fraction

import pytest

from oracle import brute_cut_counts, brute_link_kept_counts
from relpoly import Curve, Graph, cutset, exact, generate_lattice, kgrip, load_edge_list, montecarlo, save_edge_list
from relpoly.cli import _load_graph, build_parser, main
from relpoly.graph import FAMILIES


def run_cli(args):
    return main([str(a) for a in args])


def read_curve(path):
    return Curve.from_csv(path.read_text())


class TestExactAndClosedForm:
    def test_exact_family_cycle(self, tmp_path):
        out = tmp_path / "c6.csv"
        assert run_cli(["exact", "--family", "cycle", "--n", 6, "--grid", 101, "--out", out]) == 0
        curve = read_curve(out)
        assert len(curve.grid) == 101
        assert curve.value_at(1.0) == 1.0
        assert curve.value_at(0.0) == 0.0
        side = json.loads((tmp_path / "c6.csv.meta.json").read_text())
        assert side["method"] == "exact"

    def test_closed_form_matches_exact(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["exact", "--family", "star", "--n", 7, "--grid", 51, "--out", a])
        run_cli(["closed-form", "--family", "star", "--n", 7, "--grid", 51, "--out", b])
        assert read_curve(a).sup_gap(read_curve(b)) < 1e-10

    def test_coeffs_out(self, tmp_path):
        out = tmp_path / "c.csv"
        coeffs = tmp_path / "coeffs.json"
        run_cli(["exact", "--family", "path", "--n", 3, "--out", out, "--coeffs-out", coeffs])
        payload = json.loads(coeffs.read_text())
        assert payload["S"] == ["0", "3", "2", "1"]

    def test_capacity_error_exit_code(self, tmp_path):
        code = run_cli(["exact", "--gen", "er:30,0.5", "--out", tmp_path / "x.csv"])
        assert code == 1


class TestMc:
    def test_byte_identical_reruns(self, tmp_path):
        g = tmp_path / "g.edges"
        run_cli(["generate", "--gen", "er:12,0.3", "--gen-seed", 5, "--out", g])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--input", g, "--runs", 3000, "--seed", 42, "--grid", 41]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        side = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert side["runs"] == 3000 and side["seed"] == 42

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        base = ["mc", "--family", "cycle", "--n", 9, "--runs", 2000, "--seed", 3, "--grid", 31]
        run_cli(base + ["--workers", 1, "--out", a])
        run_cli(base + ["--workers", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_exact_vs_mc_path6(self, tmp_path):
        e, m = tmp_path / "e.csv", tmp_path / "m.csv"
        run_cli(["exact", "--family", "path", "--n", 6, "--grid", 101, "--out", e])
        run_cli(["mc", "--family", "path", "--n", 6, "--runs", 100000, "--seed", 7,
                 "--grid", 101, "--workers", 2, "--out", m])
        assert read_curve(e).sup_gap(read_curve(m)) < 0.02

    def test_link_kind(self, tmp_path):
        out = tmp_path / "l.csv"
        run_cli(["mc", "--family", "star", "--n", 5, "--kind", "link", "--runs", 500,
                 "--seed", 1, "--grid", 21, "--out", out])
        curve = read_curve(out)
        for p, v in zip(curve.grid, curve.values):
            assert v == pytest.approx(p**4, abs=1e-12)


class TestApprox:
    def test_stochastic(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["approx", "stochastic", "--family", "cycle", "--n", 4, "--grid", 3, "--out", out])
        assert read_curve(out).value_at(0.5) == pytest.approx(0.5625, abs=1e-12)

    def test_bounds(self, tmp_path):
        a, g = tmp_path / "a.csv", tmp_path / "g.csv"
        run_cli(["approx", "bounds", "--family", "star", "--n", 3, "--bound", "arith",
                 "--grid", 3, "--out", a])
        run_cli(["approx", "bounds", "--family", "star", "--n", 3, "--bound", "geom",
                 "--grid", 3, "--out", g])
        assert read_curve(a).value_at(0.5) == pytest.approx((19 / 24) ** 3, abs=1e-12)
        assert read_curve(g).value_at(0.5) == pytest.approx(0.4921875, abs=1e-12)

    def test_er_formula(self, tmp_path):
        out = tmp_path / "er.csv"
        n = 1000
        run_cli(["approx", "er", "--n", n, "--pl", math.log(n) / n, "--grid", 11, "--out", out])
        assert read_curve(out).value_at(1.0) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_connectivity_warning_is_one_plain_line(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        assert run_cli(["generate", "--gen", "er:200,0.02", "--gen-seed", 1, "--out", graph]) == 0
        assert run_cli(["approx", "stochastic", "--input", graph, "--out", tmp_path / "s.csv"]) == 0
        assert capsys.readouterr().err == (
            "warning: stochastic node reliability applied to a disconnected graph; the "
            "no-isolated-node surrogate for connectivity is unreliable there\n"
        )

    def test_empty_graph_is_one_error_line(self, tmp_path, capsys):
        # the empty graph is disconnected, but its error comes alone
        graph = tmp_path / "empty.edges"
        graph.write_text("")
        assert run_cli(["approx", "stochastic", "--input", graph]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree distribution of an empty graph is undefined\n"

    def test_rgg_skips_sub_survivor_grid_points(self, tmp_path, capsys):
        out = tmp_path / "rgg.csv"
        assert run_cli(["approx", "rgg", "--n", 100, "--r", 0.2, "--grid", 101, "--out", out]) == 0
        curve = read_curve(out)
        assert curve.grid[0] == pytest.approx(0.01)
        assert "dropped" in capsys.readouterr().err

    def test_rgg_one_kept_grid_point_exit_1(self, capsys):
        assert run_cli(["approx", "rgg", "--n", 2, "--r", 0.1, "--ps", "0.1,0.6"]) == 1
        assert capsys.readouterr() == (
            "", "note: dropped 1 grid points with N*p < 1\nerror: grid has fewer than two points with N*p >= 1\n"
        )

    def test_rgg_nan_radius_exit_1(self, capsys):
        assert run_cli(["approx", "rgg", "--n", 100, "--r", "nan", "--grid", 3]) == 1
        assert capsys.readouterr() == ("", "error: radius must be nonnegative\n")

    def test_er_intersection_json(self, capsys):
        assert run_cli(["approx", "er-intersection", "--n", 100, "--pl", 0.05,
                        "--n2", 10000, "--pl2", 0.0012]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == pytest.approx(0.2683, abs=1e-4)
        assert payload["inside"] is True

    def test_er_width_json(self, capsys):
        assert run_cli(["approx", "er-width", "--n", 1000, "--pl", 0.02,
                        "--lo", 0.01, "--hi", 0.99]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] == pytest.approx(0.3063, abs=1e-3)


class TestCutsets:
    def test_exact_source(self, capsys):
        assert run_cli(["cutsets", "--family", "path", "--n", 3]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C"] == [0, 1, 0, 1]
        # nothing was solved, so there are no probes and no residual
        assert set(payload) == {"C", "rounded", "max_rounding_deviation"}

    def test_mc_source(self, capsys):
        assert run_cli(["cutsets", "--family", "path", "--n", 4, "--source", "mc",
                        "--runs", 5000, "--seed", 3]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["C"]) == 5

    def test_mc_counts_are_the_estimate(self, capsys):
        # C(30,j) R_j / runs itself; solving back from its curve was off by
        # one count from j = 7 on
        assert run_cli(["cutsets", "--gen", "lattice:5x6", "--source", "mc", "--runs", 2000,
                        "--workers", 1]) == 0
        est = montecarlo.estimate_node_cut_fractions(generate_lattice((5, 6)), 2000, 0, 1)
        expected = [round(Fraction(math.comb(30, j) * r, 2000)) for j, r in enumerate(est.counts)]
        assert json.loads(capsys.readouterr().out)["C"] == expected

    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_exact_counts_match_brute_force(self, tmp_path, capsys, corpus, kind):
        path = tmp_path / "g.edges"
        for label, g in corpus:
            if (g.num_nodes if kind == "node" else g.num_links) > 12:
                continue
            path.write_text(save_edge_list(g))
            assert run_cli(["cutsets", "--input", path, "--kind", kind]) == 0
            if kind == "node":
                expected = brute_cut_counts(g)
            else:
                expected = [math.comb(g.num_links, j) - f for j, f in enumerate(brute_link_kept_counts(g))]
            assert json.loads(capsys.readouterr().out)["C"] == expected, label

    @pytest.mark.parametrize("source", ["exact", "mc"])
    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_default_path_solves_nothing(self, monkeypatch, capsys, source, kind):
        calls = []
        for name in ("build_probe_system", "recover_cut_counts"):
            original = getattr(cutset, name)
            monkeypatch.setattr(cutset, name, lambda *a, _f=original, **k: calls.append(a) or _f(*a, **k))
        assert run_cli(["cutsets", "--family", "cycle", "--n", 5, "--kind", kind, "--source", source,
                        "--runs", 200, "--workers", 1]) == 0
        assert calls == []

    def test_no_unknowns_is_refused(self, capsys):
        assert run_cli(["cutsets", "--family", "path", "--n", 1, "--kind", "link"]) == 1
        assert capsys.readouterr().err == "error: dimension must be positive\n"

    def test_probes_option_is_gone(self, capsys):
        assert run_cli(["cutsets", "--family", "complete", "--n", 3, "--probes", "1/5,2/5,3/5,4/5"]) == 2
        assert "unrecognized arguments: --probes" in capsys.readouterr().err

    @pytest.mark.parametrize("basis", ["s", "c"])
    def test_basis_option_is_gone(self, capsys, basis):
        assert run_cli(["laplace", "--family", "cycle", "--n", 5, "--basis", basis]) == 2
        assert "unrecognized arguments: --basis" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, spied, n", [
        (["--gen", "er:200,0.05", "--source", "mc", "--runs", 20000, "--workers", 1],
         (montecarlo, "estimate_node_cut_fractions"), 200),
        (["--gen", "lattice:5x8", "--kind", "node", "--cap", 40], (exact, "enumerate_node_coefficients"), 40),
    ], ids=["mc", "exact"])
    def test_oversized_dimension_refused_before_the_curve_source(self, monkeypatch, capsys, argv, spied, n):
        module, name = spied
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or original(*a, **k))
        assert run_cli(["cutsets", *argv]) == 1
        assert calls == []
        assert capsys.readouterr().err == f"error: cut-set recovery: n={n} exceeds the cap of 30\n"


class TestKgrip:
    def test_plan_and_objective(self, tmp_path, capsys):
        g = tmp_path / "g.edges"
        run_cli(["generate", "--gen", "er:20,0.15", "--gen-seed", 2, "--out", g])
        assert run_cli(["kgrip", "--input", g, "--k", 5, "--strategy", "lowest", "--p", 0.5]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "lowest"
        assert len(payload["added"]) == 5
        assert payload["objective_after"] >= payload["objective_before"]

    def test_graph_out(self, tmp_path):
        g = tmp_path / "g.edges"
        run_cli(["generate", "--gen", "er:10,0.2", "--gen-seed", 1, "--out", g])
        out = tmp_path / "aug.edges"
        run_cli(["kgrip", "--input", g, "--k", 3, "--strategy", "random", "--seed", 4,
                 "--graph-out", out, "--out", tmp_path / "plan.json"])
        base = load_edge_list(g.read_text())
        augmented = load_edge_list(out.read_text())
        assert augmented.num_links == base.num_links + 3


    @pytest.mark.parametrize("strategy", ["lowest", "highest", "random"])
    @pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
    def test_bad_p_refused_before_any_plan(self, monkeypatch, capsys, strategy, p):
        # k = 500 is above the 96 unlinked pairs of the 4x4 lattice: the bad
        # --p is reported first, and no strategy function is called
        calls = []
        for name in ("greedy_lowest_degree_addition", "highest_degree_addition", "random_pairing_addition"):
            monkeypatch.setattr(kgrip, name, lambda *args, name=name: calls.append(name))
        assert run_cli(["kgrip", "--gen", "lattice:4x4", "--k", 500, "--strategy", strategy, "--p", p]) == 1
        assert capsys.readouterr().err == "error: p must lie in [0, 1]\n"
        assert calls == []


class TestGenerate:
    @pytest.mark.filterwarnings("ignore:stochastic node reliability applied to a disconnected graph")
    def test_trailing_isolated_node_survives_the_file(self, tmp_path):
        # node 199 of this graph has no link; a file without "# nodes 200" read back 199 nodes
        g = tmp_path / "g.edges"
        assert run_cli(["generate", "--gen", "er:200,0.02", "--gen-seed", 27, "--out", g]) == 0
        assert load_edge_list(g.read_text()).num_nodes == 200
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["approx", "stochastic", "--input", g, "--kind", "node", "--out", a]) == 0
        assert run_cli(["approx", "stochastic", "--gen", "er:200,0.02", "--gen-seed", 27, "--kind", "node",
                        "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rgg_nan_radius_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert run_cli(["generate", "--gen", "rgg:10,nan", "--out", out]) == 2
        assert capsys.readouterr().err == "usage error: bad generator spec 'rgg:10,nan': radius must be nonnegative\n"
        assert not out.exists()


class TestCompare:
    def test_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        run_cli(["exact", "--family", "cycle", "--n", 5, "--grid", 21, "--out", a])
        assert run_cli(["compare", a, a]) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[0] == "a,b,sup_gap,mean_abs_gap"
        _, _, sup, mean = report[1].split(",")
        assert float(sup) == 0.0 and float(mean) == 0.0

    def test_power_transform_with_grid_exponent(self, tmp_path, capsys):
        # the stochastic node curve IS the stochastic link curve to the power p,
        # so comparing with --power p must report a zero sup gap
        node = tmp_path / "node.csv"
        link = tmp_path / "link.csv"
        run_cli(["approx", "stochastic", "--family", "cycle", "--n", 8, "--kind", "node",
                 "--grid", 21, "--out", node])
        run_cli(["approx", "stochastic", "--family", "cycle", "--n", 8, "--kind", "link",
                 "--grid", 21, "--out", link])
        assert run_cli(["compare", node, link, "--power", "p"]) == 0
        report = capsys.readouterr().out.splitlines()
        assert float(report[1].split(",")[2]) < 1e-12

    def test_power_transform_with_constant(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        run_cli(["exact", "--family", "complete", "--n", 4, "--grid", 11, "--out", a])
        assert run_cli(["compare", a, a, "--power", "1.0"]) == 0
        report = capsys.readouterr().out.splitlines()
        assert float(report[1].split(",")[2]) == 0.0

    def test_nan_grid_point_exit_1(self, tmp_path, capsys):
        # NaN compares False with everything: the range check must still
        # reject it, not leave a file to mismatch its own grid
        a = tmp_path / "a.csv"
        a.write_text("p,value\n0,1\nnan,0.5\n")
        assert run_cli(["compare", a, a]) == 1
        assert capsys.readouterr().err == f"error: {a}: line 3: grid points must lie in [0, 1], got 'nan,0.5'\n"

    @pytest.mark.parametrize("bad", ["first", "second"])
    def test_bad_row_names_its_file(self, tmp_path, capsys, bad):
        good = tmp_path / "good.csv"
        run_cli(["exact", "--family", "cycle", "--n", 5, "--grid", 3, "--out", good])
        broken = tmp_path / "broken.csv"
        broken.write_text("p,value\n0,1\n\n0.5,1,2\n1,0\n")
        files = [broken, good] if bad == "first" else [good, broken]
        assert run_cli(["compare", *files]) == 1
        assert capsys.readouterr().err == (
            f"error: {broken}: line 4: expected two numbers p,value, got '0.5,1,2'\n"
        )

    @pytest.mark.parametrize("empty", ["first", "second"])
    def test_curve_without_points_names_its_file(self, tmp_path, capsys, empty):
        # a file with only its header is refused, not compared as a curve of no points
        good = tmp_path / "good.csv"
        run_cli(["exact", "--family", "cycle", "--n", 5, "--grid", 3, "--out", good])
        header = tmp_path / "header.csv"
        header.write_text("p,value\n")
        files = [header, good] if empty == "first" else [good, header]
        assert run_cli(["compare", *files]) == 1
        assert capsys.readouterr().err == f"error: {header}: curve CSV has no points\n"

    @pytest.mark.parametrize("power", [None, "2"], ids=["plain", "power2"])
    @pytest.mark.parametrize("value, row", [("nan", 0), ("nan", 1), ("inf", 1), ("-inf", 2)],
                             ids=["nan-first", "nan-middle", "inf", "-inf"])
    def test_value_not_finite_exit_1(self, tmp_path, capsys, value, row, power):
        # a gap to a NaN or an infinite value is no gap: the file is refused
        # as it is read, before any power is taken
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = ["0,0", "0.5,0.5", "1,1"]
        a.write_text("p,value\n" + "\n".join(rows) + "\n")
        rows[row] = rows[row].split(",")[0] + "," + value
        b.write_text("p,value\n" + "\n".join(rows) + "\n")
        flags = [] if power is None else [f"--power={power}"]
        assert run_cli(["compare", a, b, *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {b}: line {row + 2}: values must be finite, got '{rows[row]}'\n")

    def test_grid_mismatch_exit_1(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["exact", "--family", "cycle", "--n", 5, "--grid", 21, "--out", a])
        run_cli(["exact", "--family", "cycle", "--n", 5, "--grid", 31, "--out", b])
        assert run_cli(["compare", a, b]) == 1

    def test_one_file_is_usage_error_before_it_is_read(self, capsys):
        assert run_cli(["compare", "/nonexistent/a.csv"]) == 2
        assert capsys.readouterr().err == "usage error: compare needs at least two curve files\n"

    def test_bad_power_is_usage_error_before_files_are_read(self, capsys):
        assert run_cli(["compare", "/nonexistent/a.csv", "/nonexistent/b.csv", "--power", "x"]) == 2
        assert capsys.readouterr().err == 'usage error: --power takes a number or the letter "p"\n'

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf"])
    def test_power_not_finite_is_usage_error(self, capsys, power):
        assert run_cli(["compare", "/nonexistent/a.csv", "/nonexistent/b.csv", f"--power={power}"]) == 2
        assert capsys.readouterr().err == f"usage error: --power must be finite, got {power!r}\n"

    @pytest.mark.parametrize("value, power", [
        ("0", "-1"),  # ZeroDivisionError in Python
        ("1e308", "2"),  # OverflowError
        ("-0.5", "0.5"),  # a complex number in Python
        ("-0.5", "p"),  # the same, with the grid point 0.5 as the power
    ])
    def test_power_without_finite_real_value_exit_1(self, tmp_path, capsys, value, power):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("p,value\n0,1\n0.5,1\n1,1\n")
        b.write_text(f"p,value\n0,1\n0.5,{value}\n1,1\n")
        assert run_cli(["compare", a, b, f"--power={power}"]) == 1
        named = 0.5 if power == "p" else float(power)
        message = f"error: {b}: cannot raise the value {float(value)!r} to the power {named!r}\n"
        assert capsys.readouterr() == ("", message)


class TestUsageErrors:
    def test_no_graph_source(self):
        assert run_cli(["exact"]) == 2

    def test_two_graph_sources(self, tmp_path):
        assert run_cli(["exact", "--gen", "er:5,0.5", "--family", "path", "--n", 3]) == 2

    def test_bad_gen_spec(self):
        assert run_cli(["exact", "--gen", "wat:1,2"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["exact", "--family", "path", "--n", 3, "--ps", "0.5,0.2"], "--ps must be strictly increasing"),
        (["exact", "--family", "path", "--n", 3, "--ps", "0.2,0.2"], "--ps must be strictly increasing"),
        (["exact", "--family", "path", "--n", 3, "--ps", "0.5,1.5"], "--ps values must lie in [0, 1]"),
        (["exact", "--gen", "er:abc,0.1"],
         "bad generator spec 'er:abc,0.1': invalid literal for int() with base 10: 'abc'"),
        (["exact", "--family", "path"], "--family requires --n"),
    ], ids=["ps-decreasing", "ps-repeated", "ps-above-one", "gen-spec-not-a-number", "family-without-n"])
    def test_usage_error_line(self, capsys, argv, message):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_approx_er_missing_params(self):
        assert run_cli(["approx", "er", "--n", 100]) == 2
        assert run_cli(["approx", "rgg", "--r", 0.2]) == 2
        assert run_cli(["approx", "er-intersection", "--n", 100, "--pl", 0.05]) == 2

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_input_file(self, tmp_path):
        assert run_cli(["exact", "--input", tmp_path / "absent.edges"]) == 1

    def test_input_id_beyond_int64(self, tmp_path, capsys):
        g = tmp_path / "huge.edges"
        g.write_text("0 1\n10000000000000000000 1\n")
        assert run_cli(["approx", "stochastic", "--input", g]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: node id 10000000000000000000")

    def test_input_id_above_node_limit(self, tmp_path, capsys):
        # 10^10 nodes would need about 75 GiB of adjacency: refused up front
        g = tmp_path / "huge.edges"
        g.write_text("10000000000 1\n")
        assert run_cli(["approx", "stochastic", "--input", g]) == 1
        assert capsys.readouterr().err.startswith("error: line 1: node id 10000000000 needs more nodes than the limit")

    @pytest.mark.parametrize("source, count", [
        (["--gen", "lattice:100000x100000"], 10**10),
        (["--gen", "lattice:10000x1001"], 10010000),
        (["--gen", "lattice:1000x1000x11"], 11000000),
        (["--gen", "er:10000001,0.5"], 10000001),
        (["--gen", "rgg:20000000,0.1"], 20000000),
        (["--gen", "ba:1000000000,2"], 10**9),
        (["--family", "path", "--n", 10**9], 10**9),
        (["--family", "complete", "--n", 10000001], 10000001),
    ], ids=["lattice-2d", "lattice-2d-just-above", "lattice-3d", "er", "rgg", "ba", "path", "complete"])
    def test_graph_source_above_node_limit(self, capsys, source, count):
        # refused before anything is built: a path of 10^9 nodes or a
        # 10^5 x 10^5 lattice would need tens of GiB
        tracemalloc.start()
        try:
            code = run_cli(["approx", "stochastic", *source])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        label = source[1] if source[0] == "--gen" else f"{source[1]}:{source[3]}"
        assert capsys.readouterr().err == f"error: {label} has {count} nodes, above the limit of 10000000\n"
        assert peak < 1 << 20

    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("relpoly.cli.generate_lattice", exhausted)
        assert run_cli(["approx", "stochastic", "--gen", "lattice:1000x1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory; the input is too large for the memory available\n"

    def test_out_of_memory_in_a_worker_process(self, monkeypatch, capsys):
        # the forked child that sweeps runs 20..39 runs out of memory; the
        # caller re-raises its MemoryError
        count_range = montecarlo._count_range

        def short_of_memory(kind, graph, seed, start, stop):
            if start:
                raise MemoryError
            return count_range(kind, graph, seed, start, stop)

        monkeypatch.setattr(montecarlo, "resolve_workers", lambda workers: workers)
        monkeypatch.setattr(montecarlo, "_count_range", short_of_memory)
        assert run_cli(["mc", "--family", "complete", "--n", 14, "--runs", 40, "--workers", 2]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory; the input is too large for the memory available\n"
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("source, message", [
        (["--gen", "er:100000,0.5"], "er:100000,0.5 expects about 2499975000 links"),
        (["--gen", "rgg:100000,0.1"], "rgg:100000,0.1 expects about 157078062 links"),
        (["--gen", "lattice:10000x1000"], "lattice:10000x1000 has 19989000 links"),
        (["--gen", "ba:5000000,3"], "ba:5000000,3 has 14999994 links"),
        (["--family", "complete", "--n", 5000], "complete:5000 has 12497500 links"),
    ], ids=["er", "rgg", "lattice", "ba", "complete"])
    def test_graph_source_above_link_limit(self, tmp_path, capsys, source, message):
        # each is within the node limit; er:100000,0.5 would draw 5*10^9 doubles
        out = tmp_path / "g.edges"
        start = time.perf_counter()
        code = run_cli(["generate", *source, "--out", out] if source[0] == "--gen"
                       else ["approx", "stochastic", *source])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}, above the limit of 10000000\n"

    @pytest.mark.parametrize("spec, pairs", [
        ("er:1000000,0.000005", 499999500000),
        ("er:44722,0.0001", 1000006281),
    ], ids=["mean-degree-5", "just-above"])
    def test_er_above_pair_limit(self, tmp_path, capsys, spec, pairs):
        # within the node and link limits, but one draw per pair would take
        # seconds to over half an hour: refused before any draw
        out = tmp_path / "g.edges"
        start = time.perf_counter()
        assert run_cli(["generate", "--gen", spec, "--out", out]) == 1
        assert time.perf_counter() - start < 1.0 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {spec} has C(N,2) = {pairs} node pairs to draw, above the limit of 1000000000\n"
        )

    def test_er_at_pair_limit_is_built(self, monkeypatch):
        # C(44721, 2) = 999961560 pairs pass; the generator is not run here
        built = []
        monkeypatch.setattr("relpoly.cli.generate_er", lambda *args: built.append(args) or Graph(2, [(0, 1)]))
        assert run_cli(["approx", "stochastic", "--gen", "er:44721,0.0001"]) == 0
        assert built == [(44721, 0.0001, 0)]

    @pytest.mark.parametrize("source", [
        ["--gen", "ba:30,3"], ["--gen", "ba:5,4"], ["--gen", "lattice:4x5"], ["--gen", "lattice:1x7"],
        ["--gen", "lattice:2x3x4"],
        *(["--family", name, "--n", n] for name, (_, low, _) in FAMILIES.items() for n in (low, 9)),
    ], ids=lambda source: "-".join(str(a) for a in source if not str(a).startswith("--")))
    def test_exact_link_count_is_the_built_one(self, monkeypatch, source):
        checked = []
        monkeypatch.setattr("relpoly.cli._check_size",
                            lambda label, nodes, links, expected=False: checked.append((nodes, links, expected)))
        graph, _ = _load_graph(build_parser().parse_args(["exact", *map(str, source)]))
        assert checked == [(graph.num_nodes, graph.num_links, False)]

    def test_dense_rgg_within_link_limit(self, tmp_path, monkeypatch):
        # the dense CI graph (2.7M links, about 3.5M expected) is accepted; a stub builds it
        built = []
        monkeypatch.setattr("relpoly.cli.generate_rgg", lambda *args: built.append(args) or generate_lattice((2, 2)))
        assert run_cli(["generate", "--gen", "rgg:5000,0.3", "--out", tmp_path / "g.edges"]) == 0
        assert built == [(5000, 0.3, 0)]

    def test_generate_above_node_limit(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert run_cli(["generate", "--gen", "er:10000001,0.1", "--out", out]) == 1
        assert "above the limit of 10000000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["exact", "--family", "path", "--n", 3, "--ps", "0.1,abc"],
    ], ids=["ps-not-a-number"])
    def test_malformed_number_is_usage_error(self, capsys, argv):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and argv[-2] in err


MC_COMMANDS = (
    ["mc", "--family", "cycle", "--n", 5, "--runs", 20],
    ["laplace", "--family", "cycle", "--n", 5, "--source", "mc", "--runs", 20],
    ["cutsets", "--family", "cycle", "--n", 5, "--source", "mc", "--runs", 20],
)

# every command with a --grid flag
GRID_COMMANDS = (
    ["exact", "--family", "cycle", "--n", 5],
    ["closed-form", "--family", "cycle", "--n", 5],
    MC_COMMANDS[0],
    ["laplace", "--family", "cycle", "--n", 5],
    ["approx", "stochastic", "--family", "cycle", "--n", 5],
)


CAP_COMMANDS = [
    ["exact", "--family", "cycle", "--n", 4],
    ["laplace", "--family", "cycle", "--n", 4, "--source", "exact"],
    ["cutsets", "--family", "cycle", "--n", 4, "--source", "exact"],
]


class TestCountFlags:
    """--runs, --grid, --k and --cap below their least value are usage errors
    that name the flag, caught at parse time like --workers."""

    @pytest.mark.parametrize("value", [0, -3, "abc", "2.5"])
    @pytest.mark.parametrize("argv", CAP_COMMANDS, ids=lambda a: a[0])
    def test_cap_below_one(self, capsys, argv, value):
        assert run_cli(argv + ["--cap", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--cap" in err

    @pytest.mark.parametrize("argv", CAP_COMMANDS, ids=lambda a: a[0])
    def test_cap_below_the_size_exits_1(self, capsys, argv):
        assert run_cli(argv + ["--cap", 3]) == 1
        assert "exceeds the cap of 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -1, "1.5", "many"])
    @pytest.mark.parametrize("argv", MC_COMMANDS, ids=lambda a: a[0])
    def test_runs_below_one(self, capsys, argv, value):
        # the last --runs wins, so this overrides the command's own
        assert run_cli(argv + ["--runs", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--runs" in err

    @pytest.mark.parametrize("argv", [
        ["laplace", "--family", "cycle", "--n", 5, "--source", "exact"],
        ["cutsets", "--family", "path", "--n", 4, "--source", "exact"],
    ], ids=lambda a: a[0])
    def test_runs_checked_without_monte_carlo(self, capsys, argv):
        assert run_cli(argv + ["--runs", 0]) == 2
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, 1, -3, "2.5"])
    @pytest.mark.parametrize("argv", GRID_COMMANDS, ids=lambda a: "-".join(a[:2]) if a[0] == "approx" else a[0])
    def test_grid_below_two(self, capsys, argv, value):
        assert run_cli(argv + ["--grid", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--grid" in err

    def test_grid_of_two_runs(self, capsys):
        assert run_cli(["exact", "--family", "cycle", "--n", 5, "--grid", 2]) == 0
        assert capsys.readouterr().out.count("\n") == 3  # header and two points

    @pytest.mark.parametrize("strategy", ["lowest", "highest", "random"])
    @pytest.mark.parametrize("value", [0, -1, "two"])
    def test_k_below_one(self, capsys, strategy, value):
        assert run_cli(["kgrip", "--family", "path", "--n", 5, "--strategy", strategy, "--k", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--k" in err


class TestWorkerSettings:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    @pytest.mark.parametrize("argv", MC_COMMANDS, ids=lambda a: a[0])
    def test_bad_env_is_usage_error(self, monkeypatch, capsys, argv, value):
        monkeypatch.setenv("RELPOLY_THREADS", value)
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "RELPOLY_THREADS" in err

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("argv", MC_COMMANDS, ids=lambda a: a[0])
    def test_workers_below_one_is_usage_error(self, capsys, argv, workers):
        assert run_cli(argv + ["--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--workers" in err

    @pytest.mark.parametrize("argv", [
        ["laplace", "--family", "cycle", "--n", 5, "--source", "exact"],
        ["cutsets", "--family", "path", "--n", 4, "--source", "exact"],
    ], ids=lambda a: a[0])
    def test_workers_checked_without_monte_carlo(self, capsys, argv):
        assert run_cli(argv + ["--workers", 0]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--workers" in err

    @pytest.mark.parametrize("argv", MC_COMMANDS, ids=lambda a: a[0])
    def test_workers_must_be_an_integer(self, capsys, argv):
        assert run_cli(argv + ["--workers", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--workers" in err

    def test_good_env_runs(self, monkeypatch, capsys):
        monkeypatch.setenv("RELPOLY_THREADS", "1")
        assert run_cli(MC_COMMANDS[0] + ["--workers", 2, "--grid", 3]) == 0


GRAPH_SOURCE = {"--input", "--gen", "--gen-seed", "--family", "--n"}
GRID = {"--grid", "--ps"}

# method -> (every option it takes, the required ones)
APPROX_OPTIONS = {
    "stochastic": (GRAPH_SOURCE | GRID | {"--kind", "--out"}, set()),
    "bounds": (GRAPH_SOURCE | GRID | {"--bound", "--out"}, set()),
    "er": (GRID | {"--n", "--pl", "--out"}, {"--n", "--pl"}),
    "rgg": (GRID | {"--n", "--r", "--out"}, {"--n", "--r"}),
    "er-intersection": ({"--n", "--pl", "--n2", "--pl2", "--out"}, {"--n", "--pl", "--n2", "--pl2"}),
    "er-width": ({"--n", "--pl", "--lo", "--hi", "--out"}, {"--n", "--pl"}),
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestApproxOptionSets:
    """Each approx method takes only the options it reads."""

    def test_methods(self):
        assert set(_subparsers(_subparsers(build_parser())["approx"])) == set(APPROX_OPTIONS)

    @pytest.mark.parametrize("method", APPROX_OPTIONS)
    def test_option_set(self, method):
        actions = [a for a in _subparsers(_subparsers(build_parser())["approx"])[method]._actions
                   if not isinstance(a, argparse._HelpAction)]
        options, required = APPROX_OPTIONS[method]
        assert {s for a in actions for s in a.option_strings} == options
        assert {s for a in actions if a.required for s in a.option_strings} == required

    @pytest.mark.parametrize("argv", [
        ["approx", "er", "--n", 100, "--pl", 0.05, "--kind", "link"],
        ["approx", "bounds", "--family", "star", "--n", 3, "--kind", "link"],
        ["approx", "er", "--family", "cycle", "--n", 5, "--pl", 0.5],
        ["approx", "er-width", "--n", 1000, "--pl", 0.02, "--grid", 5],
    ], ids=["er-kind", "bounds-kind", "er-family", "er-width-grid"])
    def test_option_of_another_method_is_usage_error(self, capsys, argv):
        assert run_cli(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
