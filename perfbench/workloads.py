"""The benchmark's three workloads.

A workload builds its inputs in `setup`, lists its operations in
`operations` (each a callable that receives the outputs of the operations
before it in the same pass) and judges each pass's outputs in `check_pass`.
All calls go through module attributes (`montecarlo.estimate_...`), so the
traced run sees them. Graph generator seeds are fixed, so every run measures
the same graphs; `--seed` sets every stream the operations draw from: the
Monte Carlo root seeds, the kgrip random seed and the orders checked
against networkx.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks
from relpoly import approx, cli, curve, cutset, exact, graph, kgrip, montecarlo

GRID = curve.probability_grid(101)


class Workload:
    name = ""
    SIZES: dict = {}

    def __init__(self, seed: int, outdir: str, size: str = "full"):
        self.seed = seed
        self.outdir = outdir
        self.p = self.SIZES[size]
        # (operation, kind, graph label, graph, runs) of every serial MC estimate
        self.mc_ops = ()
        self._reference = {}

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def same_file(self, ck, name: str, rows: int):
        """The file's bytes match its first version and hold `rows` lines."""
        with open(self.path(name), "rb") as fh:
            data = fh.read()
        ref = self._reference.setdefault(name, data)
        ck(f"{self.name}: {name} byte-identical with {rows} lines", checks.same_output(ref, data, rows))

    def check_once(self, ck):
        """Checks too slow to repeat every pass."""

    def components(self, med: dict) -> dict:
        """The workload's named end-to-end figures from median operation times."""
        return {}


class McLarge(Workload):
    name = "mc-large"
    SIZES = {
        "full": dict(n=1000, pl=0.014, gseed=0, file=(600, 0.012, 3),
                     node_runs=600, link_runs=400, cli_runs=500, orders=3),
        "tiny": dict(n=60, pl=0.1, gseed=0, file=(30, 0.2, 3),
                     node_runs=24, link_runs=24, cli_runs=20, orders=2),
    }

    def setup(self):
        p = self.p
        self.g = graph.generate_er(p["n"], p["pl"], p["gseed"])
        with open(self.path("net.edges"), "w", encoding="utf-8") as fh:
            fh.write(graph.save_edge_list(graph.generate_er(*p["file"])))
        self.workers = montecarlo.resolve_workers(os.cpu_count())
        self.mc_ops = (
            ("mc_node", "node", "er:1000", self.g, p["node_runs"]),
            ("mc_link", "link", "er:1000", self.g, p["link_runs"]),
        )

    def operations(self):
        g, p, s = self.g, self.p, self.seed
        mc_argv = ["mc", "--input", self.path("net.edges"), "--runs", str(p["cli_runs"]),
                   "--seed", str(s), "--grid", "101", "--workers", "1", "--out", self.path("mc.csv")]
        return (
            ("mc_node", lambda out: montecarlo.estimate_node_cut_fractions(g, p["node_runs"], s, 1)),
            ("mc_link", lambda out: montecarlo.estimate_link_cut_fractions(g, p["link_runs"], s + 1, 1)),
            ("mc_node_par", lambda out: montecarlo.estimate_node_cut_fractions(g, p["node_runs"], s, self.workers)),
            ("curve", lambda out: (montecarlo.node_reliability_curve(out["mc_node"], GRID),
                                   montecarlo.link_reliability_curve(out["mc_link"], GRID))),
            ("cli", lambda out: cli.main(mc_argv)),
        )

    def check_pass(self, out, ck):
        p, connected = self.p, self.g.is_connected()
        ck("mc-large: node counts equal at workers=1 and workers=nproc",
           out["mc_node"].counts == out["mc_node_par"].counts)
        ck("mc-large: node count boundaries", checks.counts_boundary(out["mc_node"].counts, p["node_runs"], connected))
        ck("mc-large: link count boundaries", checks.counts_boundary(out["mc_link"].counts, p["link_runs"], connected))
        ck("mc-large: curves run from 0 to 1 within [0, 1]",
           all(c.values[0] == 0.0 and c.values[-1] == 1.0 and all(0.0 <= v <= 1.0 for v in c.values)
               for c in out["curve"]))
        ck("mc-large: cli mc exit code", out["cli"] == 0)
        self.same_file(ck, "mc.csv", 102)
        with open(self.path("mc.csv.meta.json"), encoding="utf-8") as fh:
            ck("mc-large: cli sidecar run count", json.load(fh)["runs"] == p["cli_runs"])

    def check_once(self, ck):
        n = self.g.num_nodes
        rng = np.random.default_rng(self.seed)
        for i in range(self.p["orders"]):
            order = rng.permutation(n).tolist()
            flags = montecarlo.node_removal_profile(self.g, order)
            flips = {j + d for j in range(n) if flags[j] != flags[j + 1] for d in (0, 1)}
            js = sorted(set(range(0, n + 1, max(1, n // 25))) | flips | {n})
            ck(f"mc-large: node_removal_profile matches networkx on order {i}",
               checks.profile_matches_networkx(self.g, order, flags, js))

    def components(self, med):
        p = self.p
        return {
            "mc_node_runs_per_s": p["node_runs"] / med["mc_node"],
            "mc_link_runs_per_s": p["link_runs"] / med["mc_link"],
            "mc_node_runs_per_s_par": p["node_runs"] / med["mc_node_par"],
            "cli_s": med["cli"],
        }


class ExactSmall(Workload):
    name = "exact-small"
    # N=18 and L=17 rather than 20 and 19: at about half a second per
    # enumeration a run holds twelve or more passes, and their median holds steady
    SIZES = {
        "full": dict(node=("er:18,0.3", 18, 0.3, 1), link=("er:10,0.4", 10, 0.4, 3), mc_runs=2000),
        "tiny": dict(node=("er:8,0.5", 8, 0.5, 1), link=("er:6,0.6", 6, 0.6, 5), mc_runs=200),
    }
    MP_DIMENSION = 12  # the float-probe solve runs on ba:12,3

    def setup(self):
        p = self.p
        small = {
            "cycle:8": graph.cycle_graph(8),
            "er:10,0.3": graph.generate_er(10, 0.3, 102),
            "ba:12,3": graph.generate_ba(12, 3, 107),
        }
        label, n, pl, gseed = p["node"]
        self.node_exact = {label: graph.generate_er(n, pl, gseed), **small}
        label, n, pl, gseed = p["link"]
        self.link_exact = {label: graph.generate_er(n, pl, gseed), "cycle:8": small["cycle:8"]}
        lattice = {"lattice:5x8": graph.generate_lattice((5, 8))}
        mc_graphs = {
            "node": {**self.node_exact, **lattice},
            "link": {**self.link_exact, **{k: small[k] for k in ("er:10,0.3", "ba:12,3")}, **lattice},
        }
        self.mc_ops = tuple(
            (f"mc_{kind}", kind, label, g, p["mc_runs"])
            for kind, graphs in mc_graphs.items()
            for label, g in graphs.items()
        )

    def operations(self):
        return (
            ("exact_node", lambda out: {k: exact.enumerate_node_coefficients(g) for k, g in self.node_exact.items()}),
            ("exact_link", lambda out: {k: exact.enumerate_link_coefficients(g) for k, g in self.link_exact.items()}),
            ("cutset", self._cutsets),
            ("mc_node", lambda out: self._estimates("node")),
            ("mc_link", lambda out: self._estimates("link")),
            ("curve", self._curves),
        )

    def _estimates(self, kind):
        estimate = {"node": montecarlo.estimate_node_cut_fractions, "link": montecarlo.estimate_link_cut_fractions}
        return {label: estimate[kind](g, runs, self.seed + i, 1)
                for i, (_, k, label, g, runs) in enumerate(self.mc_ops) if k == kind}

    def _cutsets(self, out):
        cn = out["exact_node"][self.p["node"][0]]
        cl = out["exact_link"][self.p["link"][0]]
        cb = out["exact_node"]["ba:12,3"]
        n = self.MP_DIMENSION
        float_probes = [(i + 1) / (n + 2) for i in range(n + 1)]
        return (
            cutset.recover_cut_counts(cutset.build_probe_system(
                cn.num_nodes, cutset.exact_node_curve_source(cn))),
            cutset.recover_cut_counts(cutset.build_probe_system(
                cl.num_links, cutset.exact_link_curve_source(cl))),
            cutset.recover_cut_counts(cutset.build_probe_system(
                n, cutset.exact_node_curve_source(cb), float_probes)),
        )

    def _curves(self, out):
        curve_of = {"node": montecarlo.node_reliability_curve, "link": montecarlo.link_reliability_curve}
        mc = {(kind, label): curve_of[kind](est, GRID)
              for kind in ("node", "link") for label, est in out[f"mc_{kind}"].items()}
        return mc, montecarlo.laplace_curve(out["exact_node"][self.p["node"][0]], GRID)

    def check_pass(self, out, ck):
        for label, c in out["exact_node"].items():
            ck(f"exact-small: node coefficient identities on {label}",
               checks.node_coefficient_identities(c, self.node_exact[label]))
        for label, c in out["exact_link"].items():
            ck(f"exact-small: link spanning-tree count on {label}",
               checks.link_spanning_trees(c, self.link_exact[label]))
        node, link, mp = out["cutset"]
        ck("exact-small: exact node cut-set recovery",
           checks.recovered_counts(node, out["exact_node"][self.p["node"][0]].cut_counts))
        ck("exact-small: exact link cut-set recovery",
           checks.recovered_counts(link, checks.link_cut_counts(out["exact_link"][self.p["link"][0]])))
        ck("exact-small: mpmath node cut-set recovery",
           checks.recovered_counts(mp, out["exact_node"]["ba:12,3"].cut_counts))
        exact_value = {"node": exact.node_reliability_s_form, "link": exact.link_reliability}
        mc_curves, laplace = out["curve"]
        for _, kind, label, g, runs in self.mc_ops:
            coeffs = out[f"exact_{kind}"].get(label)
            if coeffs is None:
                ck(f"exact-small: {kind} MC count boundaries on {label}",
                   checks.counts_boundary(out[f"mc_{kind}"][label].counts, runs, g.is_connected()))
            else:
                ck(f"exact-small: {kind} MC curve on {label} within 4 standard errors of exact",
                   checks.mc_within_exact(mc_curves[kind, label].values,
                                          [exact_value[kind](coeffs, p) for p in GRID], runs))
        ck("exact-small: laplace curve within [0, 1]", all(0.0 <= v <= 1.0 for v in laplace.values))

    def components(self, med):
        runs = {kind: sum(r for _, k, _, _, r in self.mc_ops if k == kind) for kind in ("node", "link")}
        return {
            "mc_node_runs_per_s": runs["node"] / med["mc_node"],
            "mc_link_runs_per_s": runs["link"] / med["mc_link"],
            "exact_node_s": med["exact_node"],
            "exact_link_s": med["exact_link"],
            "cutset_s": med["cutset"],
        }


class DegreeLarge(Workload):
    name = "degree-large"
    SIZES = {
        "full": dict(n=5000, gseed=1, k=100),
        "tiny": dict(n=150, gseed=1, k=10),
    }
    P = 0.5  # where the kgrip objective is compared

    def setup(self):
        n = self.p["n"]
        self.pl = 1.5 * math.log(n) / n
        self.radius = math.sqrt(1.5 * math.log(n) / (math.pi * n))

    def operations(self):
        n, gseed, k = self.p["n"], self.p["gseed"], self.p["k"]
        return (
            ("gen", lambda out: (graph.generate_er(n, self.pl, gseed), graph.generate_rgg(n, self.radius, gseed))),
            ("curve", lambda out: [self._curves(g) for g in out["gen"]]),
            ("kgrip", lambda out: self._kgrip(out["gen"][0], k)),
            ("io", self._io),
            ("cli", lambda out: self._cli_chain(k)),
        )

    @staticmethod
    def _curves(g):
        return (
            approx.stochastic_node_curve(g, GRID).values,
            approx.stochastic_link_curve(g, GRID).values,
            [approx.arithmetic_upper_bound(g, p) for p in GRID],
            [approx.geometric_upper_bound(g, p) for p in GRID],
        )

    def _kgrip(self, g, k):
        plans = (
            kgrip.greedy_lowest_degree_addition(g, k),
            kgrip.random_pairing_addition(g, k, self.seed),
            kgrip.highest_degree_addition(g, k),
        )
        return plans, [kgrip.objective(new, self.P) for new, _ in plans]

    def _io(self, out):
        texts = [graph.save_edge_list(g) for g in out["gen"]]
        with open(self.path("er.edges"), "w", encoding="utf-8") as fh:
            fh.write(texts[0])
        return [graph.load_edge_list(t) for t in texts]

    def _cli_chain(self, k):
        f, path = self.path("er.edges"), self.path
        return [cli.main(argv) for argv in (
            ["approx", "stochastic", "--input", f, "--kind", "node", "--out", path("stoch.csv")],
            ["approx", "bounds", "--input", f, "--bound", "geom", "--out", path("geom.csv")],
            ["kgrip", "--input", f, "--k", str(k), "--strategy", "lowest", "--p", str(self.P),
             "--out", path("plan.json")],
            ["compare", path("stoch.csv"), path("geom.csv"), "--out", path("compare.csv")],
        )]

    def check_pass(self, out, ck):
        n, k = self.p["n"], self.p["k"]
        ck("degree-large: generated graphs have N nodes and are connected",
           all(g.num_nodes == n and g.is_connected() for g in out["gen"]))
        for label, (node, link, arith, geom) in zip(("er", "rgg"), out["curve"]):
            ck(f"degree-large: arithmetic bound >= geometric bound on {label}",
               checks.arithmetic_above_geometric(arith, geom))
            ck(f"degree-large: stochastic node = link^p on {label}", checks.power_identity(GRID, node, link))
        plans, objectives = out["kgrip"]
        base = out["gen"][0]
        ck("degree-large: kgrip plans add k new links",
           all(len(plan.added) == k and not any(base.has_link(u, v) for u, v in plan.added)
               for _, plan in plans))
        ck("degree-large: kgrip objective greedy >= random >= highest", checks.kgrip_order(*objectives))
        ck("degree-large: edge lists round-trip", out["io"] == list(out["gen"]))
        ck("degree-large: cli exit codes", out["cli"] == [0, 0, 0, 0])
        self.same_file(ck, "stoch.csv", 102)
        self.same_file(ck, "geom.csv", 102)
        self.same_file(ck, "plan.json", 1)
        self.same_file(ck, "compare.csv", 2)
        with open(self.path("plan.json"), encoding="utf-8") as fh:
            ck("degree-large: cli kgrip plan matches the library plan",
               json.load(fh)["added"] == [list(e) for e in plans[0][1].added])

    def components(self, med):
        return {"gen_s": med["gen"], "kgrip_s": med["kgrip"], "cli_s": med["cli"]}


WORKLOADS = {w.name: w for w in (McLarge, ExactSmall, DegreeLarge)}
