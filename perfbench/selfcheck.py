"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at tiny size, untraced and traced, and asserts that
every metric BENCHMARK.json declares is emitted with its unit and that the
named figures listed in records.json are printed for their workloads. Then
it corrupts one output of a real pass at a time (a count changed, a curve
shifted, a file edited) and asserts that the workload's checks catch it.
Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from relpoly import montecarlo  # noqa: E402


def metrics_are_emitted():
    declared = run.declared_metrics()
    spans = {name for _, _, name, _ in tracer.TARGETS if isinstance(name, str)}
    spans |= {"cutset.recover_exact", "cutset.recover_mpmath"}
    for name in declared["per_layer"]:
        if name.endswith(".self_s"):
            assert name[: -len(".self_s")] in spans, f"{name} names no traced function"
    with open(os.path.join(run.HERE, "records.json"), encoding="utf-8") as fh:
        records = json.load(fh)
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                result = run.run(name, 1, 0.01, trace, size="tiny")
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, (name, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared[kind], (name, trace, set(emitted) ^ set(declared[kind]))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), (name, result["metrics"])
            printed = {ln.split(" = ")[0].strip() for ln in text.getvalue().splitlines() if " = " in ln}
            named = {m for m, rec in records["named"].items() if name in rec["workloads"]}
            assert printed == named, (name, printed ^ named)
        print(f"ok   {name}: every declared metric emitted with its unit")


def one_pass(name):
    outdir = os.path.join(run.HERE, "out", f"selfcheck-{name}")
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](1, outdir, "tiny")
    wl.setup()
    out = {}
    for op, fn in wl.operations():
        out[op] = fn(out)
    ck = checks.Checks()
    wl.check_pass(out, ck)
    assert ck.failed == 0, name
    return wl, out


def bump(est, j=1):
    counts = list(est.counts)
    counts[j] += 1 if counts[j] < est.runs else -1
    return dataclasses.replace(est, counts=tuple(counts))


def shifted(c, by):
    return dataclasses.replace(c, values=tuple(min(1.0, max(0.0, v + by)) for v in c.values))


def edit_file(wl, name):
    def corrupt(out):
        with open(wl.path(name), "ab") as fh:
            fh.write(b"0\n")
    return corrupt


def caught(wl, out, label, corrupt):
    bad = dict(out)
    restore = {}
    for f in os.listdir(wl.outdir):
        with open(wl.path(f), "rb") as fh:
            restore[f] = fh.read()
    corrupt(bad)
    ck = checks.Checks()
    with contextlib.redirect_stderr(io.StringIO()):
        wl.check_pass(bad, ck)
    for f, data in restore.items():
        with open(wl.path(f), "wb") as fh:
            fh.write(data)
    assert ck.failed >= 1, f"{wl.name}: corrupted {label} not caught"
    print(f"ok   {wl.name}: corrupted {label} caught")


def corruptions_are_caught():
    wl, out = one_pass("mc-large")
    cases = {
        "parallel counts": lambda o: o.update(mc_node_par=bump(o["mc_node_par"])),
        "node count boundary": lambda o: o.update(mc_node=bump(o["mc_node"], 0)),
        "link count boundary": lambda o: o.update(mc_link=bump(o["mc_link"], -1)),
        "curve value": lambda o: o.update(curve=(shifted(o["curve"][0], 0.5), o["curve"][1])),
        "cli exit code": lambda o: o.update(cli=1),
        "cli output": edit_file(wl, "mc.csv"),
    }
    for label, corrupt in cases.items():
        caught(wl, out, label, corrupt)
    order = list(range(wl.g.num_nodes))
    flags = montecarlo.node_removal_profile(wl.g, order)
    flipped = list(flags)
    flipped[0] = not flipped[0]
    assert checks.profile_matches_networkx(wl.g, order, flags, range(len(flags)))
    assert not checks.profile_matches_networkx(wl.g, order, flipped, range(len(flags)))
    print("ok   mc-large: flipped removal-profile flag caught")

    wl, out = one_pass("exact-small")
    node_label, link_label = wl.p["node"][0], wl.p["link"][0]

    def node_coeffs(o):
        c = o["exact_node"][node_label]
        s = list(c.connected_counts)
        s[3] += 1
        o["exact_node"] = dict(o["exact_node"], **{node_label: dataclasses.replace(c, connected_counts=tuple(s))})

    def link_coeffs(o):
        c = o["exact_link"][link_label]
        f = list(c.kept_counts)
        f[c.num_links - c.num_nodes + 1] += 1
        o["exact_link"] = dict(o["exact_link"], **{link_label: dataclasses.replace(c, kept_counts=tuple(f))})

    def recovered(o):
        node, link, mp = o["cutset"]
        counts = list(node.counts)
        counts[2] += 1
        o["cutset"] = (dataclasses.replace(node, counts=tuple(counts)), link, mp)

    def mc_curve(o):
        mc, laplace = o["curve"]
        key = ("node", node_label)
        o["curve"] = ({**mc, key: shifted(mc[key], 0.4)}, laplace)

    def lattice_counts(o):
        o["mc_link"] = dict(o["mc_link"], **{"lattice:5x8": bump(o["mc_link"]["lattice:5x8"], -1)})

    def laplace_curve(o):
        mc, laplace = o["curve"]
        o["curve"] = (mc, dataclasses.replace(laplace, values=(1.5,) + laplace.values[1:]))

    cases = {
        "node coefficient": node_coeffs,
        "link coefficient": link_coeffs,
        "recovered cut count": recovered,
        "MC curve": mc_curve,
        "lattice count boundary": lattice_counts,
        "laplace curve": laplace_curve,
    }
    for label, corrupt in cases.items():
        caught(wl, out, label, corrupt)

    wl, out = one_pass("degree-large")

    def swap_bounds(o):
        node, link, arith, geom = o["curve"][0]
        o["curve"] = [(node, link, geom, [a + 1e-6 for a in arith])] + o["curve"][1:]

    def node_vs_link(o):
        node, link, arith, geom = o["curve"][1]
        o["curve"] = [o["curve"][0], (tuple(v * 0.99 for v in node), link, arith, geom)]

    cases = {
        "bound order": swap_bounds,
        "stochastic node curve": node_vs_link,
        "kgrip objectives": lambda o: o.update(kgrip=(o["kgrip"][0], o["kgrip"][1][::-1])),
        "edge-list round trip": lambda o: o.update(io=o["io"][::-1]),
        "cli exit code": lambda o: o.update(cli=[0, 1, 0, 0]),
        "cli curve output": edit_file(wl, "geom.csv"),
    }
    for label, corrupt in cases.items():
        caught(wl, out, label, corrupt)


if __name__ == "__main__":
    corruptions_are_caught()
    metrics_are_emitted()
    print("selfcheck passed")
