"""relpoly benchmark: one closed-loop caller running one workload.

    python3 perfbench/run.py --workload mc-large --seed 1 --seconds 30 --trace 0

Run from the root of a relpoly checkout; relpoly is imported from its `src/`.
The workload's operations run one at a time, each call after the previous
one returns, in passes. The first pass warms caches and records the
reference outputs; then passes repeat for about `--seconds`, and every
pass's outputs are checked.

Every operation time is scaled to the speed of the machine that defined the
benchmark (see `calibrate`), so runs taken while the host is slower or
faster agree. With `--trace 0` the run reports the end-to-end metrics
declared in BENCHMARK.json: `setup_s` (median over fresh interpreters that
import relpoly and build the inputs), `job_s` (median time of one pass) and
`peak_rss_mb`.
With `--trace 1` untraced and traced passes alternate (see tracer.py) and
the run reports the per-layer metrics. Both print the workload's named
figures as text; the last stdout line is the JSON result. The exit code is
1 when an output check failed and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
PROBE_ORDERS = 200  # removal orders per graph for the kernel probes
CURVE_REPEATS = 5
CURVE_REPEAT_S = 0.3
# calibrate() on the machine that defined the benchmark (records.json "machine");
# reported times are seconds at that machine's speed
CAL_REF_S = 0.0070


@functools.cache
def _calibration_data():
    import numpy as np

    order = list(range(200_000))
    random.Random(0).shuffle(order)
    return (order, np.arange(50, dtype=float), np.arange(20_000, dtype=float),
            np.random.default_rng(0).random(250_000))


def calibrate() -> float:
    """Geometric mean time of seven fixed kernels: the machine's speed right now.

    On a shared 2-vCPU Xeon VM the same work ran up to 1.6x slower for
    minutes at a time, and timings of unrelated code drifted together, though
    not evenly: tight loops, big integers, cache-missing list reads, dict
    inserts, numpy calls on tiny arrays and on small and large ones each
    tracked some operations best. Scaling each operation by CAL_REF_S over
    the geometric mean of calibrate() just before and just after it halved
    the spread of medians over 6 passes there.
    """
    import numpy as np

    order, tiny, small, large = _calibration_data()
    mask = (1 << 200) - 1

    def loop():
        s = 0
        for i in range(100_000):
            s += i * i

    def bigint():
        s = 0
        for i in range(30_000):
            s |= (mask >> (i % 150)) & -mask

    def gather():
        s = 0
        for i in range(0, 200_000, 7):
            s += order[order[i]]

    def inserts():
        d = {}
        for i in range(60_000):
            d[i * 7919 % 100_003] = i

    def dispatch():
        for _ in range(3000):
            np.exp(-tiny).sum()

    def vector():
        for _ in range(60):
            np.exp(-small / 20_000.0).sum()

    def stream():
        for _ in range(12):
            (large * 2.0 + 1.0).sum()

    logs = []
    for kernel in (loop, bigint, gather, inserts, dispatch, vector, stream):
        t0 = time.perf_counter()
        kernel()
        logs.append(math.log(time.perf_counter() - t0))
    return math.exp(sum(logs) / len(logs))


SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed}, {outdir!r}, {size!r}).setup()
t = time.perf_counter() - t
import run
print(t, run.calibrate())
"""


def setup_seconds(name, seed, outdir, size) -> float:
    """Import relpoly and build the inputs in a fresh interpreter; time it there, scaled."""
    code = SETUP_PROBE.format(src=SRC, here=HERE, name=name, seed=seed, outdir=outdir, size=size)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    took, cal = (float(x) for x in res.stdout.split()[-2:])
    return took * CAL_REF_S / cal


def run_pass(wl, ck, tracer, tag) -> dict:
    """One pass over the workload's operations; returns scaled seconds per operation.

    Each operation is scaled by CAL_REF_S over the geometric mean of the
    calibrations just before and just after it.

    Untraced, a curve operation is repeated until it has run CURVE_REPEATS
    times or for CURVE_REPEAT_S, and its time is the median: a single curve
    takes tens of milliseconds, where one sample is at the mercy of noise.
    """
    op_s, out = {}, {}
    before = calibrate()
    for name, fn in wl.operations():
        if tracer is not None:
            tracer.op = f"{tag}:{name}"
        times = []
        while True:
            t0 = time.perf_counter()
            out[name] = fn(out)
            times.append(time.perf_counter() - t0)
            if (tracer is not None or not name.startswith("curve") or len(times) == CURVE_REPEATS
                    or sum(times) >= CURVE_REPEAT_S):
                break
        after = calibrate()
        op_s[name] = statistics.median(times) * CAL_REF_S / math.sqrt(before * after)
        before = after
    if tracer is not None:
        tracer.op = None
    wl.check_pass(out, ck)
    return op_s


def measure(wl, ck, seconds, tracer=None):
    """Rounds of passes until the next round would end past `seconds`; at least one.

    With a tracer, a round is an untraced pass followed by a traced one, so
    both see the machine in the same state and their difference is the
    tracing overhead. Returns the untraced and the traced passes.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(wl, ck, None, None))
        if tracer is not None:
            with tracer:
                traced.append(run_pass(wl, ck, tracer, f"t{len(traced)}"))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return untraced, traced


def medians(passes) -> dict:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def job_seconds(passes) -> float:
    return statistics.median(sum(p.values()) for p in passes)


def curve_seconds(passes) -> float:
    return statistics.median(sum(v for k, v in p.items() if k.startswith("curve")) for p in passes)


def kernel_probes(wl, tracer, seed):
    """Time the removal-profile kernels on orders drawn in advance, traced."""
    import numpy as np

    from relpoly import montecarlo

    profile = {"node": montecarlo.node_removal_profile, "link": montecarlo.link_removal_profile}
    rng = np.random.default_rng(seed)
    per_run = {}
    for op, kind, label, g, runs in wl.mc_ops:
        size = g.num_nodes if kind == "node" else g.num_links
        orders = [rng.permutation(size).tolist() for _ in range(min(runs, PROBE_ORDERS))]
        tracer.op = f"probe:{op}:{label}"
        for order in orders:
            profile[kind](g, order)
        spans = tracer.durations(f"montecarlo.{kind}_removal_profile", tracer.op)
        per_run[op, label] = sum(spans) / len(spans)
    tracer.op = None
    return per_run


def layer_metrics(wl, tracer, untraced, traced, per_run, ck, declared) -> dict:
    """Per-layer metrics; self times, calls and computed counts are per traced pass."""
    ops = {f"t{i}:{name}" for i, p in enumerate(traced) for name in p}
    npass = len(traced)
    self_s = tracer.self_times(ops)
    calls = tracer.calls(ops)
    counters = tracer.counters(ops)
    med = medians(untraced)
    m = {}
    for name in declared:
        if name.endswith(".self_s"):
            m[name] = self_s.get(name[: -len(".self_s")], 0.0) / npass
        elif name.endswith(".calls"):
            m[name] = calls.get(name[: -len(".calls")], 0) / npass
        elif name.endswith("_computed"):
            m[name] = counters.get(name, 0) / npass
    node_subsets = counters.get("exact.enumerate_node_coefficients.subsets", 0)
    link_subsets = counters.get("exact.enumerate_link_coefficients.masks_computed", 0)
    m["exact.enumerate_node_coefficients.connected_share"] = (
        counters["exact.enumerate_node_coefficients.connected"] / node_subsets if node_subsets else 0.0)
    m["exact.enumerate_link_coefficients.connected_share"] = (
        counters["exact.enumerate_link_coefficients.connected"] / link_subsets if link_subsets else 0.0)
    m["cutset.residual"] = counters.get("max:cutset.residual", 0.0)
    m["cutset.max_rounding_deviation"] = counters.get("max:cutset.max_rounding_deviation", 0.0)

    # kernel time per run, weighted by each operation's runs; the draw is the
    # rest of the traced estimate, which ran closest in time to the probes
    for kind in ("node", "link"):
        mine = [(op, label, runs) for op, k, label, _, runs in wl.mc_ops if k == kind]
        total_runs = sum(runs for _, _, runs in mine)
        kernel = sum(runs * per_run[op, label] for op, label, runs in mine)
        span = f"montecarlo.estimate_{kind}_cut_fractions"
        estimate = sum(sum(tracer.durations(span, f"t{i}:{op}")) for i in range(npass)
                       for op in {op for op, _, _ in mine}) / npass
        m[f"montecarlo.{kind}_kernel.us_per_run"] = 1e6 * kernel / total_runs if total_runs else 0.0
        m[f"montecarlo.{kind}_draw.us_per_run"] = 1e6 * (estimate - kernel) / total_runs if total_runs else 0.0

    parts = {
        "mc_node_runs_per_s": 0.0, "mc_link_runs_per_s": 0.0, "mc_node_runs_per_s_par": 0.0,
        "exact_node_s": 0.0, "exact_link_s": 0.0, "cutset_s": 0.0, "gen_s": 0.0, "kgrip_s": 0.0, "cli_s": 0.0,
    }
    parts.update(wl.components(med))
    m.update(parts, curve_s=curve_seconds(untraced))
    workers = getattr(wl, "workers", 1)
    m["montecarlo.parallel_efficiency"] = (
        parts["mc_node_runs_per_s_par"] / (workers * parts["mc_node_runs_per_s"])
        if parts["mc_node_runs_per_s_par"] else 0.0)
    m["trace.job_s_untraced"] = job_seconds(untraced)
    m["trace.job_s_traced"] = job_seconds(traced)
    m["trace.overhead_share"] = m["trace.job_s_traced"] / m["trace.job_s_untraced"] - 1.0
    m["trace.spans"] = sum(calls.values()) / npass
    m["error_rate"] = ck.error_rate
    return m


def machine_info() -> dict:
    """nproc, CPU model, cache sizes and library versions; records.json holds the git revision."""
    import mpmath
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run(workload, seed, seconds, trace, size="full") -> dict:
    """Run one workload; return the result object printed as the last stdout line."""
    import checks
    import workloads

    outdir = os.path.join(HERE, "out", f"{workload}-{seed}-{trace}")
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, outdir, size)
    ck = checks.Checks()
    declared = declared_metrics()

    setup = [setup_seconds(workload, seed, outdir, size) for _ in range(SETUP_REPEATS)] if not trace else []
    wl.setup()
    run_pass(wl, ck, None, "warmup")
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced = measure(wl, ck, seconds, tracer)
        with tracer:
            per_run = kernel_probes(wl, tracer, seed)
        tracer.dump(os.path.join(outdir, "spans.jsonl"))
        wl.check_once(ck)
        units = declared["per_layer"]
        values = layer_metrics(wl, tracer, untraced, traced, per_run, ck, units)
        passes = untraced
    else:
        passes, _ = measure(wl, ck, seconds)
        wl.check_once(ck)
        values = {
            "setup_s": statistics.median(setup),
            "job_s": job_seconds(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = declared["end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    print(f"{workload}: seed {seed}, {len(passes)} measured passes, trace {trace}")
    print("machine:", json.dumps(machine_info(), sort_keys=True))
    print("operation medians (s):", json.dumps(medians(passes), sort_keys=True))
    named = dict(wl.components(medians(passes)), curve_s=curve_seconds(passes), error_rate=ck.error_rate)
    for name, value in sorted(named.items()):
        print(f"  {name} = {value:.6g}")
    return {
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relpoly", "__init__.py")):
        print(f"perfbench: no relpoly sources under {SRC}; run from a relpoly checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
