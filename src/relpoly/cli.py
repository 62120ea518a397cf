"""Command-line interface.

Subcommands: exact, closed-form, mc, laplace, approx, cutsets, kgrip,
generate, compare. Outputs are byte-reproducible for identical arguments:
curves go to CSV ("p,value" with 17 significant digits) with a JSON
metadata sidecar, coefficient vectors and plans go to JSON. Exit codes:
0 success, 1 computation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from . import approx, cutset, exact, kgrip, montecarlo
from .curve import Curve, probability_grid
from .errors import CapacityError, EdgeListFormatError
from .graph import (
    FAMILIES,
    MAX_EDGE_LIST_NODES,
    Graph,
    generate_ba,
    generate_er,
    generate_lattice,
    generate_rgg,
    load_edge_list,
    save_edge_list,
)


class UsageError(Exception):
    pass


def _check_size(source: str, num_nodes: int, num_links, expected=False):
    """Refuse a graph source of more than MAX_EDGE_LIST_NODES nodes or
    links, before anything is built and before the generator checks its own
    parameters; `expected` marks a link count that is a random graph's mean."""
    if num_nodes > MAX_EDGE_LIST_NODES:
        raise CapacityError(f"{source} has {num_nodes} nodes, above the limit of {MAX_EDGE_LIST_NODES}")
    if num_links > MAX_EDGE_LIST_NODES:
        count = f"expects about {round(num_links)}" if expected else f"has {num_links}"
        raise CapacityError(f"{source} {count} links, above the limit of {MAX_EDGE_LIST_NODES}")


# the most node pairs an er spec may draw for: generate_er makes one draw per
# pair, and on a 2-vCPU Xeon C(40000, 2) = 8*10^8 pairs took 3.35 s
MAX_ER_PAIRS = 10**9


def _pairs(n: int) -> int:
    """C(n, 2), and 0 for any n below 2."""
    return n * (n - 1) // 2 if n > 0 else 0


def _parse_gen_spec(spec: str, seed: int) -> Graph:
    """Inline generator specs: er:N,PL  rgg:N,R  ba:N,M  lattice:D1xD2[xD3].

    A spec of more than MAX_EDGE_LIST_NODES nodes or links is a
    CapacityError, raised before anything is built. The link count is
    exact for ba and lattice, and the mean for er (min(1, PL) C(N,2)) and rgg
    (min(1, pi R^2) C(N,2), the square's boundary ignored). An er spec
    within both limits is then refused if its C(N,2) draws exceed
    MAX_ER_PAIRS.
    """
    # name -> (generator, type of its second parameter, link count, whether that is a mean)
    pairs = {
        "er": (generate_er, float, lambda n, p: min(1.0, p) * _pairs(n), True),
        "rgg": (generate_rgg, float, lambda n, r: min(1.0, math.pi * r * r) * _pairs(n), True),
        "ba": (generate_ba, int, lambda n, m: _pairs(m) + m * (n - m), False),
    }
    try:
        name, _, args = spec.partition(":")
        if name in pairs:
            generate, second, links, expected = pairs[name]
            n_s, x_s = args.split(",")
            n, x = int(n_s), second(x_s)
            _check_size(spec, n, links(n, x), expected)
            if name == "er" and _pairs(n) > MAX_ER_PAIRS:
                raise CapacityError(
                    f"{spec} has C(N,2) = {_pairs(n)} node pairs to draw, above the limit of {MAX_ER_PAIRS}"
                )
            return generate(n, x, seed)
        if name == "lattice":
            dims = [int(d) for d in args.split("x")]
            if min(dims) > 0:
                nodes = math.prod(dims)
                # along each axis, every node but the last layer's links to its successor
                _check_size(spec, nodes, sum(nodes - nodes // d for d in dims))
            return generate_lattice(dims)
    except ValueError as err:
        raise UsageError(f"bad generator spec {spec!r}: {err}") from None
    raise UsageError(f"unknown generator {name!r}; use er, rgg, ba, or lattice")


def _load_graph(args) -> tuple:
    """Resolve --input / --gen / --family into (graph, label)."""
    sources = [s for s in (args.input, args.gen, args.family) if s]
    if len(sources) != 1:
        raise UsageError("exactly one of --input, --gen, or --family is required")
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return load_edge_list(fh.read()), args.input
    if args.gen:
        return _parse_gen_spec(args.gen, args.gen_seed), args.gen
    if args.n is None:
        raise UsageError("--family requires --n")
    label = f"{args.family}:{args.n}"
    builder, _, links = FAMILIES[args.family]
    _check_size(label, args.n, links(args.n))
    return builder(args.n), label


def _probability_list(text: str) -> tuple:
    """Type of --ps: a strictly increasing comma-separated grid in [0, 1];
    raises UsageError at parse time, as `_count` does."""
    try:
        pts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--ps takes comma-separated numbers, got {text!r}") from None
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise UsageError("--ps must be strictly increasing")
    if not all(0 <= p <= 1 for p in pts):
        raise UsageError("--ps values must lie in [0, 1]")
    return pts


def _power(text: str):
    """Type of compare --power: a finite number, or the letter "p" for the grid coordinate."""
    if text == "p":
        return text
    try:
        power = float(text)
    except ValueError:
        raise UsageError('--power takes a number or the letter "p"') from None
    if not math.isfinite(power):
        raise UsageError(f"--power must be finite, got {text!r}")
    return power


def _grid_from(args):
    return args.ps or probability_grid(args.grid)


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_curve(curve: Curve, args, label):
    meta = dict(curve.metadata)
    meta.setdefault("graph", label)
    meta.setdefault("seed", getattr(args, "seed", None))
    meta.setdefault("runs", getattr(args, "runs", None))
    out = Curve(curve.grid, curve.values, meta)
    _write(args.out, out.to_csv())
    if args.out:
        _write(args.out + ".meta.json", out.metadata_json())


def _count(flag: str, least: int):
    """Type of an integer flag that must be at least `least` (--workers,
    --runs, --grid, --k, --cap), checked at parse time whether or not the
    command uses it. argparse rewrites only ArgumentTypeError, TypeError and
    ValueError, so the UsageError reaches `main` (exit 2)."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise UsageError(f"{flag} must be an integer of at least {least}, got {text!r}")
        return int(text)

    return parse


def _workers(args):
    try:
        return montecarlo.resolve_workers(args.workers or os.cpu_count())
    except ValueError as err:  # RELPOLY_THREADS is not a positive integer
        raise UsageError(str(err)) from None


# Library functions are picked from tables built when a command runs, so a
# patched module attribute (a test double, a tracer) reaches the CLI.
def _coefficients(args, graph, kind):
    by_kind = {"node": exact.enumerate_node_coefficients, "link": exact.enumerate_link_coefficients}
    return by_kind[kind](graph, cap=args.cap)


def _estimate(args, graph, kind):
    by_kind = {
        "node": montecarlo.estimate_node_cut_fractions,
        "link": montecarlo.estimate_link_cut_fractions,
    }
    return by_kind[kind](graph, args.runs, args.seed, _workers(args))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(args):
    graph = _parse_gen_spec(args.gen, args.gen_seed)
    _write(args.out, save_edge_list(graph))
    return 0


def _cmd_exact(args):
    graph, label = _load_graph(args)
    grid = _grid_from(args)
    coeffs = _coefficients(args, graph, args.kind)
    values = exact._reliability_values(coeffs, args.kind, grid)
    if args.coeffs_out:
        _write(args.coeffs_out, coeffs.to_json())
    curve = Curve(grid, values, {"method": "exact", "kind": args.kind})
    _emit_curve(curve, args, label)
    return 0


def _cmd_closed_form(args):
    grid = _grid_from(args)
    values = tuple(exact.closed_form_eval(args.family, args.n, p) for p in grid)
    curve = Curve(grid, values, {"method": "closed-form", "kind": "node"})
    _emit_curve(curve, args, f"{args.family}:{args.n}")
    return 0


def _cmd_mc(args):
    graph, label = _load_graph(args)
    grid = _grid_from(args)
    est = _estimate(args, graph, args.kind)
    by_kind = {"node": montecarlo.node_reliability_curve, "link": montecarlo.link_reliability_curve}
    _emit_curve(by_kind[args.kind](est, grid), args, label)
    return 0


def _cmd_laplace(args):
    graph, label = _load_graph(args)
    grid = _grid_from(args)
    if args.source == "exact":
        source = _coefficients(args, graph, "node")
    else:
        source = _estimate(args, graph, "node")
    curve = montecarlo.laplace_curve(source, grid)
    _emit_curve(curve, args, label)
    return 0


def _approx_stochastic(args):
    graph, label = _load_graph(args)
    grid = _grid_from(args)
    by_kind = {"node": approx.stochastic_node_curve, "link": approx.stochastic_link_curve}
    _emit_curve(by_kind[args.kind](graph, grid), args, label)


def _approx_bounds(args):
    graph, label = _load_graph(args)
    grid = _grid_from(args)
    bounds = {"arith": approx.arithmetic_upper_bound, "geom": approx.geometric_upper_bound}
    values = tuple(bounds[args.bound](graph, p) for p in grid)
    curve = Curve(grid, values, {"method": f"bound-{args.bound}", "kind": "node"})
    _emit_curve(curve, args, label)


def _approx_er(args):
    model = approx.ErModel(args.n, args.pl)
    grid = _grid_from(args)
    values = tuple(approx.er_node_reliability(model, p) for p in grid)
    curve = Curve(grid, values, {"method": "er-formula", "kind": "node"})
    _emit_curve(curve, args, f"er:{args.n},{args.pl}")


def _approx_rgg(args):
    model = approx.RggModel(args.n, args.r)
    grid = _grid_from(args)
    # the formula needs at least one expected survivor; skip grid points below that
    kept = tuple(p for p in grid if args.n * p >= 1.0)
    if len(kept) < len(grid):
        print(
            f"note: dropped {len(grid) - len(kept)} grid points with N*p < 1",
            file=sys.stderr,
        )
    if len(kept) < 2:
        raise ValueError("grid has fewer than two points with N*p >= 1")
    values = tuple(approx.rgg_node_reliability(model, p) for p in kept)
    curve = Curve(kept, values, {"method": "rgg-formula", "kind": "node"})
    _emit_curve(curve, args, f"rgg:{args.n},{args.r}")


def _approx_er_intersection(args):
    res = approx.er_intersection(approx.ErModel(args.n, args.pl), approx.ErModel(args.n2, args.pl2))
    payload = {"p": res.p, "value": res.value, "inside": res.inside}
    if res.note:
        payload["note"] = res.note
    _write(args.out, json.dumps(payload, sort_keys=True) + "\n")


def _approx_er_width(args):
    width = approx.er_transition_width(approx.ErModel(args.n, args.pl), args.lo, args.hi)
    _write(args.out, json.dumps({"width": width}, sort_keys=True) + "\n")


def _cmd_approx(args):
    args.handler(args)
    return 0


def _cmd_cutsets(args):
    graph, _ = _load_graph(args)
    cutset.check_dimension(graph.num_nodes if args.kind == "node" else graph.num_links)
    source = (_coefficients if args.source == "exact" else _estimate)(args, graph, args.kind)
    _write(args.out, cutset.source_cut_counts(source, rounding=not args.no_round).to_json())
    return 0


def _cmd_kgrip(args):
    graph, label = _load_graph(args)
    before = kgrip.objective(graph, args.p)  # refuses a bad --p before any plan is built
    if args.strategy == "lowest":
        new_graph, plan = kgrip.greedy_lowest_degree_addition(graph, args.k)
    elif args.strategy == "highest":
        new_graph, plan = kgrip.highest_degree_addition(graph, args.k)
    else:
        new_graph, plan = kgrip.random_pairing_addition(graph, args.k, args.seed)
    after = kgrip.objective(new_graph, args.p)
    payload = json.loads(plan.to_json())
    payload["p"] = args.p
    payload["objective_before"] = before
    payload["objective_after"] = after
    _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    if args.graph_out:
        _write(args.graph_out, save_edge_list(new_graph))
    return 0


def _raised(path, value: float, power: float) -> float:
    """value**power as a finite real float; a ValueError that names the
    curve file otherwise (a zero to a negative power, an overflow, a
    negative value to a fractional power, which Python makes complex)."""
    try:
        result = value**power
    except (ZeroDivisionError, OverflowError):
        result = math.nan
    if not isinstance(result, float) or not math.isfinite(result):
        raise ValueError(f"{path}: cannot raise the value {value!r} to the power {power!r}")
    return result


def _cmd_compare(args):
    if len(args.files) < 2:
        raise UsageError("compare needs at least two curve files")
    curves = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            curves.append((path, Curve.from_csv(text)))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    base_grid = curves[0][1].grid
    for path, c in curves[1:]:
        if c.grid != base_grid:
            raise ValueError(f"grid mismatch between {args.files[0]} and {path}")
    if args.power is not None:
        transformed = [curves[0]]
        for path, c in curves[1:]:
            exponents = c.grid if args.power == "p" else [args.power] * len(c.grid)
            vals = tuple(_raised(path, v, g) for v, g in zip(c.values, exponents))
            transformed.append((path, Curve(c.grid, vals)))
        curves = transformed
    lines = ["a,b,sup_gap,mean_abs_gap"]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            pa, ca = curves[i]
            pb, cb = curves[j]
            lines.append(
                f"{pa},{pb},{ca.sup_gap(cb):.17g},{ca.mean_abs_gap(cb):.17g}"
            )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relpoly",
        description="Node and link reliability polynomials: exact, Monte Carlo, approximations, cut sets, augmentation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # option groups shared by several subcommands, each defined once and
    # included with parents=[...]; argparse copies their actions, which is
    # cheaper than adding the options to each subcommand again
    graph_source = argparse.ArgumentParser(add_help=False)
    graph_source.add_argument("--input", help="edge-list file to load")
    graph_source.add_argument("--gen", help="generator spec: er:N,PL | rgg:N,R | ba:N,M | lattice:D1xD2[xD3]")
    graph_source.add_argument("--gen-seed", type=int, default=0, help="seed for --gen (default 0)")
    graph_source.add_argument("--family", choices=sorted(FAMILIES), help="named graph family")
    graph_source.add_argument("--n", type=int, help="size for --family")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--grid", type=_count("--grid", 2), default=101, help="equispaced grid size over [0,1] (default 101)"
    )
    grid.add_argument("--ps", type=_probability_list, help="explicit comma-separated grid, overrides --grid")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--cap",
        type=_count("--cap", 1),
        default=exact.DEFAULT_ENUMERATION_CAP,
        help=f"largest N (L for link counts) the exact counts accept (default {exact.DEFAULT_ENUMERATION_CAP})",
    )
    monte_carlo = argparse.ArgumentParser(add_help=False)
    monte_carlo.add_argument("--runs", type=_count("--runs", 1), default=100000)
    monte_carlo.add_argument("--seed", type=int, default=0)
    monte_carlo.add_argument(
        "--workers", type=_count("--workers", 1), help="worker processes (RELPOLY_THREADS caps this)"
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    er_model = argparse.ArgumentParser(add_help=False)
    er_model.add_argument("--n", type=int, required=True, help="model size N")
    er_model.add_argument("--pl", type=float, required=True, help="link probability")

    s = subs.add_parser("generate", help="write a generated graph as an edge list", parents=[out])
    s.add_argument("--gen", required=True)
    s.add_argument("--gen-seed", type=int, default=0)
    s.set_defaults(fn=_cmd_generate)

    s = subs.add_parser(
        "exact", help="exact coefficients by frontier DP, and their curve", parents=[graph_source, grid, cap, out]
    )
    s.add_argument("--kind", choices=("node", "link"), default="node")
    s.add_argument("--coeffs-out", help="also write the coefficient vectors as JSON")
    s.set_defaults(fn=_cmd_exact)

    s = subs.add_parser("closed-form", help="evaluate a family's closed-form curve", parents=[grid, out])
    s.add_argument("--family", choices=sorted(FAMILIES), required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(fn=_cmd_closed_form)

    s = subs.add_parser(
        "mc", help="Monte Carlo curve from random removal orders", parents=[graph_source, grid, monte_carlo, out]
    )
    s.add_argument("--kind", choices=("node", "link"), default="node")
    s.set_defaults(fn=_cmd_mc)

    s = subs.add_parser(
        "laplace",
        help="concentration-point curve from exact or MC fractions",
        parents=[graph_source, grid, cap, monte_carlo, out],
    )
    s.add_argument("--source", choices=("exact", "mc"), default="exact")
    s.set_defaults(fn=_cmd_laplace)

    # each approx method takes only the options it reads; _cmd_approx stays
    # the fn of every method (perfbench's cli.approx span patches it) and
    # calls the method's handler
    s = subs.add_parser("approx", help="degree-based approximations and ensemble formulas")
    methods = s.add_subparsers(dest="method", required=True)
    m = methods.add_parser("stochastic", help="no-isolated-node surrogate", parents=[graph_source, grid, out])
    m.add_argument("--kind", choices=("node", "link"), default="node")
    m.set_defaults(fn=_cmd_approx, handler=_approx_stochastic)
    m = methods.add_parser(
        "bounds", help="isolation approximation (not an upper bound in general)", parents=[graph_source, grid, out]
    )
    m.add_argument("--bound", choices=("arith", "geom"), default="arith")
    m.set_defaults(fn=_cmd_approx, handler=_approx_bounds)
    m = methods.add_parser("er", help="Erdos-Renyi ensemble curve", parents=[er_model, grid, out])
    m.set_defaults(fn=_cmd_approx, handler=_approx_er)
    m = methods.add_parser("rgg", help="random geometric graph ensemble curve", parents=[grid, out])
    m.add_argument("--n", type=int, required=True, help="model size N")
    m.add_argument("--r", type=float, required=True, help="radius")
    m.set_defaults(fn=_cmd_approx, handler=_approx_rgg)
    m = methods.add_parser("er-intersection", help="crossing of two Erdos-Renyi curves", parents=[er_model, out])
    m.add_argument("--n2", type=int, required=True, help="second model size")
    m.add_argument("--pl2", type=float, required=True, help="second link probability")
    m.set_defaults(fn=_cmd_approx, handler=_approx_er_intersection)
    m = methods.add_parser("er-width", help="transition width of an Erdos-Renyi curve", parents=[er_model, out])
    m.add_argument("--lo", type=float, default=0.01, help="low level (default 0.01)")
    m.add_argument("--hi", type=float, default=0.99, help="high level (default 0.99)")
    m.set_defaults(fn=_cmd_approx, handler=_approx_er_width)

    s = subs.add_parser(
        "cutsets", help="cut-set counts from exact counts or a Monte Carlo estimate",
        parents=[graph_source, cap, monte_carlo, out],
    )
    s.add_argument("--kind", choices=("node", "link"), default="node")
    s.add_argument("--source", choices=("exact", "mc"), default="exact")
    s.add_argument("--no-round", action="store_true", help="report the counts unrounded")
    s.set_defaults(fn=_cmd_cutsets)

    s = subs.add_parser(
        "kgrip", help="add k links by a named strategy and report the objective", parents=[graph_source, out]
    )
    s.add_argument("--k", type=_count("--k", 1), required=True)
    s.add_argument("--strategy", choices=("lowest", "highest", "random"), default="lowest")
    s.add_argument("--seed", type=int, default=0, help="seed for --strategy random")
    s.add_argument("--p", type=float, default=0.5)
    s.add_argument("--graph-out", help="write the augmented graph as an edge list")
    s.set_defaults(fn=_cmd_kgrip)

    s = subs.add_parser("compare", help="pairwise gaps between curve CSV files", parents=[out])
    s.add_argument("files", nargs="+")
    s.add_argument(
        "--power",
        type=_power,
        help='apply x -> x^POWER to every curve after the first; the literal "p" uses the grid coordinate',
    )
    s.set_defaults(fn=_cmd_compare)

    return parser


def main(argv=None) -> int:
    # one plain line per warning (a ConnectivityWarning); library callers keep Python's format
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        except SystemExit as exc:  # argparse has printed its own message
            return exc.code if exc.code is not None else 2
        except UsageError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 2
        except (ValueError, CapacityError, EdgeListFormatError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        except MemoryError:  # the input fits the node limit but not this machine
            print("error: out of memory; the input is too large for the memory available", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
