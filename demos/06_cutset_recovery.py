"""Recovering cut-set counts from reliability curves.

Sampling the curve at n+1 interior probabilities yields a square linear
system for the cut-set count vector, which is solved exactly. With an exact
curve the counts come back exactly; with a Monte Carlo curve the solver
still answers, and the noise shows as raw values away from integers (the
rounding deviation) and as counts outside [0, C(n, j)] (the flags). A
Monte Carlo estimate already holds its counts, C(n,j) R_j / runs, so
`source_cut_counts` reads them off with no solve and no added noise.
"""

from relpoly import (
    build_probe_system,
    enumerate_node_coefficients,
    estimate_curve_source,
    estimate_node_cut_fractions,
    exact_node_curve_source,
    generate_lattice,
    recover_cut_counts,
    source_cut_counts,
)

graph = generate_lattice((2, 3))
coeffs = enumerate_node_coefficients(graph)
print(f"2x3 grid graph: true C = {coeffs.cut_counts}")

system = build_probe_system(graph.num_nodes, exact_node_curve_source(coeffs))
rec = recover_cut_counts(system)
print(f"exact-source recovery: C = {rec.counts}, "
      f"rounding deviation {rec.max_rounding_deviation:.1e}")

est = estimate_node_cut_fractions(graph, 100000, seed=12)
noisy_probes = [float(p) for p in rec.probes]
noisy = recover_cut_counts(
    build_probe_system(graph.num_nodes, estimate_curve_source(est), noisy_probes)
)
print(f"MC-source recovery:    C = {noisy.counts}, "
      f"rounding deviation {noisy.max_rounding_deviation:.1e}")
if noisy.flags:
    print(f"  flags: {noisy.flags}")
direct = source_cut_counts(est)
print(f"MC counts read directly: C = {direct.counts}, "
      f"rounding deviation {direct.max_rounding_deviation:.1e}")
print()
print("The probe matrix is a disguised Vandermonde system, so curve noise")
print("amplifies quickly with size; the rounding deviation and flags report it.")
