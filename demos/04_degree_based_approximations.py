"""Degree-only approximations and bounds on one random graph.

Everything here needs only the degree distribution: the stochastic
approximation (no-isolated-node surrogate raised to the surviving-node
count), and the arithmetic/geometric first-order isolation approximations
(named upper bounds, but not bounds in general). The Monte Carlo curve is
the benchmark.
"""

from relpoly import (
    arithmetic_upper_bound,
    estimate_node_cut_fractions,
    generate_er,
    geometric_upper_bound,
    node_reliability_curve,
    stochastic_node_reliability,
)

graph = generate_er(400, 0.02, seed=4)
print(f"ER(400, 0.02) seed 4: L={graph.num_links}, connected={graph.is_connected()}")

est = estimate_node_cut_fractions(graph, 20000, seed=9)
grid = [i / 10 for i in range(1, 11)]
mc = node_reliability_curve(est, grid)

print(f"\n{'p':>4}  {'MC':>8}  {'stochastic':>10}  {'arith bound':>11}  {'geom bound':>10}")
for p in grid:
    print(
        f"{p:>4.1f}  {mc.value_at(p):>8.4f}  {stochastic_node_reliability(graph, p):>10.4f}"
        f"  {arithmetic_upper_bound(graph, p):>11.4f}  {geometric_upper_bound(graph, p):>10.4f}"
    )

print()
print("The arithmetic bound always sits at or above the geometric bound")
print("(arithmetic-geometric mean inequality), with equality only when all")
print("degrees coincide. Both cost no more than one pass over the degrees.")
