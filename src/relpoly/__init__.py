"""Node and link reliability polynomials for simple undirected graphs.

Exact counts by frontier dynamic programming, Monte Carlo cut-fraction
estimation, Laplace concentration estimates, degree-distribution
approximations, closed forms for random-graph ensembles, cut-set count
recovery, and reliability-driven link addition.
"""

from .approx import (
    ErIntersection,
    ErModel,
    RggModel,
    arithmetic_upper_bound,
    er_intersection,
    er_node_reliability,
    er_transition_width,
    geometric_upper_bound,
    power_relation_gap,
    rgg_node_reliability,
    stochastic_link_curve,
    stochastic_link_reliability,
    stochastic_node_curve,
    stochastic_node_reliability,
)
from .curve import Curve, probability_grid
from .cutset import (
    CutCountRecovery,
    ProbeSystem,
    build_probe_system,
    default_probes,
    estimate_curve_source,
    exact_link_curve_source,
    exact_node_curve_source,
    recover_cut_counts,
    source_cut_counts,
)
from .errors import CapacityError, ConnectivityWarning, EdgeListFormatError
from .exact import (
    FAMILIES,
    ReliabilityCoefficients,
    bernstein_mixture,
    closed_form_eval,
    enumerate_link_coefficients,
    enumerate_node_coefficients,
    family_node_coefficients,
    link_reliability,
    node_reliability_c_form,
    node_reliability_s_form,
)
from .graph import (
    DegreeDistribution,
    Graph,
    complete_graph,
    complete_pendant_graph,
    cycle_graph,
    degree_distribution,
    generate_ba,
    generate_er,
    generate_lattice,
    generate_rgg,
    load_edge_list,
    path_graph,
    save_edge_list,
    star_graph,
    star_pendant_graph,
)
from .kgrip import (
    AugmentationPlan,
    greedy_lowest_degree_addition,
    highest_degree_addition,
    random_pairing_addition,
    restructuring_delta,
)
from .montecarlo import (
    CutFractionEstimate,
    estimate_link_cut_fractions,
    estimate_node_cut_fractions,
    laplace_curve,
    laplace_estimate,
    link_reliability_curve,
    link_removal_profile,
    node_reliability_curve,
    node_removal_profile,
)

__version__ = "0.1.0"
