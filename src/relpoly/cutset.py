"""Recover cut-set counts from any reliability-curve source.

Sampling the C-form polynomial at n+1 interior probabilities gives a
square linear system P C = 1 - curve, whose matrix rows are the Bernstein
point weights (1-p_i)^j p_i^(n-j). The matrix is a disguised Vandermonde
and conditions terribly as n grows, so the solve runs either in exact
rational arithmetic (when probes and curve values are Fractions) or in
mpmath extended precision, and every answer carries its residual.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from .errors import CapacityError
from .exact import ReliabilityCoefficients, _reliability
from .montecarlo import _estimate_curve

DEFAULT_DIMENSION_CAP = 30

RESIDUAL_WARN_THRESHOLD = 1e-6


def default_probes(n: int):
    """Equispaced interior rationals (i+1)/(n+2), i = 0..n."""
    return [Fraction(i + 1, n + 2) for i in range(n + 1)]


@dataclass(frozen=True)
class ProbeSystem:
    """The sampled linear system: probes p_i, right-hand side 1 - curve(p_i)."""

    dimension: int
    probes: tuple
    rhs: tuple

    @property
    def exact(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.probes) and all(
            isinstance(r, (Fraction, int)) for r in self.rhs
        )

    def matrix(self):
        """Row i: (1-p_i)^j p_i^(n-j) for j = 0..n, in the probes' arithmetic."""
        n = self.dimension
        rows = []
        for p in self.probes:
            q = 1 - p
            rows.append([q**j * p ** (n - j) for j in range(n + 1)])
        return rows


def build_probe_system(n: int, curve_source, probes=None) -> ProbeSystem:
    """Sample `curve_source` at n+1 distinct interior probabilities.

    With no explicit probes, the defaults are the rationals (i+1)/(n+2); a
    curve source that understands Fraction inputs then produces an exactly
    solvable system.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if probes is None:
        probes = default_probes(n)
    else:
        probes = list(probes)
    if len(probes) != n + 1:
        raise ValueError(f"need exactly {n + 1} probes, got {len(probes)}")
    if len(set(probes)) != len(probes):
        raise ValueError("probes must be distinct")
    if any(not 0 < p < 1 for p in probes):
        raise ValueError("probes must lie strictly inside (0, 1)")
    probes = sorted(probes)
    rhs = [1 - curve_source(p) for p in probes]
    return ProbeSystem(n, tuple(probes), tuple(rhs))


@dataclass(frozen=True)
class CutCountRecovery:
    """Solved coefficient vector with its numerical health report."""

    counts: tuple
    raw: tuple
    residual: float
    rounded: bool
    max_rounding_deviation: float
    probes: tuple
    flags: tuple
    warning: str = None

    def to_json(self) -> str:
        payload = {
            "C": list(self.counts),
            "residual": self.residual,
            "rounded": self.rounded,
            "probes": [float(p) for p in self.probes],
        }
        if self.rounded:
            payload["max_rounding_deviation"] = self.max_rounding_deviation
        if self.flags:
            payload["flags"] = list(self.flags)
        if self.warning:
            payload["warning"] = self.warning
        return json.dumps(payload, sort_keys=True) + "\n"


def _solve_exact(system: ProbeSystem):
    n = system.dimension
    a = [row[:] + [Fraction(system.rhs[i])] for i, row in enumerate(system.matrix())]
    for col in range(n + 1):
        pivot = max(range(col, n + 1), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise ValueError("singular probe system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n + 1):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n + 1] for i in range(n + 1)]


def _solve_mpmath(system: ProbeSystem):
    n = system.dimension
    # floats convert to mpf exactly; precision grows with the dimension to
    # outrun the Vandermonde-style conditioning, and the rows are built in
    # mpf at that precision
    with mp.workdps(max(50, 20 + 4 * n)):
        probes = tuple(mp.mpf(float(p)) for p in system.probes)
        a = mp.matrix(replace(system, probes=probes).matrix())
        b = mp.matrix([float(r) for r in system.rhs])
        x = mp.lu_solve(a, b)
        res = a * x - b
        solution = [float(x[i]) for i in range(n + 1)]
        residual = float(max(abs(res[i]) for i in range(n + 1)))
    return solution, residual


def recover_cut_counts(
    system: ProbeSystem, rounding: bool = True, cap: int = DEFAULT_DIMENSION_CAP
) -> CutCountRecovery:
    """Solve the probe system for the cut-set count vector.

    Exact rational systems are eliminated exactly (residual 0); float
    systems go through mpmath at extended working precision. The residual
    ||P C - rhs||_inf always accompanies the answer, and residuals above
    1e-6 attach an ill-conditioning warning instead of raising.
    """
    n = system.dimension
    if n > cap:
        raise CapacityError(
            f"probe systems condition too badly past n={cap}; got n={n}"
        )
    if system.exact:
        exact_solution = _solve_exact(system)
        raw = tuple(float(x) for x in exact_solution)
        residual = 0.0
    else:
        solution, residual = _solve_mpmath(system)
        raw = tuple(solution)

    flags = []
    if rounding:
        counts = tuple(round(x) for x in raw)
        deviation = max(abs(r - c) for r, c in zip(raw, counts))
        for j, c in enumerate(counts):
            if not 0 <= c <= math.comb(n, j):
                flags.append(f"C_{j}={c} outside [0, C({n},{j})]")
        if counts[n] != 1:
            flags.append(f"C_{n}={counts[n]} but the empty residual forces 1")
    else:
        counts = raw
        deviation = 0.0

    warning = None
    if residual > RESIDUAL_WARN_THRESHOLD:
        warning = f"ill-conditioned solve: residual {residual:.3e} exceeds {RESIDUAL_WARN_THRESHOLD:.0e}"
    return CutCountRecovery(
        counts, raw, residual, rounding, deviation, system.probes, tuple(flags), warning
    )


# ---------------------------------------------------------------------------
# curve sources


def _exact_curve_source(coeffs: ReliabilityCoefficients, kind: str):
    def source(p):
        return _reliability(coeffs, kind, p, exact=isinstance(p, (Fraction, int)))

    return source


def exact_node_curve_source(coeffs: ReliabilityCoefficients):
    """Curve source backed by exact coefficients.

    Returns Fractions for Fraction/int probes (exact solving) and floats
    for float probes.
    """
    return _exact_curve_source(coeffs, "node")


def exact_link_curve_source(coeffs: ReliabilityCoefficients):
    return _exact_curve_source(coeffs, "link")


def estimate_curve_source(est):
    """Curve source backed by Monte Carlo cut fractions (float arithmetic).

    Works for both node and link estimates: either curve is
    1 - sum_j C(n,j) c_j p^(n-j) (1-p)^j over its own dimension, evaluated
    through the cancellation-free complement mixture.
    """
    return _estimate_curve(est)
