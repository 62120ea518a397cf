"""Recover cut-set counts from any reliability-curve source.

Sampling the C-form polynomial at n+1 interior probabilities gives a
square linear system P C = 1 - curve, whose matrix rows are the Bernstein
point weights (1-p_i)^j p_i^(n-j). Divided by p_i^n, row i becomes the
Vandermonde row t_i^j in t_i = (1-p_i)/p_i, which conditions terribly as n
grows; so the system is solved exactly, by Lagrange interpolation in
integer arithmetic over one common denominator, with O(n^2) operations.
Float probes and curve values enter as the binary rationals they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError
from .exact import ReliabilityCoefficients, _reliability
from .montecarlo import _estimate_curve

DEFAULT_DIMENSION_CAP = 30


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
    """Solved coefficient vector with its rounding report.

    `residual` is ||P C - rhs||_inf of the solution, 0.0 since the solve is exact.
    """

    counts: tuple
    raw: tuple
    residual: float
    rounded: bool
    max_rounding_deviation: float
    probes: tuple
    flags: tuple

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
        return json.dumps(payload, sort_keys=True) + "\n"


def _solve(system: ProbeSystem) -> list:
    """The exact solution C of P C = rhs, as Fractions.

    With p_i = a_i/b_i in lowest terms and u_i = b_i - a_i, row i times
    b_i^n reads Q(u_i, a_i) = rhs_i b_i^n for the form
    Q(x, y) = sum_j C_j x^j y^(n-j). Lagrange interpolation in homogeneous
    form gives Q = sum_i w_i L_i with the integer forms
    L_i = prod_{k != i} (a_k x - u_k y) and w_i = rhs_i b_i^n / L_i(u_i, a_i).
    Each L_i is the product of all n+1 factors divided by its own, and the
    w_i are brought over one common denominator, so the sums run in
    integers and each C_j costs one division at the end. A system that is
    not all-rational is read at float(x) of each probe and rhs entry.
    """
    n = system.dimension
    read = Fraction if system.exact else (lambda x: Fraction(float(x)))
    probes = [read(p) for p in system.probes]
    if 0 in probes or len(set(probes)) < len(probes):
        raise ValueError("singular probe system: probes must be distinct and nonzero")
    a = [p.numerator for p in probes]
    u = [p.denominator - p.numerator for p in probes]
    # m[j] is the coefficient of x^j y^(n+1-j) in prod_k (a_k x - u_k y)
    m = [1]
    for ak, uk in zip(a, u):
        m = [ak * hi - uk * lo for hi, lo in zip([0] + m, m + [0])]
    forms, nums, dens = [], [], []
    for i, (p, r) in enumerate(zip(probes, system.rhs)):
        # L_i by synthetic division of the product by a_i x - u_i y
        form = [0] * (n + 1)
        carry = m[n + 1]
        for j in range(n, -1, -1):
            form[j] = carry // a[i]
            carry = m[j] + u[i] * form[j]
        at_own = 1
        for k in range(n + 1):
            if k != i:
                at_own *= u[i] * a[k] - a[i] * u[k]
        r = read(r)
        forms.append(form)
        nums.append(r.numerator * p.denominator**n)
        dens.append(r.denominator * at_own)
    den = 1
    for d in dens:
        den = den // math.gcd(den, d) * d
    scaled = [w * (den // d) for w, d in zip(nums, dens)]
    return [Fraction(sum(s * form[j] for s, form in zip(scaled, forms)), den) for j in range(n + 1)]


def check_dimension(n: int):
    """Refuse a recovery of more than DEFAULT_DIMENSION_CAP unknowns, before
    a caller spends anything on its curve source."""
    if n > DEFAULT_DIMENSION_CAP:
        raise CapacityError(f"cut-set recovery: n={n} exceeds the cap of {DEFAULT_DIMENSION_CAP}")


def recover_cut_counts(system: ProbeSystem, rounding: bool = True) -> CutCountRecovery:
    """Solve the probe system for the cut-set count vector.

    The solve is exact for every system (float entries are read as the
    binary rationals they are), so `raw` is the true solution rounded once
    to float and the residual is 0. Noise in the curve source shows up as
    raw values away from integers: in `max_rounding_deviation` and, for
    counts outside [0, C(n,j)], in `flags`.
    """
    n = system.dimension
    check_dimension(n)
    raw = tuple(float(x) for x in _solve(system))

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
    return CutCountRecovery(counts, raw, 0.0, rounding, deviation, system.probes, tuple(flags))


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
