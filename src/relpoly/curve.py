"""Sampled reliability curves and their CSV / JSON-sidecar serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def _check_probability(p) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def probability_grid(count: int = 101) -> tuple:
    """`count` equispaced probabilities covering [0, 1] inclusive."""
    if count < 2:
        raise ValueError("grid needs at least two points")
    return tuple(i / (count - 1) for i in range(count))


@dataclass(frozen=True)
class Curve:
    """A function p -> value sampled on a fixed probability grid."""

    grid: tuple
    values: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.grid:  # sup_gap and mean_abs_gap need a point
            raise ValueError("a curve needs at least one point")
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if any(not 0 <= p <= 1 for p in self.grid):  # NaN too
            raise ValueError("grid points must lie in [0, 1]")

    def value_at(self, p: float) -> float:
        try:
            return self.values[self.grid.index(p)]
        except ValueError:
            raise ValueError(f"p={p} is not a grid point of this curve") from None

    def sup_gap(self, other: "Curve") -> float:
        self._check_same_grid(other)
        return max(abs(a - b) for a, b in zip(self.values, other.values))

    def mean_abs_gap(self, other: "Curve") -> float:
        self._check_same_grid(other)
        return sum(abs(a - b) for a, b in zip(self.values, other.values)) / len(self.values)

    def _check_same_grid(self, other: "Curve"):
        if self.grid != other.grid:
            raise ValueError("curves are sampled on different grids")

    # 17 significant digits round-trips IEEE doubles exactly, which is what
    # makes CLI outputs byte-reproducible.
    def to_csv(self) -> str:
        lines = ["p,value"]
        for p, v in zip(self.grid, self.values):
            lines.append(f"{p:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "Curve":
        lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines or lines[0][1].strip() != "p,value":
            raise ValueError('curve CSV must start with the header "p,value"')
        grid, values = [], []
        for lineno, ln in lines[1:]:
            try:
                p, v = map(float, ln.split(","))
            except ValueError:
                raise ValueError(f"line {lineno}: expected two numbers p,value, got {ln!r}") from None
            if not 0 <= p <= 1:  # NaN too
                raise ValueError(f"line {lineno}: grid points must lie in [0, 1], got {ln!r}")
            if not math.isfinite(v):
                raise ValueError(f"line {lineno}: values must be finite, got {ln!r}")
            grid.append(p)
            values.append(v)
        if not grid:
            raise ValueError("curve CSV has no points")
        return Curve(tuple(grid), tuple(values))

    def metadata_json(self) -> str:
        keys = ("method", "seed", "runs", "graph", "kind")
        side = {k: self.metadata.get(k) for k in keys}
        return json.dumps(side, sort_keys=True) + "\n"
