"""Distribution utilities shared by all figure analyses.

The paper presents nearly everything as CDFs/CCDFs, frequently weighting
client /24s by query volume (§3.2.2).  :class:`WeightedDistribution` is
the common carrier: values with weights, supporting quantiles, fractions
below thresholds, and evaluation on an x-grid for plotting-style output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class CdfSeries:
    """A CDF (or CCDF) evaluated on an x-grid, ready to print/plot."""

    label: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise AnalysisError("xs and ys must have equal length")

    def format_rows(self) -> str:
        """Two-column textual rendering."""
        lines = [f"# {self.label}"]
        for x, y in zip(self.xs, self.ys):
            lines.append(f"{x:10.2f}  {y:8.4f}")
        return "\n".join(lines)


def _as_float64(values: Iterable[float]) -> np.ndarray:
    """A float64 array of ``values``; an ndarray converts directly, to
    the same floats a trip through a Python list would give."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False)
    return np.asarray(list(values), dtype=np.float64)


class WeightedDistribution:
    """Values with non-negative weights; empirical distribution queries.

    Values and weights may be any iterables of floats, numpy arrays
    included (the input is never modified).
    """

    def __init__(
        self,
        values: Iterable[float],
        weights: Optional[Iterable[float]] = None,
    ) -> None:
        values_arr = _as_float64(values)
        if values_arr.size == 0:
            raise AnalysisError("distribution needs at least one value")
        if weights is None:
            weights_arr = np.ones_like(values_arr)
        else:
            weights_arr = _as_float64(weights)
            if weights_arr.shape != values_arr.shape:
                raise AnalysisError("values and weights must align")
            if np.any(weights_arr < 0):
                raise AnalysisError("weights must be non-negative")
            if not np.any(weights_arr > 0):
                raise AnalysisError("at least one weight must be positive")
        order = np.argsort(values_arr, kind="stable")
        self._values = values_arr[order]
        self._weights = weights_arr[order]
        self._cum = np.cumsum(self._weights)
        self._total = float(self._cum[-1])

    def __len__(self) -> int:
        return int(self._values.size)

    @property
    def total_weight(self) -> float:
        """Sum of all weights."""
        return self._total

    def fraction_at_or_below(self, x: float) -> float:
        """Weighted CDF value at ``x``."""
        index = np.searchsorted(self._values, x, side="right")
        if index == 0:
            return 0.0
        return float(self._cum[index - 1] / self._total)

    def fraction_above(self, x: float) -> float:
        """Weighted CCDF value at ``x`` (strictly above)."""
        return 1.0 - self.fraction_at_or_below(x)

    def quantile(self, q: float) -> float:
        """Weighted quantile, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        target = q * self._total
        index = int(np.searchsorted(self._cum, target, side="left"))
        index = min(index, self._values.size - 1)
        return float(self._values[index])

    def median(self) -> float:
        """Weighted median."""
        return self.quantile(0.5)

    def cdf_series(self, label: str, xs: Sequence[float]) -> CdfSeries:
        """CDF evaluated at a grid of x values."""
        return CdfSeries(
            label=label,
            xs=tuple(float(x) for x in xs),
            ys=tuple(self.fraction_at_or_below(x) for x in xs),
        )

    def ccdf_series(self, label: str, xs: Sequence[float]) -> CdfSeries:
        """CCDF evaluated at a grid of x values."""
        return CdfSeries(
            label=label,
            xs=tuple(float(x) for x in xs),
            ys=tuple(self.fraction_above(x) for x in xs),
        )


def log2_grid(start: float, stop: float) -> Tuple[float, ...]:
    """Powers of two from ``start`` to ``stop`` inclusive — the paper's
    log-scale distance axes (64..8192 km)."""
    if start <= 0 or stop < start:
        raise AnalysisError("need 0 < start <= stop")
    grid: List[float] = []
    x = start
    while x <= stop * 1.0000001:
        grid.append(float(x))
        x *= 2.0
    return tuple(grid)


def linear_grid(start: float, stop: float, step: float) -> Tuple[float, ...]:
    """Inclusive linear grid — the paper's 0..100 ms latency axes."""
    if step <= 0 or stop < start:
        raise AnalysisError("need positive step and stop >= start")
    count = int(round((stop - start) / step))
    return tuple(start + i * step for i in range(count + 1))
