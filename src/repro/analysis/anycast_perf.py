"""Figs 3–4: how well does anycast do?

* **Fig 3** — CCDF over beacon requests of (anycast latency − best of the
  three measured unicast latencies), split World / United States / Europe.
  Paper headline: anycast ≥25 ms slower for ~20% of requests, just under
  10% are ≥100 ms slower.
* **Fig 4** — CDF over one day of production (passive) traffic of the
  distance from client to serving front-end, and of the distance *past*
  the closest front-end, both unweighted and query-volume-weighted.
  Paper: ~55% land on the nearest front-end; ~75% within ~400 km of it;
  82% of clients / 87% of volume within 2000 km of their front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.stats import (
    CdfSeries,
    WeightedDistribution,
    linear_grid,
    log2_grid,
)
from repro.cdn.frontend import FrontEnd, nearest_frontends
from repro.geo.coords import haversine_km
from repro.geo.geolocation import GeolocationDatabase
from repro.simulation.dataset import StudyDataset

#: Region labels the Fig 3 split uses.
WORLD = "world"
UNITED_STATES = "united-states"
EUROPE = "europe"


@dataclass(frozen=True)
class AnycastPenaltyResult:
    """Fig 3 result."""

    series: Tuple[CdfSeries, ...]
    #: region label -> fraction of requests with anycast at least X ms
    #: slower than best measured unicast, for the paper's key thresholds.
    fraction_slower: Dict[str, Dict[float, float]]
    request_count: int

    def format(self) -> str:
        """Paper-style summary plus CCDF rows."""
        lines = [
            "Fig 3 — CCDF of (anycast - best measured unicast) per request"
        ]
        for region, by_threshold in self.fraction_slower.items():
            parts = ", ".join(
                f">={threshold:.0f}ms: {fraction:5.1%}"
                for threshold, fraction in sorted(by_threshold.items())
            )
            lines.append(f"  {region:14s} {parts}")
        for series in self.series:
            lines.append(series.format_rows())
        return "\n".join(lines)


def _fractions_above(
    ordered: np.ndarray, xs: Sequence[float]
) -> Tuple[float, ...]:
    """Share of the sorted values strictly above each ``x``, computed as
    :meth:`WeightedDistribution.fraction_above` does for unit weights
    (``1.0 - count_le / n``), so the floats are the same."""
    count_le = np.searchsorted(
        ordered, np.asarray(xs, dtype=np.float64), side="right"
    )
    return tuple((1.0 - count_le / ordered.size).tolist())


def anycast_penalty_ccdf(
    dataset: StudyDataset,
    regions: Sequence[str] = (EUROPE, WORLD, UNITED_STATES),
    thresholds: Sequence[float] = (1.0, 10.0, 25.0, 50.0, 100.0),
) -> AnycastPenaltyResult:
    """Compute Fig 3 from the per-request diff log.

    Works in both diff-log modes: an exact log sorts the float64
    ``anycast - best`` column of :meth:`RequestDiffLog.columns` once per
    region (a region-code mask) and counts it at the grid; a bounded log
    answers from its merged per-region sketches, within the sketch's
    relative error bound.
    """
    diffs = dataset.request_diffs
    if len(diffs) == 0:
        raise AnalysisError("no beacon requests recorded")
    grid = linear_grid(0.0, 100.0, 5.0)
    xs = tuple(float(x) for x in grid)
    cuts = tuple(threshold - 1e-9 for threshold in thresholds)
    series: List[CdfSeries] = []
    fraction_slower: Dict[str, Dict[float, float]] = {}
    if not diffs.is_bounded:
        _, _, codes, anycast, best = diffs.columns()
        penalty = anycast.astype(np.float64) - best.astype(np.float64)
        known = dict(zip(diffs.region_names, range(len(diffs.region_names))))
    for region in regions:
        region_name = None if region == WORLD else region
        if diffs.is_bounded:
            sketch = diffs.diff_sketch(region_name)
            if sketch is None or sketch.count == 0:
                continue
            ys = tuple(sketch.fraction_above(x) for x in grid)
            above = tuple(sketch.fraction_above(cut) for cut in cuts)
        else:
            if region_name is None:
                values = penalty
            elif region_name in known:
                values = penalty[codes == known[region_name]]
            else:
                continue
            if not values.size:
                continue
            ordered = np.sort(values)
            ys = _fractions_above(ordered, xs)
            above = _fractions_above(ordered, cuts)
        series.append(CdfSeries(label=region, xs=xs, ys=ys))
        fraction_slower[region] = {
            float(threshold): fraction
            for threshold, fraction in zip(thresholds, above)
        }
    if not series:
        raise AnalysisError("no requests matched any requested region")
    return AnycastPenaltyResult(
        series=tuple(series),
        fraction_slower=fraction_slower,
        request_count=len(diffs),
    )


@dataclass(frozen=True)
class AnycastDistanceResult:
    """Fig 4 result: the four CDFs and headline fractions."""

    series: Tuple[CdfSeries, ...]
    fraction_at_nearest: float
    fraction_at_nearest_weighted: float
    fraction_within_2000km: float
    fraction_within_2000km_weighted: float
    past_closest_p75_km: float
    past_closest_p90_km: float

    def format(self) -> str:
        """Paper-style summary plus CDF rows."""
        lines = [
            "Fig 4 — client-to-anycast-front-end distance (one day of "
            "production traffic)",
            f"  directed to nearest front-end: {self.fraction_at_nearest:5.1%}"
            f" (weighted {self.fraction_at_nearest_weighted:5.1%})",
            f"  within 2000 km of front-end:   "
            f"{self.fraction_within_2000km:5.1%}"
            f" (weighted {self.fraction_within_2000km_weighted:5.1%})",
            f"  past-closest p75: {self.past_closest_p75_km:6.0f} km, "
            f"p90: {self.past_closest_p90_km:6.0f} km",
        ]
        for series in self.series:
            lines.append(series.format_rows())
        return "\n".join(lines)


def anycast_distance_cdf(
    dataset: StudyDataset,
    frontends: Sequence[FrontEnd],
    geolocation: GeolocationDatabase,
    day: int = 0,
    nearest_epsilon_km: float = 1.0,
) -> AnycastDistanceResult:
    """Compute Fig 4 from one day of passive logs.

    Distances use geolocated client positions — including the error
    fraction, which is the paper's footnote-1 caveat about very long
    apparent distances.

    Args:
        day: Which production day to analyze.
        nearest_epsilon_km: Slack under which "distance past closest"
            counts as zero (geolocation is not meter-accurate).
    """
    frontends_by_id = {fe.frontend_id: fe for fe in frontends}
    frontends_tuple = tuple(frontends)

    to_frontend: List[float] = []
    past_closest: List[float] = []
    weights: List[float] = []
    for client_key, counts in dataset.passive.iter_day(day):
        frontend_id = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
        frontend = frontends_by_id.get(frontend_id)
        if frontend is None:
            raise AnalysisError(f"passive log names unknown {frontend_id!r}")
        location = geolocation.lookup(client_key)
        distance = haversine_km(location, frontend.location)
        nearest = nearest_frontends(frontends_tuple, location, 1)[0]
        nearest_km = haversine_km(location, nearest.location)
        to_frontend.append(distance)
        past_closest.append(max(0.0, distance - nearest_km))
        weights.append(float(sum(counts.values())))

    if not to_frontend:
        raise AnalysisError(f"no passive traffic on day {day}")

    grid = log2_grid(64.0, 8192.0)
    dist_plain = WeightedDistribution(to_frontend)
    dist_weighted = WeightedDistribution(to_frontend, weights)
    past_plain = WeightedDistribution(past_closest)
    past_weighted = WeightedDistribution(past_closest, weights)
    series = (
        dist_weighted.cdf_series("weighted clients to front-end", grid),
        dist_plain.cdf_series("clients to front-end", grid),
        past_weighted.cdf_series("weighted clients past closest", grid),
        past_plain.cdf_series("clients past closest", grid),
    )
    return AnycastDistanceResult(
        series=series,
        fraction_at_nearest=past_plain.fraction_at_or_below(nearest_epsilon_km),
        fraction_at_nearest_weighted=past_weighted.fraction_at_or_below(
            nearest_epsilon_km
        ),
        fraction_within_2000km=dist_plain.fraction_at_or_below(2000.0),
        fraction_within_2000km_weighted=dist_weighted.fraction_at_or_below(
            2000.0
        ),
        past_closest_p75_km=past_plain.quantile(0.75),
        past_closest_p90_km=past_plain.quantile(0.90),
    )
