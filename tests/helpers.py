"""Hand-built dataset factory for exact-value analysis tests."""

from __future__ import annotations

import io
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.clients.population import ClientPrefix
from repro.geo.coords import GeoPoint
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.export import _dataset_frames
from repro.measurement.logs import PassiveLog
from repro.measurement.storage import write_segment_file
from repro.net.ip import IPv4Address, IPv4Prefix
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset


def make_client(
    index: int,
    location: GeoPoint = GeoPoint(0.0, 0.0),
    home_metro: str = "nyc",
    daily_queries: float = 10.0,
    ldns_id: str = "ldns-x",
    asn: int = 10000,
) -> ClientPrefix:
    """A synthetic client /24 with a stable key derived from ``index``."""
    network = IPv4Address((10 << 24) | (index << 8))
    return ClientPrefix(
        prefix=IPv4Prefix(network, 24),
        asn=asn,
        home_metro=home_metro,
        location=location,
        access_delay_ms=5.0,
        daily_queries=daily_queries,
        ldns_id=ldns_id,
    )


def make_dataset(
    clients: Sequence[ClientPrefix],
    num_days: int = 3,
    ecs_samples: Optional[
        Iterable[Tuple[int, str, str, Sequence[float]]]
    ] = None,
    ldns_samples: Optional[
        Iterable[Tuple[int, str, str, Sequence[float]]]
    ] = None,
    passive_counts: Optional[
        Iterable[Tuple[int, str, str, int]]
    ] = None,
) -> StudyDataset:
    """Assemble a StudyDataset from explicit samples.

    ``ecs_samples`` rows are (day, client_key, target_id, rtts);
    ``passive_counts`` rows are (day, client_key, frontend_id, count).
    """
    ecs = GroupedDailyAggregates("ecs")
    for day, group, target, rtts in ecs_samples or ():
        for rtt in rtts:
            ecs.observe(day, group, target, rtt)
    ldns = GroupedDailyAggregates("ldns")
    for day, group, target, rtts in ldns_samples or ():
        for rtt in rtts:
            ldns.observe(day, group, target, rtt)
    passive = PassiveLog()
    for day, client_key, frontend_id, count in passive_counts or ():
        passive.record(day, client_key, frontend_id, count)
    return StudyDataset(
        calendar=SimulationCalendar(num_days=num_days),
        clients=tuple(clients),
        ecs_aggregates=ecs,
        ldns_aggregates=ldns,
        request_diffs=RequestDiffLog(),
        passive=passive,
    )


def framed_export(dataset: StudyDataset, **header: Any) -> io.StringIO:
    """The dataset's framed export as a rewound stream, with ``header``
    fields overridden (``None`` deletes a field)."""
    frames = list(_dataset_frames(dataset))
    for key, value in header.items():
        if value is None:
            frames[0].pop(key, None)
        else:
            frames[0][key] = value
    buffer = io.StringIO()
    write_segment_file(buffer, frames)
    buffer.seek(0)
    return buffer


def diff_values(
    log: RequestDiffLog, region_name: Optional[str] = None
) -> List[float]:
    """Anycast minus best-unicast per request (optionally one region),
    in row order, from :meth:`RequestDiffLog.columns`."""
    _, _, codes, anycast, best = log.columns()
    values = anycast.astype(np.float64) - best.astype(np.float64)
    if region_name is not None:
        if region_name not in log.region_names:
            return []
        values = values[codes == log.region_names.index(region_name)]
    return values.tolist()
