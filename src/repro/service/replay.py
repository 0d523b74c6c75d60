"""Deterministic event streams recovered from recorded exports.

``repro replay`` feeds the live service from a *recorded* campaign: a
framed export (or an in-memory :class:`~repro.simulation.dataset
.StudyDataset`) is unrolled back into the beacon and passive events
that produced it, in a canonical day-ascending order.  Beacons come out
as :class:`~repro.service.events.BeaconRun` items — one per recorded
(day, client /24, target) ECS digest, each a zero-copy slice of the
day's sample column — so the stream costs no per-event objects.
Because the dataset's exact-mode digests retain every sample
bit-for-bit, and each client record carries its (static) LDNS id, the
reconstructed stream reproduces both grouping planes' sample multisets
exactly — which is what lets ``tests/test_service_replay.py`` use the
batch predictor as a differential oracle for the online one.

:func:`dirty_events` rides the campaign's ``record-*`` fault vocabulary
into replay: it damages the same seed-derived (day, client) cells the
batch dirty-data chaos tests target, so a replay under a lenient gate
quarantines deterministic, non-empty record sets — the chaos-parity
tests need a populated quarantine log to make its digest a meaningful
part of the bit-identity assertion.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.faults.inject import RecordFaultInjector
from repro.faults.plan import FaultPlan
from repro.service.events import (
    BeaconEvent,
    BeaconRun,
    PassiveEvent,
    StreamItem,
    as_run,
    event_count,
)
from repro.simulation.dataset import StudyDataset

#: Client label replayed passive events carry when the recorded passive
#: log is bounded (per-day front-end totals only, no per-client rows).
PASSIVE_TOTAL_KEY = "all"


def events_from_dataset(dataset: StudyDataset) -> List[StreamItem]:
    """Unroll a recorded dataset into its canonical event stream.

    Day-ascending; within a day, beacon runs first (sorted by client
    /24, then target; each run's samples in stored order), then passive
    counts.  The ECS aggregates are the beacon source of truth — every
    joined measurement contributed exactly one ECS sample — and each
    run's LDNS id comes from the client record, so replaying the stream
    rebuilds the LDNS plane's multiset too.

    Raises:
        MeasurementError: when the dataset's digests are sketch-mode
            (promoted sketches retain no samples to replay) or a group
            key has no client record to recover an LDNS id from.
    """
    ldns_by_key = {client.key: client.ldns_id for client in dataset.clients}
    ecs = dataset.ecs_aggregates
    passive = dataset.passive
    ecs_days = set(ecs.days)
    passive_days = set(passive.days)
    events: List[StreamItem] = []
    for day in sorted(ecs_days | passive_days):
        if day in ecs_days:
            columns = ecs.day_columns(day)
            sketched = {index for index, _ in columns.sketches}
            offset = 0
            for index, (group, target_id) in enumerate(columns.keys):
                ldns_id = ldns_by_key.get(group)
                if ldns_id is None:
                    raise MeasurementError(
                        f"no client record for ECS group {group!r}; "
                        "cannot recover its LDNS id for replay"
                    )
                if index in sketched:
                    raise MeasurementError(
                        "sketch-mode export retains no samples to "
                        f"replay (day {day}, group {group!r}, "
                        f"target {target_id!r}); replay needs an "
                        "exact-mode export"
                    )
                size = int(columns.counts[index])
                if size:
                    events.append(
                        BeaconRun(
                            day=day,
                            client_key=group,
                            ldns_id=ldns_id,
                            target_id=target_id,
                            rtts=columns.samples[offset : offset + size],
                        )
                    )
                offset += size
        if day in passive_days:
            if passive.is_bounded:
                for frontend_id, count in sorted(
                    passive.day_totals(day).items()
                ):
                    events.append(
                        PassiveEvent(
                            day=day,
                            client_key=PASSIVE_TOTAL_KEY,
                            frontend_id=frontend_id,
                            count=count,
                        )
                    )
            else:
                for client_key in sorted(passive.clients_on(day)):
                    for frontend_id, count in sorted(
                        passive.frontends_for(day, client_key).items()
                    ):
                        events.append(
                            PassiveEvent(
                                day=day,
                                client_key=client_key,
                                frontend_id=frontend_id,
                                count=count,
                            )
                        )
    return events


def dirty_events(
    dataset: StudyDataset,
    events: List[StreamItem],
    plan: Optional[FaultPlan],
    seed: int,
) -> List[StreamItem]:
    """Damage a replay stream per a plan's ``record-*`` faults.

    Record-fault coordinates compile against the full population and
    calendar — exactly like the campaign's dirty-data injection — and
    land on slots within each (day, client) beacon block: that client's
    beacon events for the day in stream order (its runs concatenated in
    target order), so the same plan and seed dirty the same stream
    positions on every run.  Returns a new list; the input is never
    mutated, and only damaged runs are copied (a damaged scalar beacon
    event comes back as a run of one).
    """
    result = list(events)
    if plan is None or not plan.record_specs:
        return result
    compiled = plan.compile_records(
        seed, dataset.calendar.num_days, len(dataset.clients)
    )
    injector = RecordFaultInjector(compiled)
    if injector.empty:
        return result
    index_by_key = {
        client.key: i for i, client in enumerate(dataset.clients)
    }
    # (day, client index) -> the block's (stream position, first slot).
    blocks: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    sizes: Dict[Tuple[int, int], int] = {}
    for position, item in enumerate(result):
        if not isinstance(item, (BeaconRun, BeaconEvent)):
            continue
        client_index = index_by_key.get(item.client_key)
        if client_index is None:
            continue
        block = (item.day, client_index)
        first = sizes.get(block, 0)
        blocks.setdefault(block, []).append((position, first))
        sizes[block] = first + event_count(item)
    copies: Dict[int, np.ndarray] = {}
    for block, members in sorted(blocks.items()):
        slots = injector.slots_for(block[0], block[1], sizes[block])
        firsts = [first for _, first in members]
        for slot, kind in sorted(slots.items()):
            position, first = members[bisect.bisect_right(firsts, slot) - 1]
            rtts = copies.get(position)
            if rtts is None:
                rtts = np.array(as_run(result[position]).rtts)
                copies[position] = rtts
            rtts[slot - first] = RecordFaultInjector.dirty_value(
                kind, float(rtts[slot - first])
            )
    for position, rtts in copies.items():
        result[position] = as_run(result[position]).with_rtts(rtts)
    return result
