"""Backend storage: joining the DNS, server, and client-side streams.

§3.2.2: "Each test URL has a globally unique identifier, allowing us to
join HTTP results from the client side with DNS results from the server
side."  :class:`BeaconBackend` performs that join incrementally — a row is
emitted the moment all three pieces for a measurement id have arrived —
so campaigns never hold raw logs in memory, while :func:`join_raw_log`
provides the batch equivalent over a :class:`RawMeasurementLog` for tests
and small studies.

The matrix measurement engine synthesizes measurements already joined
(it knows the target, serving front-end, and RTT of every fetch at
once) and writes them into the aggregate sinks itself, so it only
reports its joined-row volume here via
:meth:`BeaconBackend.count_joined_bulk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MeasurementError
from repro.measurement.logs import (
    HttpLogEntry,
    JoinedMeasurement,
    RawMeasurementLog,
    ServerLogEntry,
)

#: Callback type receiving each joined measurement.
JoinedObserver = Callable[[JoinedMeasurement], None]


@dataclass
class _Partial:
    """Accumulates a measurement's pieces until the join completes."""

    ldns_id: Optional[str] = None
    target_id: Optional[str] = None
    serving_frontend_id: Optional[str] = None
    http: Optional[HttpLogEntry] = None

    def complete(self) -> bool:
        return (
            self.ldns_id is not None
            and self.serving_frontend_id is not None
            and self.http is not None
        )


class BeaconBackend:
    """Incremental three-way join keyed by measurement id."""

    def __init__(self, observers: Sequence[JoinedObserver] = ()) -> None:
        self._observers: List[JoinedObserver] = list(observers)
        self._partials: Dict[str, _Partial] = {}
        self._joined_count = 0

    def add_observer(self, observer: JoinedObserver) -> None:
        """Register another consumer of joined rows."""
        self._observers.append(observer)

    @property
    def joined_count(self) -> int:
        """Rows emitted so far."""
        return self._joined_count

    @property
    def pending_count(self) -> int:
        """Measurement ids still missing at least one stream."""
        return len(self._partials)

    def _partial(self, measurement_id: str) -> _Partial:
        partial = self._partials.get(measurement_id)
        if partial is None:
            partial = _Partial()
            self._partials[measurement_id] = partial
        return partial

    def on_dns(self, measurement_id: str, ldns_id: str, target_id: str) -> None:
        """Ingest a DNS query-log row."""
        partial = self._partial(measurement_id)
        partial.ldns_id = ldns_id
        partial.target_id = target_id
        self._maybe_emit(measurement_id, partial)

    def on_server(self, measurement_id: str, serving_frontend_id: str) -> None:
        """Ingest a server access-log row."""
        partial = self._partial(measurement_id)
        partial.serving_frontend_id = serving_frontend_id
        self._maybe_emit(measurement_id, partial)

    def on_http(self, entry: HttpLogEntry) -> None:
        """Ingest a client-side beacon report."""
        partial = self._partial(entry.measurement_id)
        partial.http = entry
        self._maybe_emit(entry.measurement_id, partial)

    def count_joined_bulk(self, count: int) -> None:
        """Account ``count`` already-joined rows.

        The matrix engine writes its columns into the aggregate sinks
        directly, so it reports its admitted row volume here — the
        number of rows the per-id join would have emitted.  Only valid
        for backends with no scalar observers to notify.

        Raises:
            MeasurementError: if scalar observers are registered — they
                would silently miss these rows.
        """
        if self._observers:
            raise MeasurementError(
                "bulk joined-count accounting cannot notify scalar "
                "observers"
            )
        if count < 0:
            raise MeasurementError("joined count cannot be negative")
        self._joined_count += count

    def merge(self, other: "BeaconBackend") -> "BeaconBackend":
        """Fold another backend's join state into this one (in place).

        Joined-row counts add up; still-pending partials carry over so a
        merged backend reports the combined outstanding joins.  Observers
        are *not* merged — rows already emitted on ``other`` stay emitted
        there.

        Raises:
            MeasurementError: if both backends hold a partial for the
                same measurement id (shards must use disjoint id spaces
                if their partials are ever merged).
        """
        overlap = self._partials.keys() & other._partials.keys()
        if overlap:
            raise MeasurementError(
                f"cannot merge backends with overlapping pending "
                f"measurements (e.g. {sorted(overlap)[0]!r})"
            )
        self._partials.update(other._partials)
        self._joined_count += other._joined_count
        return self

    def _maybe_emit(self, measurement_id: str, partial: _Partial) -> None:
        if not partial.complete():
            return
        http = partial.http
        assert http is not None and partial.ldns_id is not None
        assert partial.target_id is not None
        assert partial.serving_frontend_id is not None
        joined = JoinedMeasurement(
            day=http.day,
            client_key=http.client_key,
            ldns_id=partial.ldns_id,
            target_id=partial.target_id,
            frontend_id=partial.serving_frontend_id,
            rtt_ms=http.rtt_ms,
        )
        del self._partials[measurement_id]
        self._joined_count += 1
        for observer in self._observers:
            observer(joined)


def join_raw_log(log: RawMeasurementLog) -> Tuple[JoinedMeasurement, ...]:
    """Batch join of a raw log's three streams.

    Raises:
        MeasurementError: if any HTTP row lacks its DNS or server
            counterpart — a campaign bug, not an expected condition.
    """
    server_by_id: Dict[str, ServerLogEntry] = {
        entry.measurement_id: entry for entry in log.server_entries
    }
    joined: List[JoinedMeasurement] = []
    for http in log.http_entries:
        ldns_id, target_id = log.dns_record(http.measurement_id)
        server = server_by_id.get(http.measurement_id)
        if server is None:
            raise MeasurementError(
                f"measurement {http.measurement_id!r} has no server log row"
            )
        joined.append(
            JoinedMeasurement(
                day=http.day,
                client_key=http.client_key,
                ldns_id=ldns_id,
                target_id=target_id,
                frontend_id=server.serving_frontend_id,
                rtt_ms=http.rtt_ms,
            )
        )
    return tuple(joined)
