"""The stream vocabulary of the live service.

Two event shapes cross the ingestion boundary, mirroring the two data
planes of §3: ``BeaconEvent`` (one joined beacon measurement — the
client /24, the LDNS that resolved it, the target fetched, and the RTT)
and ``PassiveEvent`` (one passive-log count: queries a front-end served
for a client on a day).

The ingestion queue carries beacons in bulk as ``BeaconRun`` items: one
(day, client /24, target) block of float64 RTTs, which is exactly one
ECS digest of a recorded dataset.  A run of *n* RTTs *is* *n* beacon
events — it counts *n* toward every stream cursor, event total and kill
point ordinal, and hashes into the stream digest as those *n* events
would — so a run is a transport unit, never a different datum.  A
stream may mix runs, scalar beacon events (a run of one) and passive
events; :func:`event_count` is the one place that says how many events
an item stands for.

:class:`StreamDigest` is the service's rolling dataset digest: an
incremental, order-insensitive fingerprint of every *admitted* event.
Each event hashes independently (SHA-256 of its canonical encoding) and
the per-event hashes combine by modular addition, so the digest is a
pure function of the admitted-event multiset — invariant under arrival
order and shard interleaving, mergeable across partial streams, and
O(1) to checkpoint.  That is exactly the property the chaos-parity
guarantee needs: a killed-and-resumed stream admits the same multiset,
so it reaches the same digest as an uninterrupted run, bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Union

import numpy as np

from repro.errors import MeasurementError

#: Modulus of the digest accumulator (one SHA-256 word).
_DIGEST_MODULUS = 1 << 256


@dataclass(frozen=True)
class BeaconEvent:
    """One joined beacon measurement arriving on the stream.

    Attributes:
        day: Campaign day index of the measurement.
        client_key: The client /24 (the ECS grouping key).
        ldns_id: The resolver that carried the lookup (the LDNS
            grouping key).  Static per client in this simulation, as
            the dataset's client records assert.
        target_id: ``'anycast'`` or a front-end id.
        rtt_ms: The measured RTT.
    """

    day: int
    client_key: str
    ldns_id: str
    target_id: str
    rtt_ms: float

    def encode(self) -> bytes:
        """Canonical byte encoding (the stream digest's hash input)."""
        return (
            f"beacon\x1f{self.day}\x1f{self.client_key}\x1f{self.ldns_id}"
            f"\x1f{self.target_id}\x1f{self.rtt_ms!r}"
        ).encode("utf-8")


@dataclass(frozen=True)
class PassiveEvent:
    """One passive-log count arriving on the stream.

    Attributes:
        day: Campaign day index.
        client_key: The client /24, or a coarse label when the source
            retains no per-client counts (bounded passive logs).
        frontend_id: The front-end that served the queries.
        count: Queries served.
    """

    day: int
    client_key: str
    frontend_id: str
    count: int

    def encode(self) -> bytes:
        """Canonical byte encoding (the stream digest's hash input)."""
        return (
            f"passive\x1f{self.day}\x1f{self.client_key}"
            f"\x1f{self.frontend_id}\x1f{self.count}"
        ).encode("utf-8")


@dataclass(frozen=True, eq=False)
class BeaconRun:
    """A run of beacon measurements sharing one (day, client, target).

    Stands for ``len(rtts)`` :class:`BeaconEvent` values, in ``rtts``
    order.  Runs compare by identity: ``rtts`` is an array, usually a
    zero-copy view into a day's sample column, and is never mutated.

    Attributes:
        day: Campaign day index of every measurement in the run.
        client_key: The client /24 (the ECS grouping key).
        ldns_id: The resolver that carried the lookups.
        target_id: ``'anycast'`` or a front-end id.
        rtts: One-dimensional float64 RTTs, in stream order.
    """

    day: int
    client_key: str
    ldns_id: str
    target_id: str
    rtts: np.ndarray

    def with_rtts(self, rtts: np.ndarray) -> "BeaconRun":
        """The same (day, client, target) run carrying other RTTs."""
        return BeaconRun(
            self.day, self.client_key, self.ldns_id, self.target_id, rtts
        )

    def encode_prefix(self) -> bytes:
        """The canonical encoding every event of the run shares.

        ``BeaconEvent.encode()`` of the run's *i*-th event is this
        prefix followed by ``repr(rtts[i])``.
        """
        return (
            f"beacon\x1f{self.day}\x1f{self.client_key}\x1f{self.ldns_id}"
            f"\x1f{self.target_id}\x1f"
        ).encode("utf-8")


StreamEvent = Union[BeaconEvent, PassiveEvent]

#: One ingestion-queue item: a beacon run or a scalar event.
StreamItem = Union[BeaconRun, BeaconEvent, PassiveEvent]


def event_count(item: StreamItem) -> int:
    """How many stream events one queue item stands for."""
    return len(item.rtts) if isinstance(item, BeaconRun) else 1


def as_run(item: Union[BeaconRun, BeaconEvent]) -> BeaconRun:
    """A beacon item as a run (a scalar event becomes a run of one)."""
    if isinstance(item, BeaconRun):
        return item
    return BeaconRun(
        day=item.day,
        client_key=item.client_key,
        ldns_id=item.ldns_id,
        target_id=item.target_id,
        rtts=np.array([item.rtt_ms], dtype=np.float64),
    )


class StreamDigest:
    """Order-insensitive incremental digest of admitted stream events.

    Maintains ``sum(SHA-256(event)) mod 2**256`` plus an exact event
    count; :meth:`hexdigest` hashes the pair.  Addition commutes, so the
    digest depends only on the admitted-event *multiset* — two streams
    carrying the same events in any interleaving agree — and the whole
    state serializes to two integers, which is what lets a service
    checkpoint carry its dataset digest without retaining the dataset.
    """

    __slots__ = ("_sum", "_count")

    def __init__(self, accumulator: int = 0, count: int = 0) -> None:
        self._sum = accumulator % _DIGEST_MODULUS
        self._count = count

    @property
    def count(self) -> int:
        """Number of events folded in."""
        return self._count

    def update(self, event: StreamEvent) -> None:
        """Fold one admitted event into the digest."""
        value = int.from_bytes(
            hashlib.sha256(event.encode()).digest(), "big"
        )
        self._sum = (self._sum + value) % _DIGEST_MODULUS
        self._count += 1

    def update_run(self, run: BeaconRun) -> None:
        """Fold every event of an admitted run into the digest.

        Hashes the same per-event bytes :meth:`update` would — the
        run's shared prefix hashed once and copied, then each value's
        ``repr`` — so the digest cannot tell a run from its events.
        """
        copy = hashlib.sha256(run.encode_prefix()).copy
        total = 0
        for text in map(repr, run.rtts.tolist()):
            h = copy()
            h.update(text.encode("ascii"))
            total += int.from_bytes(h.digest(), "big")
        self._sum = (self._sum + total) % _DIGEST_MODULUS
        self._count += len(run.rtts)

    def merge(self, other: "StreamDigest") -> "StreamDigest":
        """Fold another partial stream's digest into this one."""
        self._sum = (self._sum + other._sum) % _DIGEST_MODULUS
        self._count += other._count
        return self

    def hexdigest(self) -> str:
        """The canonical fingerprint of the admitted-event multiset."""
        payload = f"{self._count}\x1f{self._sum:064x}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def copy(self) -> "StreamDigest":
        """An independent digest with identical state."""
        return StreamDigest(self._sum, self._count)

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form (service checkpoints)."""
        return {"sum": f"{self._sum:064x}", "count": self._count}

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "StreamDigest":
        """Rebuild a digest from :meth:`to_obj` output.

        Raises:
            MeasurementError: on a malformed document.
        """
        try:
            return cls(int(str(obj["sum"]), 16), int(obj["count"]))
        except (KeyError, TypeError, ValueError) as error:
            raise MeasurementError(
                f"malformed stream digest document ({error})"
            ) from error
