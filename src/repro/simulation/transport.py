"""Shard-result transport for parallel campaigns.

A worker's partial dataset crosses the process boundary as the frames
of its own export (:func:`repro.measurement.export.column_frames`,
numeric cells left as arrays), pickled once with the shard's stats,
telemetry snapshot and quarantine: ``MAGIC | pickle((frames, stats,
snapshot, quarantine))``.  The coordinator reads the frames with the
export's reader (:func:`repro.measurement.export.dataset_from_frames`),
so a shard in a pipe and a checkpoint in a file share one codec.  The
SHA-256 envelope in :mod:`repro.simulation.parallel` hashes these
bytes, so corruption anywhere is detected before a merge.

Large payloads ship through a ``multiprocessing.shared_memory`` block
where available, the envelope carrying only its name; otherwise (no
shared memory, tiny payloads, in-process pools) the bytes travel inline
through the normal pool pipe.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Tuple

from repro.errors import MeasurementError
from repro.measurement.export import column_frames, dataset_from_frames
from repro.simulation.dataset import StudyDataset
from repro.telemetry import get_logger

try:  # pragma: no cover - platform probe
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - exercised only where absent
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    HAVE_SHARED_MEMORY = False

_log = get_logger("transport")

#: Leading bytes of every shard payload.
MAGIC = b"RPRO-SHARD5\x00"

#: Payloads smaller than this ship inline even when shared memory is
#: available — a shared-memory block has fixed setup cost that only
#: pays off for real data volumes.
SHM_MIN_BYTES = 256 * 1024


def encode_shard_payload(
    dataset: StudyDataset,
    stats: Any,
    snapshot: Any,
    quarantine: Any,
) -> bytes:
    """Encode one shard's results as its export frames plus extras."""
    frames = list(column_frames(dataset))
    return MAGIC + pickle.dumps(
        (frames, stats, snapshot, quarantine),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_shard_payload(
    payload: bytes, clients: Tuple[Any, ...]
) -> Tuple[StudyDataset, Any, Any, Any]:
    """Decode shard payload bytes back into shard results, re-homed on
    ``clients`` (the coordinator's own tuple; every shard rebuilds an
    equal population).

    Raises:
        MeasurementError: when the payload is not a shard encoding, is
            damaged (the structural backstop behind the SHA-256
            envelope), or covers a different client population.
    """
    if payload[: len(MAGIC)] != MAGIC:
        raise MeasurementError("shard payload is not a shard encoding")
    try:
        frames, stats, snapshot, quarantine = pickle.loads(
            memoryview(payload)[len(MAGIC) :]
        )
        dataset = dataset_from_frames(frames, "shard payload")
    except MeasurementError:
        raise
    except Exception as error:
        raise MeasurementError(
            f"shard payload is damaged ({error!r})"
        ) from error
    if len(dataset.clients) != len(clients):
        raise MeasurementError(
            "shard payload was produced over a different client "
            f"population ({len(dataset.clients)} != {len(clients)})"
        )
    dataset.clients = clients
    return dataset, stats, snapshot, quarantine


# ----------------------------------------------------------------------
# Shared-memory shipping
# ----------------------------------------------------------------------


def ship_payload(payload: bytes, use_shm: bool) -> Tuple[bytes, Optional[str]]:
    """Place encoded payload bytes for the coordinator.

    Returns ``(inline_bytes, shm_name)`` — exactly one is meaningful.
    Large payloads go into a ``multiprocessing.shared_memory`` block
    (the worker unregisters it from its resource tracker and hands
    ownership to the coordinator, which unlinks after reading); small
    payloads, in-process runs, and platforms without shared memory fall
    back to inline bytes through the pool pipe.
    """
    if (
        not use_shm
        or not HAVE_SHARED_MEMORY
        or len(payload) < SHM_MIN_BYTES
    ):
        return payload, None
    try:
        block = shared_memory.SharedMemory(create=True, size=len(payload))
    except OSError as error:  # pragma: no cover - resource exhaustion
        _log.warning(
            "shared-memory allocation failed; shipping inline",
            extra={"bytes": len(payload), "error": str(error)},
        )
        return payload, None
    try:
        block.buf[: len(payload)] = payload
        # Ownership transfers to the coordinator: stop this process's
        # resource tracker from unlinking the block at worker exit.
        try:
            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
        return b"", block.name
    finally:
        block.close()


def receive_payload(
    inline: bytes, shm_name: Optional[str], size: int
) -> bytes:
    """Fetch payload bytes the worker shipped; frees the SHM block.

    ``size`` is the exact payload length — shared-memory blocks round
    up to page granularity, so the block may be larger than the data.
    """
    if shm_name is None:
        return inline
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - defensive
        raise MeasurementError(
            f"shard shipped via shared memory ({shm_name!r}) but this "
            "platform has none"
        )
    block = shared_memory.SharedMemory(name=shm_name)
    try:
        payload = bytes(block.buf[:size])
    finally:
        block.close()
        block.unlink()
    return payload


def release_payload(shm_name: Optional[str]) -> None:
    """Unlink an unclaimed shared-memory block (stale/abandoned shard)."""
    if shm_name is None or not HAVE_SHARED_MEMORY:
        return
    try:
        block = shared_memory.SharedMemory(name=shm_name)
    except FileNotFoundError:
        return
    block.close()
    block.unlink()
