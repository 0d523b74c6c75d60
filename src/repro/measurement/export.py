"""Persisting campaign datasets to disk and loading them back.

A paper-scale campaign takes minutes to run; analyses and ablations over
it take milliseconds.  These helpers serialize a
:class:`repro.simulation.dataset.StudyDataset` so a campaign can be run
once and analyzed many times — the same split the paper's backend
storage provided.

One on-disk format, version 4: a crash-safe framed segment file
(:mod:`repro.measurement.storage`) — length + CRC32 JSON lines, a footer,
temp file + atomic rename — whose data frames are column blocks:

* a ``header`` frame: calendar, counts, coverage, sink groupings, the
  sketch configuration, the request-diff region names and the load
  summary;
* ``clients`` frames of up to 500 client records each;
* per day, one ``aggregates`` block per sink (ECS, LDNS): ``keys``
  (``[group, target]`` pairs in :meth:`GroupedDailyAggregates.iter_day`
  order), ``counts`` (int64 sample counts), ``samples`` (every exact
  sample concatenated as one float64 buffer) and ``sketches``
  (``[key index, sketch]`` for promoted digests); then a ``passive``
  frame (or ``passive_totals`` for a bounded passive log);
* bounded request-diff logs write per-day ``diff_sketches`` frames;
  exact ones write ``request_diffs`` chunks of up to 100,000 rows as
  five little-endian columns (``<i4`` day, ``<i4`` client index, ``i1``
  region code, ``<f4`` anycast and best-unicast RTTs).

:func:`column_frames` yields these frames with numeric columns as
arrays in their storage dtype; the shard transport pickles them as they
are, and :func:`save_dataset` writes them as base64 of their raw bytes,
so values — ``-0.0``, subnormals, NaN payloads — round-trip bit for
bit.  One reader decodes either form, block by block with a handful of
numpy calls (:meth:`GroupedDailyAggregates.load_day_columns`,
:meth:`RequestDiffLog.append_columns`): frame by frame as a file is
read, or from a list (:func:`dataset_from_frames`).
:func:`load_dataset` reads strictly; :func:`recover_dataset`
salvages damaged files — skipping corrupt frames, truncating torn tails
— and reports exactly what survived.  Versions 1-3 (the single JSON
document and the per-row framed layouts) are no longer read: loading
one raises a :class:`MeasurementError` naming the file and its version.
"""

from __future__ import annotations

import base64
import datetime
import json
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import MeasurementError, StorageError
from repro.clients.population import ClientPrefix
from repro.geo.coords import GeoPoint
from repro.measurement.aggregate import (
    DayColumns,
    GroupedDailyAggregates,
    LatencyDigest,
    RequestDiffLog,
)
from repro.measurement.logs import PassiveLog
from repro.measurement.sketch import DEFAULT_MAX_BUCKETS, LatencySketch
from repro.measurement.storage import (
    RecoveryReport,
    iter_frames,
    open_segment,
    write_segment_file,
)
from repro.measurement.validate import RECORD_SCHEMA_VERSION
from repro.telemetry import get_logger
from repro.net.ip import IPv4Prefix
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset

#: Format marker of the framed column-block exports; the only one read.
FORMAT_VERSION = 4

#: Client records per ``clients`` frame.
_CLIENT_CHUNK = 500

#: Request-diff rows per ``request_diffs`` frame.
_DIFF_CHUNK = 100_000

#: ``request_diffs`` columns, in :meth:`RequestDiffLog.columns` order.
_DIFF_COLUMNS = (
    ("day", "<i4"),
    ("client_index", "<i4"),
    ("region_code", "i1"),
    ("anycast", "<f4"),
    ("best_unicast", "<f4"),
)

#: Numeric cells of each frame kind, with their storage dtypes.
_ARRAY_CELLS = {
    "aggregates": (("counts", "<i8"), ("samples", "<f8")),
    "request_diffs": _DIFF_COLUMNS,
}

_log = get_logger("export")


def _pack(values: np.ndarray, dtype: str) -> str:
    """Base64 of the values as ``dtype`` bytes (one buffer, no
    per-element Python work)."""
    raw = np.ascontiguousarray(values, dtype=np.dtype(dtype)).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _unpack(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype=np.dtype(dtype))


def _cell(value: Union[str, np.ndarray], dtype: str) -> np.ndarray:
    """A numeric cell as an array: base64 text when it was read from a
    file, the array itself when it crossed a pipe."""
    if isinstance(value, str):
        return _unpack(value, dtype)
    return np.asarray(value, dtype=np.dtype(dtype))


def _packed(frame: Dict[str, Any]) -> Dict[str, Any]:
    """The file form of a frame: its array cells as base64 text."""
    cells = _ARRAY_CELLS.get(frame["kind"], ())
    packed = {name: _pack(frame[name], dtype) for name, dtype in cells}
    return {**frame, **packed}


def digest_payload(digest: LatencyDigest) -> Any:
    """Serialize one :class:`LatencyDigest` to a JSON-safe payload.

    Exact digests pack their float64 samples bit-exactly (base64);
    promoted digests serialize their sketch.  The live service's window
    checkpoints use this so a spilled window round-trips without losing
    a bit.
    """
    if digest.is_exact:
        return _pack(digest.values_view(), "<f8")
    assert digest.sketch is not None
    return {"sketch": digest.sketch.to_obj()}


def digest_from_payload(
    payload: Any,
    exact_threshold: Optional[int],
    relative_accuracy: float,
    max_buckets: int = DEFAULT_MAX_BUCKETS,
) -> LatencyDigest:
    """Inverse of :func:`digest_payload`, rebuilding the digest with the
    given sketch-mode configuration."""
    if isinstance(payload, dict):
        return LatencyDigest.from_sketch(
            LatencySketch.from_obj(payload["sketch"]),
            exact_threshold=exact_threshold,
            relative_accuracy=relative_accuracy,
            max_buckets=max_buckets,
        )
    digest = LatencyDigest(
        exact_threshold=exact_threshold,
        relative_accuracy=relative_accuracy,
        max_buckets=max_buckets,
    )
    digest.extend(_unpack(payload, "<f8"))
    return digest


def _client_to_obj(client: ClientPrefix) -> Dict[str, Any]:
    return {
        "prefix": str(client.prefix),
        "asn": client.asn,
        "home_metro": client.home_metro,
        "lat": client.location.lat,
        "lon": client.location.lon,
        "access_delay_ms": client.access_delay_ms,
        "daily_queries": client.daily_queries,
        "ldns_id": client.ldns_id,
    }


def _client_from_obj(obj: Dict[str, Any]) -> ClientPrefix:
    return ClientPrefix(
        prefix=IPv4Prefix.parse(obj["prefix"]),
        asn=int(obj["asn"]),
        home_metro=obj["home_metro"],
        location=GeoPoint(obj["lat"], obj["lon"]),
        access_delay_ms=float(obj["access_delay_ms"]),
        daily_queries=float(obj["daily_queries"]),
        ldns_id=obj["ldns_id"],
    )


def _aggregate_block(
    which: str, aggregates: GroupedDailyAggregates, day: int
) -> Dict[str, Any]:
    """One (sink, day) as a column block: keys, counts, samples, sketches."""
    columns = aggregates.day_columns(day, ordered=False)
    return {
        "kind": "aggregates",
        "which": which,
        "day": day,
        "keys": columns.keys,
        "counts": np.ascontiguousarray(columns.counts, dtype="<i8"),
        "samples": np.ascontiguousarray(columns.samples, dtype="<f8"),
        "sketches": [
            [index, sketch.to_obj()] for index, sketch in columns.sketches
        ],
    }


def _apply_aggregate_block(
    aggregates: GroupedDailyAggregates, frame: Dict[str, Any]
) -> int:
    """Load one :func:`_aggregate_block` into a sink; returns the
    block's measurement count."""
    counts = _cell(frame["counts"], "<i8")
    aggregates.load_day_columns(
        int(frame["day"]),
        DayColumns(
            keys=frame["keys"],
            counts=counts,
            sketches=[
                (int(index), LatencySketch.from_obj(obj))
                for index, obj in frame["sketches"]
            ],
            samples=_cell(frame["samples"], "<f8"),
        ),
    )
    return int(counts.sum())


def column_frames(dataset: StudyDataset) -> Iterator[Dict[str, Any]]:
    """Yield a dataset as v4 frames (header, clients, data, no footer).

    Numeric cells are arrays in their storage dtype: the shard
    transport pickles these frames as they are, and
    :func:`save_dataset` packs the cells as base64 text on the way to
    the file.  :func:`dataset_from_frames` reads either form.
    """
    clients = dataset.clients
    client_chunks = max(
        1, (len(clients) + _CLIENT_CHUNK - 1) // _CLIENT_CHUNK
    )
    diffs = dataset.request_diffs
    diff_chunks = (
        0
        if diffs.is_bounded
        else (len(diffs) + _DIFF_CHUNK - 1) // _DIFF_CHUNK
    )
    ecs = dataset.ecs_aggregates
    yield {
        "kind": "header",
        "format_version": FORMAT_VERSION,
        "record_schema_version": RECORD_SCHEMA_VERSION,
        "calendar": {
            "start": dataset.calendar.start.isoformat(),
            "num_days": dataset.calendar.num_days,
        },
        "beacon_count": dataset.beacon_count,
        "measurement_count": dataset.measurement_count,
        "covered_ranges": (
            None
            if dataset.covered_ranges is None
            else [[start, stop] for start, stop in dataset.covered_ranges]
        ),
        "ecs_grouping": ecs.grouping,
        "ldns_grouping": dataset.ldns_aggregates.grouping,
        "client_count": len(clients),
        "client_chunks": client_chunks,
        "diff_chunks": diff_chunks,
        "sketch": {
            "exact_threshold": ecs.exact_threshold,
            "relative_accuracy": ecs.relative_accuracy,
            "max_buckets": ecs.max_buckets,
        },
        "diffs_bounded": diffs.is_bounded,
        "diffs_accuracy": diffs.relative_accuracy,
        "diffs_max_buckets": diffs.max_buckets,
        "diff_region_names": list(diffs.region_names),
        "passive_bounded": dataset.passive.is_bounded,
        "load_summary": dataset.load_summary,
    }
    for index in range(client_chunks):
        start = index * _CLIENT_CHUNK
        yield {
            "kind": "clients",
            "index": index,
            "rows": [
                _client_to_obj(c)
                for c in clients[start : start + _CLIENT_CHUNK]
            ],
        }
    # Data frames are per day (and per diff chunk), so damage is
    # localized: a torn tail loses trailing days, not the whole file.
    days = sorted(
        set(dataset.ecs_aggregates.days)
        | set(dataset.ldns_aggregates.days)
        | set(dataset.passive.days)
    )
    for day in days:
        yield _aggregate_block("ecs", dataset.ecs_aggregates, day)
        yield _aggregate_block("ldns", dataset.ldns_aggregates, day)
        if dataset.passive.is_bounded:
            yield {
                "kind": "passive_totals",
                "day": day,
                "totals": dataset.passive.day_totals(day),
            }
        else:
            yield {
                "kind": "passive",
                "day": day,
                "clients": {
                    client_key: counts
                    for client_key, counts in dataset.passive.iter_day(day)
                },
            }
    if diffs.is_bounded:
        # One frame per day, mirroring the aggregate frames' damage
        # locality: a torn tail loses trailing days of sketches only.
        sketches = diffs.day_region_sketches()
        for day in sorted({day for day, _ in sketches}):
            yield {
                "kind": "diff_sketches",
                "day": day,
                "rows": [
                    [region, sketches[(d, region)].to_obj()]
                    for d, region in sorted(sketches)
                    if d == day
                ],
            }
    columns = diffs.columns() if diff_chunks else ()
    for index in range(diff_chunks):
        rows = slice(index * _DIFF_CHUNK, (index + 1) * _DIFF_CHUNK)
        yield {
            "kind": "request_diffs",
            "index": index,
            **{
                name: np.ascontiguousarray(column[rows], dtype=dtype)
                for (name, dtype), column in zip(_DIFF_COLUMNS, columns)
            },
        }


def _dataset_frames(dataset: StudyDataset) -> Iterator[Dict[str, Any]]:
    """The frames of a dataset's file, numeric cells packed as text."""
    return map(_packed, column_frames(dataset))


@dataclass
class DatasetRecovery:
    """What :func:`recover_dataset` salvaged from a damaged export.

    Attributes:
        report: The frame-level salvage accounting.
        claimed_beacon_count: Beacon count the header recorded.
        claimed_measurement_count: Measurement count the header recorded.
        recovered_measurement_count: Joined measurements actually present
            in the salvaged ECS blocks; equals the claim iff nothing
            data-bearing was lost.
    """

    report: RecoveryReport
    claimed_beacon_count: int = 0
    claimed_measurement_count: int = 0
    recovered_measurement_count: int = 0

    @property
    def complete(self) -> bool:
        """True when the file was undamaged after all."""
        return (
            self.report.complete
            and self.recovered_measurement_count
            == self.claimed_measurement_count
        )

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form for run manifests."""
        return {
            "complete": self.complete,
            "claimed_beacon_count": self.claimed_beacon_count,
            "claimed_measurement_count": self.claimed_measurement_count,
            "recovered_measurement_count": self.recovered_measurement_count,
            **self.report.to_obj(),
        }


class _DatasetReader:
    """Applies decoded v4 frames to fresh sinks, one frame at a time."""

    def __init__(self, header: Dict[str, Any], source: str) -> None:
        version = header.get("format_version")
        if version is None:
            raise MeasurementError(
                f"{source}: dataset export carries no format version "
                "field — not a dataset export, or one too damaged to "
                "identify"
            )
        if version != FORMAT_VERSION:
            raise MeasurementError(
                f"{source}: unsupported dataset format version "
                f"{version!r} (this build reads version {FORMAT_VERSION} "
                "only; re-export the dataset)"
            )
        self.header = header
        self.source = source
        sketch = header["sketch"]
        threshold = sketch["exact_threshold"]
        self.ecs, self.ldns = (
            GroupedDailyAggregates(
                header[grouping],
                exact_threshold=None if threshold is None else int(threshold),
                relative_accuracy=float(sketch["relative_accuracy"]),
                max_buckets=int(sketch["max_buckets"]),
            )
            for grouping in ("ecs_grouping", "ldns_grouping")
        )
        self.passive = PassiveLog(bounded=bool(header["passive_bounded"]))
        self.diffs = RequestDiffLog(
            bounded=bool(header["diffs_bounded"]),
            relative_accuracy=float(header["diffs_accuracy"]),
            max_buckets=int(header["diffs_max_buckets"]),
        )
        for name in header["diff_region_names"]:
            self.diffs.region_code(name)
        self.client_chunks: Dict[int, List[Any]] = {}
        self.next_diff_chunk = 0
        self.ecs_measurements = 0

    def apply(self, frame: Dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "clients":
            self.client_chunks[int(frame["index"])] = frame["rows"]
        elif kind == "aggregates":
            if frame["which"] == "ecs":
                self.ecs_measurements += _apply_aggregate_block(
                    self.ecs, frame
                )
            else:
                _apply_aggregate_block(self.ldns, frame)
        elif kind == "passive":
            day = int(frame["day"])
            for client_key, counts in frame["clients"].items():
                for frontend_id, count in counts.items():
                    self.passive.record(
                        day, client_key, frontend_id, int(count)
                    )
        elif kind == "passive_totals":
            day = int(frame["day"])
            for frontend_id, count in frame["totals"].items():
                self.passive.record(day, "", frontend_id, int(count))
        elif kind == "diff_sketches":
            day = int(frame["day"])
            for region, sketch_obj in frame["rows"]:
                self.diffs.load_sketch(
                    day, region, LatencySketch.from_obj(sketch_obj)
                )
        elif kind == "request_diffs":
            # Row order matters for the diff columns: apply chunks in
            # index order and drop everything after a gap.
            if int(frame["index"]) != self.next_diff_chunk:
                return
            self.diffs.append_columns(
                *(_cell(frame[name], dtype) for name, dtype in _DIFF_COLUMNS)
            )
            self.next_diff_chunk += 1

    def finish(
        self, report: RecoveryReport
    ) -> Tuple[StudyDataset, DatasetRecovery]:
        header = self.header
        chunks = self.client_chunks
        if sorted(chunks) != list(range(int(header["client_chunks"]))):
            raise StorageError(
                f"{self.source}: unrecoverable dataset export: client "
                f"frames are incomplete ({len(chunks)} of "
                f"{header['client_chunks']} chunks survived)"
            )
        clients = tuple(
            _client_from_obj(obj)
            for index in sorted(chunks)
            for obj in chunks[index]
        )
        if len(clients) != int(header["client_count"]):
            raise StorageError(
                f"{self.source}: unrecoverable dataset export: client "
                "count mismatch "
                f"({len(clients)} != {header['client_count']})"
            )
        recovery = DatasetRecovery(
            report=report,
            claimed_beacon_count=int(header["beacon_count"]),
            claimed_measurement_count=int(header["measurement_count"]),
            recovered_measurement_count=self.ecs_measurements,
        )
        covered = header["covered_ranges"]
        dataset = StudyDataset(
            calendar=SimulationCalendar(
                start=datetime.date.fromisoformat(header["calendar"]["start"]),
                num_days=int(header["calendar"]["num_days"]),
            ),
            clients=clients,
            ecs_aggregates=self.ecs,
            ldns_aggregates=self.ldns,
            request_diffs=self.diffs,
            passive=self.passive,
            beacon_count=recovery.claimed_beacon_count,
            # The header's claim stands unless frames were lost; a
            # salvaged dataset counts what survived.
            measurement_count=(
                recovery.claimed_measurement_count
                if report.complete
                else self.ecs_measurements
            ),
            covered_ranges=(
                None
                if covered is None
                else tuple((int(s), int(e)) for s, e in covered)
            ),
            load_summary=header["load_summary"],
        )
        return dataset, recovery


def _legacy_document_error(first_line: str, source: str) -> MeasurementError:
    """The error for a single-JSON-document (pre-framing) export."""
    try:
        version = json.loads(first_line).get("format_version")
    except (ValueError, AttributeError):
        version = None
    return MeasurementError(
        f"{source}: unsupported dataset format version {version!r} (a "
        f"single JSON document; this build reads framed version "
        f"{FORMAT_VERSION} only; re-export the dataset)"
    )


def _checked_lines(handle: IO[str], source: str) -> Iterator[str]:
    """An export's lines, refusing a single-JSON-document export."""
    first_line = handle.readline()
    if first_line.lstrip().startswith("{"):
        raise _legacy_document_error(first_line, source)
    yield first_line
    yield from handle


def _read_dataset(
    path_or_file: Union[str, IO[str]], strict: bool
) -> Tuple[StudyDataset, DatasetRecovery]:
    """Stream an export's frames into a dataset (see :func:`load_dataset`
    and :func:`recover_dataset` for the two postures)."""
    report = RecoveryReport()
    try:
        with open_segment(path_or_file) as (handle, source):
            lines = _checked_lines(handle, source)
            frames = iter_frames(lines, report, strict, source)
            return _apply_frames(frames, report, source)
    except OSError as error:
        raise MeasurementError(
            f"{path_or_file}: cannot read dataset export ({error})"
        ) from error


def _apply_frames(
    frames: Iterator[Dict[str, Any]], report: RecoveryReport, source: str
) -> Tuple[StudyDataset, DatasetRecovery]:
    """Feed a header frame and its data frames through one reader."""
    try:
        header = next(frames, None)
        if header is None or header.get("kind") != "header":
            raise StorageError(
                f"{source}: unrecoverable dataset export: header frame "
                "is missing or damaged"
            )
        reader = _DatasetReader(header, source)
        for frame in frames:
            reader.apply(frame)
        return reader.finish(report)
    except (KeyError, TypeError, ValueError) as error:
        raise MeasurementError(
            f"{source}: malformed dataset export ({error!r})"
        ) from error


def dataset_from_frames(
    frames: List[Dict[str, Any]], source: str
) -> StudyDataset:
    """Rebuild a dataset from a complete, verified list of
    :func:`column_frames` — :func:`load_dataset`'s reader, in memory."""
    report = RecoveryReport(frames_total=len(frames), footer_seen=True)
    dataset, _ = _apply_frames(iter(frames), report, source)
    return dataset


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def save_dataset(
    dataset: StudyDataset, path_or_file: Union[str, IO[str]]
) -> None:
    """Write a dataset as a crash-safe framed (v4) export.

    Paths are written via temp file + atomic rename, so an interrupted
    save never leaves a torn file at the destination.
    """
    write_segment_file(path_or_file, _dataset_frames(dataset))
    if isinstance(path_or_file, str):
        _log.info(
            "dataset saved",
            extra={
                "path": path_or_file,
                "measurements": dataset.measurement_count,
            },
        )


def load_dataset(path_or_file: Union[str, IO[str]]) -> StudyDataset:
    """Read a v4 dataset export, applying each frame as it is read.

    Strict: a damaged file raises :class:`StorageError` (use
    :func:`recover_dataset` to salvage); a missing file, a version-less
    or other-version export (including every v1-v3 file) raises a
    :class:`MeasurementError` naming the file and the version.
    """
    dataset, _ = _read_dataset(path_or_file, strict=True)
    if isinstance(path_or_file, str):
        _log.info("dataset loaded", extra={"path": path_or_file})
    return dataset


def recover_dataset(
    path_or_file: Union[str, IO[str]]
) -> Tuple[StudyDataset, DatasetRecovery]:
    """Salvage a (possibly damaged) framed export.

    Skips corrupt frames, truncates the torn tail, and returns whatever
    dataset the surviving frames describe plus a
    :class:`DatasetRecovery` accounting for exactly what was lost.  An
    undamaged file recovers to the same dataset :func:`load_dataset`
    returns, with ``recovery.complete`` true.

    Raises:
        StorageError: when not even a header + client frames survived —
            there is no dataset to anchor.
        MeasurementError: on a missing file or an unsupported version.
    """
    dataset, recovery = _read_dataset(path_or_file, strict=False)
    if not recovery.complete:
        _log.warning(
            "dataset recovered with losses",
            extra={
                "path": getattr(path_or_file, "name", path_or_file),
                **recovery.to_obj(),
            },
        )
    return dataset, recovery
