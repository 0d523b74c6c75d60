"""Crash-safe framed segment files: length + CRC JSON lines.

A multi-minute campaign's export must survive the two failure modes a
production log pipeline sees constantly: a writer killed mid-flush (torn
tail) and bytes damaged at rest (bit rot).  Plain ``json.dump`` survives
neither — one lost byte makes the whole document unparseable.

This module frames a file as a sequence of independently verifiable
lines::

    <payload-byte-length> <crc32-hex> <compact-json-payload>\\n

* Every frame carries its own length and CRC32, so damage is localized:
  a corrupt frame is *skipped*, not fatal.
* Files end with a footer frame recording the frame count, so a reader
  can tell "complete" from "cut off after a valid frame".
* Writers targeting a path go through a temp file + ``fsync`` +
  ``os.replace``, so a crash mid-export leaves the previous file intact
  — readers never observe a half-written path.

One reader, :func:`iter_frames`, decodes a file line by line, so a
consumer (the dataset loader in :mod:`repro.measurement.export`) applies
each frame before the next is read and never holds the whole text.
:func:`read_segment_text` and :func:`read_segment_file` collect its
frames into a list.  Readers come in two postures: ``strict=True``
raises :class:`repro.errors.StorageError` on any damage (the default
for loads feeding an analysis), while ``strict=False`` salvages what it
can and reports exactly what was lost in a :class:`RecoveryReport` —
truncating torn tails and skipping corrupt frames instead of raising
mid-parse.

The container is format-agnostic: what the frames carry (version 4
column blocks for dataset exports) is the writer's business.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, Iterator, List, Tuple, Union

from repro.errors import StorageError

#: Frame kind key every frame carries.
FRAME_KIND_KEY = "kind"
FOOTER_KIND = "footer"


def format_frame(obj: Dict[str, Any]) -> str:
    """Render one object as a framed line.

    The payload is compact JSON with ASCII escapes, so the byte length
    equals the character length and the frame survives any text-mode
    round trip.
    """
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    data = payload.encode("ascii")
    return f"{len(data)} {zlib.crc32(data):08x} {payload}\n"


def footer_frame(frame_count: int) -> Dict[str, Any]:
    """The closing frame: how many frames precede it."""
    return {FRAME_KIND_KEY: FOOTER_KIND, "frames": frame_count}


@dataclass
class RecoveryReport:
    """What a non-strict read salvaged, and what it could not.

    Attributes:
        frames_total: Well-formed frames decoded (excluding the footer).
        frames_corrupt: Frames skipped for a length/CRC/JSON mismatch.
        torn_tail: True when the file ended mid-frame (the torn bytes
            were discarded).
        footer_seen: True when a valid footer closed the file *and* its
            recorded frame count matched what was read before it.
    """

    frames_total: int = 0
    frames_corrupt: int = 0
    torn_tail: bool = False
    footer_seen: bool = False
    salvaged_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when nothing was lost: every frame intact, footer valid."""
        return (
            self.footer_seen
            and self.frames_corrupt == 0
            and not self.torn_tail
        )

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form for manifests."""
        return {
            "frames_total": self.frames_total,
            "frames_corrupt": self.frames_corrupt,
            "torn_tail": self.torn_tail,
            "footer_seen": self.footer_seen,
            "complete": self.complete,
            "salvaged_kinds": dict(sorted(self.salvaged_kinds.items())),
        }


#: Decodes a payload in place (``raw_decode`` takes a start offset), so
#: a multi-megabyte frame is not sliced out of its line first.
_DECODER = json.JSONDecoder()


def _parse_frame(line: str) -> Dict[str, Any]:
    """Decode one framed line; raises ``ValueError`` on any mismatch."""
    data = line.encode("ascii", errors="strict")
    length_end = data.index(b" ")  # ValueError on damage
    crc_end = data.index(b" ", length_end + 1)
    length = int(data[:length_end])
    payload = memoryview(data)[crc_end + 1 :]
    if len(payload) != length:
        raise ValueError(
            f"frame length mismatch: declared {length}, got {len(payload)}"
        )
    if zlib.crc32(payload) != int(data[length_end + 1 : crc_end], 16):
        raise ValueError("frame CRC mismatch")
    obj, end = _DECODER.raw_decode(line, crc_end + 1)
    if end != len(line):
        raise ValueError("extra data after the frame payload")
    if not isinstance(obj, dict):
        raise ValueError("frame payload is not an object")
    return obj


def write_segment_file(
    path_or_file: Union[str, IO[str]],
    frames: Iterable[Dict[str, Any]],
) -> int:
    """Write frames (plus the footer) crash-safely; returns frame count.

    Writing to a path goes through ``<path>.tmp-<pid>`` and an atomic
    ``os.replace``, with an ``fsync`` in between, so the destination
    either keeps its old content or holds the complete new file — never
    a prefix.  Writing to an open stream emits the frames directly (the
    caller owns that stream's durability).
    """
    if isinstance(path_or_file, str):
        tmp_path = f"{path_or_file}.tmp-{os.getpid()}"
        try:
            with open(tmp_path, "w", encoding="ascii") as handle:
                count = _write_frames(handle, frames)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path_or_file)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        return count
    return _write_frames(path_or_file, frames)


def _write_frames(handle: IO[str], frames: Iterable[Dict[str, Any]]) -> int:
    count = 0
    for frame in frames:
        handle.write(format_frame(frame))
        count += 1
    handle.write(format_frame(footer_frame(count)))
    return count


def iter_frames(
    lines: Iterable[str],
    report: RecoveryReport,
    strict: bool = True,
    source: str = "<stream>",
) -> Iterator[Dict[str, Any]]:
    """Decode framed lines one at a time, yielding each data frame.

    ``lines`` is any iterable of newline-terminated lines (an open text
    handle, typically), so a reader holds one frame in memory at a time
    and can apply it before decoding the next.  ``report`` is filled in
    as frames decode; its ``footer_seen`` is settled once the lines run
    out.  With ``strict=True`` any damage — a corrupt frame, a torn
    tail, a missing or miscounting footer — raises
    :class:`StorageError` at the point it is found.  With
    ``strict=False`` corrupt frames are skipped, the torn tail is
    truncated, and the report says exactly what happened.
    """
    footer_count = None
    for index, line in enumerate(lines):
        if not line.endswith("\n"):
            # Only the last line can lack its newline: a frame the
            # writer never finished.
            if strict:
                raise StorageError(
                    f"{source}: torn tail (file ends mid-frame, "
                    f"{len(line)} trailing bytes)"
                )
            report.torn_tail = True
            break
        line = line[:-1]
        if not line:
            continue
        try:
            obj = _parse_frame(line)
        except (ValueError, UnicodeEncodeError, json.JSONDecodeError) as error:
            if strict:
                raise StorageError(
                    f"{source}: corrupt frame at line {index + 1} ({error})"
                ) from error
            report.frames_corrupt += 1
            continue
        if obj.get(FRAME_KIND_KEY) == FOOTER_KIND:
            footer_count = obj.get("frames")
            continue
        report.frames_total += 1
        kind = str(obj.get(FRAME_KIND_KEY))
        report.salvaged_kinds[kind] = report.salvaged_kinds.get(kind, 0) + 1
        yield obj
    # Only an exact match on an intact file reads as a complete close;
    # a corrupt or missing frame leaves the footer's count unmet.
    report.footer_seen = (
        footer_count is not None and footer_count == report.frames_total
    )
    if strict and not report.footer_seen:
        raise StorageError(
            f"{source}: missing or miscounting footer "
            f"(declared {footer_count!r}, read {report.frames_total})"
        )


@contextlib.contextmanager
def open_segment(
    path_or_file: Union[str, IO[str]]
) -> Iterator[Tuple[IO[str], str]]:
    """``(text handle, source name)`` for a path or an open stream.

    Paths open with ``\\n`` as the only line ending, so a stray ``\\r``
    stays inside its frame (and fails its CRC) instead of splitting it,
    and undecodable bytes read as replacement characters, which fail
    the frame's ASCII check.  Streams are used as given.
    """
    if isinstance(path_or_file, str):
        with open(
            path_or_file, "r", encoding="utf-8", errors="replace",
            newline="\n",
        ) as handle:
            yield handle, path_or_file
    else:
        yield path_or_file, getattr(path_or_file, "name", "<stream>")


def read_segment_text(
    text: str, strict: bool = True, source: str = "<stream>"
) -> Tuple[List[Dict[str, Any]], RecoveryReport]:
    """Decode framed text into its frames plus a recovery report
    (:func:`iter_frames`, collected into a list)."""
    report = RecoveryReport()
    frames = list(iter_frames(io.StringIO(text), report, strict, source))
    return frames, report


def read_segment_file(
    path_or_file: Union[str, IO[str]], strict: bool = True
) -> Tuple[List[Dict[str, Any]], RecoveryReport]:
    """Read and decode a framed segment file (path or open stream)."""
    report = RecoveryReport()
    with open_segment(path_or_file) as (handle, source):
        frames = list(iter_frames(handle, report, strict, source))
    return frames, report


def atomic_write_text(path: str, text: str) -> None:
    """Write text to a path via temp file + fsync + atomic rename."""
    tmp_path = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
