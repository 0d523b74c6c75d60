"""Round-trip tests for dataset persistence."""

import base64
import io
import json
import math
import struct

import numpy as np
import pytest

from repro.errors import MeasurementError, StorageError
from repro.analysis.poor_paths import poor_path_prevalence
from repro.analysis.prediction_eval import evaluate_prediction
from repro.measurement.export import (
    load_dataset,
    recover_dataset,
    save_dataset,
)

from .helpers import diff_values, framed_export


def _framed_round_trip(dataset):
    buffer = io.StringIO()
    save_dataset(dataset, buffer)
    buffer.seek(0)
    return load_dataset(buffer)


@pytest.fixture(scope="module")
def round_tripped(small_dataset):
    return _framed_round_trip(small_dataset)


def test_counts_preserved(small_dataset, round_tripped):
    assert round_tripped.beacon_count == small_dataset.beacon_count
    assert round_tripped.measurement_count == small_dataset.measurement_count
    assert len(round_tripped.clients) == len(small_dataset.clients)
    assert round_tripped.calendar.num_days == small_dataset.calendar.num_days
    assert round_tripped.calendar.start == small_dataset.calendar.start


def test_clients_preserved(small_dataset, round_tripped):
    for before, after in zip(small_dataset.clients, round_tripped.clients):
        assert before.key == after.key
        assert before.asn == after.asn
        assert before.ldns_id == after.ldns_id
        assert before.daily_queries == pytest.approx(after.daily_queries)
        assert before.location.lat == pytest.approx(after.location.lat)


def test_aggregates_preserved_exactly(small_dataset, round_tripped):
    day = 0
    for group, target_id, digest in small_dataset.ecs_aggregates.iter_day(day):
        restored = round_tripped.ecs_aggregates.digest(day, group, target_id)
        assert restored is not None
        assert restored.values() == digest.values()


def test_passive_preserved(small_dataset, round_tripped):
    day = 0
    assert dict(round_tripped.passive.iter_day(day)) == dict(
        small_dataset.passive.iter_day(day)
    )


def test_diffs_preserved(small_dataset, round_tripped):
    assert diff_values(round_tripped.request_diffs) == pytest.approx(
        diff_values(small_dataset.request_diffs)
    )
    assert (
        round_tripped.request_diffs.region_names
        == small_dataset.request_diffs.region_names
    )


def test_analyses_agree(small_dataset, round_tripped):
    """An analysis on the restored dataset gives identical results."""
    before = poor_path_prevalence(small_dataset)
    after = poor_path_prevalence(round_tripped)
    assert before.daily_fractions == after.daily_fractions

    eval_before = evaluate_prediction(small_dataset, groupings=("ecs",))
    eval_after = evaluate_prediction(round_tripped, groupings=("ecs",))
    assert eval_before.summary("ecs", 50.0) == eval_after.summary("ecs", 50.0)


def test_file_round_trip(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    restored = load_dataset(path)
    assert restored.measurement_count == small_dataset.measurement_count


def test_stream_round_trip(small_dataset):
    buffer = io.StringIO()
    save_dataset(small_dataset, buffer)
    buffer.seek(0)
    restored = load_dataset(buffer)
    assert restored.beacon_count == small_dataset.beacon_count


def test_unknown_version_rejected(small_dataset):
    with pytest.raises(MeasurementError, match="format version 99"):
        load_dataset(framed_export(small_dataset, format_version=99))


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.measurement.aggregate import GroupedDailyAggregates
from repro.measurement.export import (
    _aggregate_block,
    _apply_aggregate_block,
    _packed,
)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),          # day
            st.sampled_from(["g1", "g2", "g3"]),           # group
            st.sampled_from(["anycast", "fe-a", "fe-b"]),  # target
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ),
        max_size=60,
    )
)
@settings(max_examples=40)
def test_aggregate_serialization_round_trip_property(samples):
    before = GroupedDailyAggregates("ecs")
    for day, group, target, rtt in samples:
        before.observe(day, group, target, rtt)
    after = GroupedDailyAggregates("ecs")
    for day in before.days:
        block = _packed(_aggregate_block("ecs", before, day))
        block = json.loads(json.dumps(block))
        _apply_aggregate_block(after, block)
    assert after.days == before.days
    for day in before.days:
        before_rows = sorted(
            (g, t, d.values()) for g, t, d in before.iter_day(day)
        )
        after_rows = sorted(
            (g, t, d.values()) for g, t, d in after.iter_day(day)
        )
        assert before_rows == after_rows


def _tiny_dataset():
    """A hand-built dataset whose packed frames are pinned below."""
    from tests.helpers import make_client, make_dataset

    clients = [make_client(i) for i in range(3)]
    dataset = make_dataset(
        clients,
        num_days=2,
        ecs_samples=[
            (0, clients[0].key, "fe-a", [12.5, 0.1, -0.0, 1e-300]),
            (1, clients[2].key, "fe-b", [33.25]),
        ],
        ldns_samples=[(0, "ldns-x", "fe-a", [12.5, 0.1, 7.0])],
        passive_counts=[(0, clients[0].key, "fe-a", 3)],
    )
    for day, client, region, anycast, best in (
        (0, 0, "europe", 20.1, 18.7),
        (1, 2, "asia", 0.3, 55.5),
        (0, 1, "europe", 9.0, 9.0),
    ):
        dataset.request_diffs.observe(day, client, region, anycast, best)
    return dataset


def test_packed_frame_text_is_pinned():
    """The v4 column blocks and the whole framed file are pinned: exact
    samples pack as the same little-endian float64 cells the per-row
    layout wrote, counts as int64, and request-diff rows as their native
    ``<i4/<i4/i1/<f4/<f4`` columns."""
    import hashlib

    from repro.measurement.export import _dataset_frames

    dataset = _tiny_dataset()
    frames = list(_dataset_frames(dataset))
    blocks = {
        (frame["which"], frame["day"]): {
            key: frame[key]
            for key in ("keys", "counts", "samples", "sketches")
        }
        for frame in frames
        if frame["kind"] == "aggregates"
    }
    assert blocks[("ecs", 0)] == {
        "keys": [("10.0.0.0/24", "fe-a")],
        "counts": "BAAAAAAAAAA=",
        "samples": "AAAAAAAAKUCamZmZmZm5PwAAAAAAAACAWfP4wh9upQE=",
        "sketches": [],
    }
    assert blocks[("ldns", 0)] == {
        "keys": [("ldns-x", "fe-a")],
        "counts": "AwAAAAAAAAA=",
        "samples": "AAAAAAAAKUCamZmZmZm5PwAAAAAAABxA",
        "sketches": [],
    }
    assert blocks[("ecs", 1)] == {
        "keys": [("10.0.2.0/24", "fe-b")],
        "counts": "AQAAAAAAAAA=",
        "samples": "AAAAAACgQEA=",
        "sketches": [],
    }
    assert blocks[("ldns", 1)] == {
        "keys": [], "counts": "", "samples": "", "sketches": [],
    }
    assert frames[0]["diff_region_names"] == ["europe", "asia"]
    (diffs,) = [f for f in frames if f["kind"] == "request_diffs"]
    assert diffs == {
        "kind": "request_diffs",
        "index": 0,
        "day": "AAAAAAEAAAAAAAAA",
        "client_index": "AAAAAAIAAAABAAAA",
        "region_code": "AAEA",
        "anycast": "zcygQZqZmT4AABBB",
        "best_unicast": "mpmVQQAAXkIAABBB",
    }
    handle = io.StringIO()
    save_dataset(dataset, handle)
    assert hashlib.sha256(handle.getvalue().encode("utf-8")).hexdigest() == (
        "896d7db7000198390ac5bc4ef19a5ce3a032d839ce070b8e85c8d61fd8a6d8e9"
    )


# ----------------------------------------------------------------------
# Column blocks: arbitrary shapes round-trip, damage costs one block
# ----------------------------------------------------------------------


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: float64 values with the awkward bit patterns spelled out: signed
#: zeros, subnormals, infinities and quiet/signalling NaN payloads.
_ANY_FLOAT = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(_from_bits),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]
        + [_from_bits(bits) for bits in (
            0x7FF8000000000000,  # quiet NaN
            0xFFF8000000000001,  # negative quiet NaN with payload
            0x7FF0000000000001,  # signalling NaN
            0x7FF0000000000000,  # +inf
        )]
    ),
)

#: Sketch-mode digests promote, and sketches take finite values only.
_FINITE_FLOAT = _ANY_FLOAT.filter(math.isfinite)

_DIGEST_SHAPES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),              # day
        st.sampled_from(["g1", "g2", "g3"]),                # group
        st.sampled_from(["anycast", "fe-a", "fe-b"]),       # target
        st.integers(min_value=0, max_value=7),              # samples
    ),
    max_size=12,
)

#: One row per int8 region code, then arbitrary extra rows.
_REGIONS = tuple(f"region-{code:03d}" for code in range(128))


def _sink(grouping, threshold, shapes, draw_value):
    sink = GroupedDailyAggregates(grouping, exact_threshold=threshold)
    for day, group, target, size in shapes:
        values = [draw_value() for _ in range(size)]
        if values:
            sink.observe_many(day, group, target, values)
        elif sink.digest(day, group, target) is None:
            # A zero-sample digest: a key with no measurements yet.
            sink._days.setdefault(day, {}).setdefault(group, {})[
                target
            ] = sink._new_digest()
    return sink


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@given(
    data=st.data(),
    threshold=st.sampled_from([None, 4]),
    ecs_shapes=_DIGEST_SHAPES,
    ldns_shapes=_DIGEST_SHAPES,
    extra_rows=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=30, deadline=None)
def test_column_blocks_round_trip_any_shape(
    data, threshold, ecs_shapes, ldns_shapes, extra_rows
):
    from .helpers import make_client, make_dataset

    values = _ANY_FLOAT if threshold is None else _FINITE_FLOAT
    draw_value = lambda: data.draw(values)  # noqa: E731
    ecs = _sink("ecs", threshold, ecs_shapes, draw_value)
    ldns = _sink("ldns", threshold, ldns_shapes, draw_value)
    base = make_dataset((make_client(1), make_client(2)))
    diffs = base.request_diffs
    for region in _REGIONS:
        diffs.region_code(region)
    codes = list(range(128)) + data.draw(
        st.lists(
            st.integers(min_value=0, max_value=127),
            min_size=extra_rows,
            max_size=extra_rows,
        )
    )
    rows = len(codes)
    float32_bits = st.integers(min_value=0, max_value=2**32 - 1)
    diffs.append_columns(
        np.asarray(
            data.draw(
                st.lists(st.integers(0, 2), min_size=rows, max_size=rows)
            ),
            dtype=np.int32,
        ),
        np.asarray(
            data.draw(
                st.lists(
                    st.integers(-(2**31), 2**31 - 1),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=np.int32,
        ),
        np.asarray(codes, dtype=np.int8),
        *(
            np.asarray(
                data.draw(
                    st.lists(float32_bits, min_size=rows, max_size=rows)
                ),
                dtype=np.uint32,
            ).view(np.float32)
            for _ in range(2)
        ),
    )
    before = type(base)(
        calendar=base.calendar,
        clients=base.clients,
        ecs_aggregates=ecs,
        ldns_aggregates=ldns,
        request_diffs=diffs,
        passive=base.passive,
        measurement_count=sum(
            int(ecs.day_columns(day).counts.sum()) for day in ecs.days
        ),
    )

    after = _framed_round_trip(before)

    assert after.digest() == before.digest()
    for old, new in (
        (before.ecs_aggregates, after.ecs_aggregates),
        (before.ldns_aggregates, after.ldns_aggregates),
    ):
        assert new.days == old.days
        for day in old.days:
            old_rows = list(old.iter_day(day))
            new_rows = list(new.iter_day(day))
            assert [(g, t) for g, t, _ in new_rows] == [
                (g, t) for g, t, _ in old_rows
            ]
            for (_, _, was), (_, _, now) in zip(old_rows, new_rows):
                assert now.is_exact == was.is_exact
                assert now.count == was.count
                if was.is_exact:
                    assert _bits(now.values()) == _bits(was.values())
                else:
                    assert now.sketch.to_obj() == was.sketch.to_obj()
    assert after.request_diffs.region_names == _REGIONS
    for was, now in zip(diffs.columns(), after.request_diffs.columns()):
        assert now.tobytes() == was.tobytes()


def _ecs_block_lines(text):
    """``{day: (line index, block count sum)}`` of the ECS blocks."""
    blocks = {}
    for index, line in enumerate(text.split("\n")):
        if '"kind":"aggregates"' in line and '"which":"ecs"' in line:
            frame = json.loads(line.split(" ", 2)[2])
            counts = np.frombuffer(
                base64.b64decode(frame["counts"]), dtype="<i8"
            )
            blocks[frame["day"]] = (index, int(counts.sum()))
    return blocks


@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_damaged_ecs_block_costs_exactly_that_block(small_dataset, data):
    buffer = io.StringIO()
    save_dataset(small_dataset, buffer)
    text = buffer.getvalue()
    blocks = _ecs_block_lines(text)
    day = data.draw(st.sampled_from(sorted(blocks)))
    line_index, lost = blocks[day]
    lines = text.split("\n")
    victim = lines[line_index]
    at = data.draw(st.integers(min_value=0, max_value=len(victim) - 1))
    lines[line_index] = (
        victim[:at] + chr(ord(victim[at]) ^ 1) + victim[at + 1 :]
    )
    damaged = "\n".join(lines)

    with pytest.raises(StorageError, match="corrupt frame"):
        load_dataset(io.StringIO(damaged))
    recovered, recovery = recover_dataset(io.StringIO(damaged))
    assert recovery.report.frames_corrupt == 1
    assert not recovery.complete
    assert (
        recovery.recovered_measurement_count
        == recovery.claimed_measurement_count - lost
    )
    assert recovered.measurement_count == recovery.recovered_measurement_count
    assert day not in recovered.ecs_aggregates.days
    for other in small_dataset.ecs_aggregates.days:
        if other != day:
            assert (
                recovered.ecs_aggregates.day_columns(other).counts.tolist()
                == small_dataset.ecs_aggregates.day_columns(other)
                .counts.tolist()
            )


@pytest.mark.parametrize(
    "kind, field, cell, message",
    [
        ("aggregates", "counts", "BQAAAAAAAAA=", "exact counts sum to 5"),
        ("request_diffs", "region_code", "AAEC", "region code outside"),
    ],
)
def test_malformed_block_is_a_clear_error(kind, field, cell, message):
    """A CRC-valid block whose columns disagree is refused, not loaded."""
    from repro.measurement.export import _dataset_frames
    from repro.measurement.storage import write_segment_file

    frames = list(_dataset_frames(_tiny_dataset()))
    next(f for f in frames if f["kind"] == kind)[field] = cell
    buffer = io.StringIO()
    write_segment_file(buffer, frames)
    buffer.seek(0)
    with pytest.raises(MeasurementError, match=message):
        load_dataset(buffer)
