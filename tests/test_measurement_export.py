"""Round-trip tests for dataset persistence."""

import io

import pytest

from repro.errors import MeasurementError
from repro.analysis.poor_paths import poor_path_prevalence
from repro.analysis.prediction_eval import evaluate_prediction
from repro.measurement.export import (
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    save_dataset,
)


@pytest.fixture(scope="module")
def round_tripped(small_dataset):
    return dataset_from_json(dataset_to_json(small_dataset))


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
    assert round_tripped.request_diffs.diffs() == pytest.approx(
        small_dataset.request_diffs.diffs()
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
    document = dataset_to_json(small_dataset)
    document["format_version"] = 99
    with pytest.raises(MeasurementError, match="format version"):
        dataset_from_json(document)


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.aggregate import GroupedDailyAggregates
from repro.measurement.export import _aggregates_from_obj, _aggregates_to_obj


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
    after = _aggregates_from_obj(_aggregates_to_obj(before))
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
    """The vectorized packers write exactly the bytes the per-element
    ``array("d", ...)`` packers wrote: every base64 cell and the whole
    framed file are pinned to that encoder's output."""
    import hashlib

    from repro.measurement.export import _dataset_frames

    dataset = _tiny_dataset()
    frames = list(_dataset_frames(dataset))
    aggregates = {
        (frame["which"], frame["day"]): frame["rows"]
        for frame in frames
        if frame["kind"] == "aggregates"
    }
    assert aggregates[("ecs", 0)] == [[
        "10.0.0.0/24", "fe-a", "AAAAAAAAKUCamZmZmZm5PwAAAAAAAACAWfP4wh9upQE=",
    ]]
    assert aggregates[("ldns", 0)] == [[
        "ldns-x", "fe-a", "AAAAAAAAKUCamZmZmZm5PwAAAAAAABxA",
    ]]
    assert aggregates[("ecs", 1)] == [[
        "10.0.2.0/24", "fe-b", "AAAAAACgQEA=",
    ]]
    (diffs,) = [f for f in frames if f["kind"] == "request_diffs"]
    assert {key: diffs[key] for key in sorted(diffs) if key != "kind"} == {
        "anycast": "AAAAoJkZNEAAAABAMzPTPwAAAAAAACJA",
        "best_unicast": "AAAAQDOzMkAAAAAAAMBLQAAAAAAAACJA",
        "client_index": "AAAAAAAAAAAAAAAAAAAAQAAAAAAAAPA/",
        "day": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAAAA",
        "index": 0,
        "region_code": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAAAA",
        "region_names": ["europe", "asia"],
    }
    handle = io.StringIO()
    save_dataset(dataset, handle)
    assert hashlib.sha256(handle.getvalue().encode("utf-8")).hexdigest() == (
        "b64d480f74adf91e08e778fd2c5525ea3bb80329d2fccfe54c5e2e814f2e78c8"
    )
