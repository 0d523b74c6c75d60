"""Columnar shard transport: arbitrary aggregates survive the encoding."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.aggregate import GroupedDailyAggregates
from repro.simulation.transport import (
    decode_shard_payload,
    encode_shard_payload,
)

from .helpers import make_client, make_dataset


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),          # day
            st.sampled_from(["g1", "g2", "g3", "g4"]),      # group
            st.sampled_from(["anycast", "fe-a", "fe-b"]),   # target
            st.lists(
                st.floats(
                    min_value=0.0, max_value=1e4, allow_nan=False
                ),
                min_size=0,
                max_size=17,
            ),
        ),
        max_size=25,
    ),
    st.sampled_from([None, 4]),                             # sketch mode
)
@settings(max_examples=40, deadline=None)
def test_columnar_transport_round_trip_property(samples, threshold):
    """Arbitrary digest shapes survive the coalesced-column encoding.

    Column sizes from zero to dozens of samples, digests scattered over
    days/groups/targets in any order, and (in sketch mode) exact and
    promoted digests interleaved in one day must all decode to equal
    aggregates.
    """
    before = GroupedDailyAggregates("ecs", exact_threshold=threshold)
    for day, group, target, rtts in samples:
        before.observe_many(day, group, target, rtts)
    clients = (make_client(1), make_client(2))
    dataset = make_dataset(clients)
    dataset = type(dataset)(
        calendar=dataset.calendar,
        clients=dataset.clients,
        ecs_aggregates=before,
        ldns_aggregates=dataset.ldns_aggregates,
        request_diffs=dataset.request_diffs,
        passive=dataset.passive,
    )
    payload = encode_shard_payload(dataset, None, None, None)
    decoded, _, _, _ = decode_shard_payload(payload, clients)
    after = decoded.ecs_aggregates
    assert after.days == before.days
    for day in before.days:
        before_rows = {
            (g, t): d for g, t, d in before.iter_day(day)
        }
        after_rows = {
            (g, t): d for g, t, d in after.iter_day(day)
        }
        assert before_rows.keys() == after_rows.keys()
        for key, digest in before_rows.items():
            other = after_rows[key]
            assert digest.is_exact == other.is_exact
            if digest.is_exact:
                assert digest.values() == other.values()
            else:
                assert digest.count == other.count
                assert digest.minimum() == other.minimum()
                assert digest.maximum() == other.maximum()
    assert decoded.digest() == dataset.digest()
