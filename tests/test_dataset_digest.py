"""Property tests for :meth:`StudyDataset.digest`.

The digest hashes column bytes: each exact latency digest's samples
sorted by their uint64 bit pattern, per-digest sample counts, and the
request-diff columns in one canonical row order.  Hypothesis checks both
directions of that contract on small hand-built datasets:

* **invariance** — the hash depends only on the measurement multiset:
  shuffled insertion order, region first-use order, shard merge order,
  and ``0.0``/``-0.0`` inserted either way all leave it unchanged;
* **sensitivity** — every real change to the contents moves it: a
  one-ulp sample change, a sample slid into the neighbouring digest, a
  diff row's region, a swapped anycast/best-unicast pair, one passive
  count, the load summary, the coverage, and an exact digest against the
  sketch of the same samples.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset
from tests.helpers import make_client

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CLIENTS = tuple(make_client(i) for i in range(6))
DAYS = 3
TARGETS = ("fe-a", "fe-b", "fe-c")
REGIONS = ("asia", "europe", "north-america")
#: Client index ranges of the three shards a serial dataset splits into.
SHARDS = ((0, 2), (2, 4), (4, 6))

Sample = Tuple[int, int, str, float]  # client, day, target, rtt
DiffRow = Tuple[int, int, str, float, float]  # client, day, region, a, b
Passive = Tuple[int, int, str, int]  # client, day, frontend, count

rtts = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
samples = st.lists(
    st.tuples(
        st.integers(0, len(CLIENTS) - 1),
        st.integers(0, DAYS - 1),
        st.sampled_from(TARGETS),
        rtts,
    ),
    min_size=1,
    max_size=25,
)
diff_rows = st.lists(
    st.tuples(
        st.integers(0, len(CLIENTS) - 1),
        st.integers(0, DAYS - 1),
        st.sampled_from(REGIONS),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=25,
)
passive_counts = st.lists(
    st.tuples(
        st.integers(0, len(CLIENTS) - 1),
        st.integers(0, DAYS - 1),
        st.sampled_from(TARGETS),
        st.integers(1, 50),
    ),
    min_size=1,
    max_size=10,
)


def build(
    ecs: Sequence[Sample],
    ldns: Sequence[Sample] = (),
    diffs: Sequence[DiffRow] = (),
    passive: Sequence[Passive] = (),
    *,
    region_order: Sequence[str] = (),
    exact_threshold: Optional[int] = None,
    covered: Optional[Tuple[Tuple[int, int], ...]] = None,
    load_summary: Optional[dict] = None,
) -> StudyDataset:
    """A dataset holding exactly these measurements, in this order.

    ECS samples group by the client's /24, LDNS samples by one of two
    shared resolvers (so shards interleave them); ``region_order``
    pre-registers diff-log region codes in a chosen first-use order.
    """
    ecs_sink = GroupedDailyAggregates("ecs", exact_threshold=exact_threshold)
    for client, day, target, rtt in ecs:
        ecs_sink.observe(day, CLIENTS[client].key, target, rtt)
    ldns_sink = GroupedDailyAggregates("ldns", exact_threshold=exact_threshold)
    for client, day, target, rtt in ldns:
        ldns_sink.observe(day, f"ldns-{client % 2}", target, rtt)
    diff_log = RequestDiffLog()
    for name in region_order:
        diff_log.region_code(name)
    for client, day, region, anycast, best in diffs:
        diff_log.observe(day, client, region, anycast, best)
    passive_log = PassiveLog()
    for client, day, frontend, count in passive:
        passive_log.record(day, CLIENTS[client].key, frontend, count)
    return StudyDataset(
        calendar=SimulationCalendar(num_days=DAYS),
        clients=CLIENTS,
        ecs_aggregates=ecs_sink,
        ldns_aggregates=ldns_sink,
        request_diffs=diff_log,
        passive=passive_log,
        beacon_count=len(diffs),
        measurement_count=len(ecs),
        covered_ranges=covered,
        load_summary=load_summary,
    )


def _in_shard(rows, shard: Tuple[int, int]) -> List:
    return [row for row in rows if shard[0] <= row[0] < shard[1]]


# ----------------------------------------------------------------------
# Invariance
# ----------------------------------------------------------------------


@SETTINGS
@given(ecs=samples, ldns=samples, diffs=diff_rows, passive=passive_counts,
       data=st.data())
def test_digest_ignores_insertion_order(ecs, ldns, diffs, passive, data):
    shuffled = [
        data.draw(st.permutations(rows)) for rows in (ecs, ldns, diffs, passive)
    ]
    assert build(*shuffled).digest() == build(ecs, ldns, diffs, passive).digest()


@SETTINGS
@given(diffs=diff_rows, order=st.permutations(REGIONS))
def test_digest_ignores_region_first_use_order(diffs, order):
    ecs = [(0, 0, "fe-a", 1.0)]
    assert (
        build(ecs, diffs=diffs, region_order=order).digest()
        == build(ecs, diffs=diffs, region_order=REGIONS).digest()
    )


@SETTINGS
@given(ecs=samples, ldns=samples, diffs=diff_rows, passive=passive_counts,
       order=st.permutations(range(len(SHARDS))))
def test_digest_ignores_shard_merge_order(ecs, ldns, diffs, passive, order):
    serial = build(ecs, ldns, diffs, passive)
    shards = [
        build(
            *(_in_shard(rows, SHARDS[i]) for rows in (ecs, ldns, diffs, passive)),
            covered=(SHARDS[i],),
        )
        for i in order
    ]
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    # Shard partials count their own beacons; the merged totals match.
    assert merged.beacon_count == serial.beacon_count
    assert merged.digest() == serial.digest()


@SETTINGS
@given(ecs=samples, zeros_first=st.booleans())
def test_signed_zeros_hash_the_same_in_either_order(ecs, zeros_first):
    zeros = [(0, 0, "fe-a", 0.0), (0, 0, "fe-a", -0.0)]
    swapped = zeros[::-1]
    rows_a = zeros + ecs if zeros_first else ecs + zeros
    rows_b = swapped + ecs if zeros_first else ecs + swapped
    zero_diffs = [(0, 0, "asia", 0.0, 1.0), (0, 0, "asia", -0.0, 1.0)]
    assert (
        build(rows_a, rows_a, zero_diffs).digest()
        == build(rows_b, rows_b, zero_diffs[::-1]).digest()
    )


def test_signed_zeros_are_distinct_values():
    """The canonical order is over bits, so it never folds -0.0 into 0.0."""
    assert (
        build([(0, 0, "fe-a", 0.0)]).digest()
        != build([(0, 0, "fe-a", -0.0)]).digest()
    )


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------


@SETTINGS
@given(ecs=samples, data=st.data())
def test_one_ulp_change_moves_the_digest(ecs, data):
    index = data.draw(st.integers(0, len(ecs) - 1))
    client, day, target, rtt = ecs[index]
    nudged = list(ecs)
    nudged[index] = (client, day, target, math.nextafter(rtt, math.inf))
    assert build(nudged).digest() != build(ecs).digest()


@SETTINGS
@given(values=st.lists(rtts, min_size=2, max_size=20), data=st.data())
def test_sliding_a_sample_into_the_next_digest_moves_the_digest(values, data):
    # Sort by bit pattern so the day's concatenated sorted samples are
    # the same bytes either way: only the per-digest counts can tell.
    ordered = sorted(
        values, key=lambda v: int(np.float64(v).view(np.uint64))
    )
    split = data.draw(st.integers(1, len(ordered) - 1))

    def layout(cut: int) -> StudyDataset:
        return build(
            [(0, 0, "fe-a", v) for v in ordered[:cut]]
            + [(0, 0, "fe-b", v) for v in ordered[cut:]]
        )

    assert layout(split).digest() != layout(split - 1).digest()


@SETTINGS
@given(diffs=diff_rows, data=st.data())
def test_changing_one_rows_region_moves_the_digest(diffs, data):
    index = data.draw(st.integers(0, len(diffs) - 1))
    client, day, region, anycast, best = diffs[index]
    other = data.draw(st.sampled_from([r for r in REGIONS if r != region]))
    moved = list(diffs)
    moved[index] = (client, day, other, anycast, best)
    ecs = [(0, 0, "fe-a", 1.0)]
    assert build(ecs, diffs=moved).digest() != build(ecs, diffs=diffs).digest()


@SETTINGS
@given(diffs=diff_rows, data=st.data())
def test_swapping_anycast_and_unicast_moves_the_digest(diffs, data):
    index = data.draw(st.integers(0, len(diffs) - 1))
    client, day, region, anycast, best = diffs[index]
    if np.float32(anycast).view(np.uint32) == np.float32(best).view(np.uint32):
        best = float(np.nextafter(np.float32(anycast), np.float32(np.inf)))
        diffs = list(diffs)
        diffs[index] = (client, day, region, anycast, best)
    swapped = list(diffs)
    swapped[index] = (client, day, region, best, anycast)
    ecs = [(0, 0, "fe-a", 1.0)]
    assert build(ecs, diffs=swapped).digest() != build(ecs, diffs=diffs).digest()


@SETTINGS
@given(passive=passive_counts, data=st.data())
def test_one_passive_count_moves_the_digest(passive, data):
    index = data.draw(st.integers(0, len(passive) - 1))
    client, day, frontend, count = passive[index]
    bumped = list(passive)
    bumped[index] = (client, day, frontend, count + 1)
    ecs = [(0, 0, "fe-a", 1.0)]
    assert (
        build(ecs, passive=bumped).digest()
        != build(ecs, passive=passive).digest()
    )


@SETTINGS
@given(ecs=samples, peak=st.floats(0.0, 2.0, allow_nan=False))
def test_load_summary_moves_the_digest(ecs, peak):
    summary = {"days": [{"day": 0, "peak_utilization": peak}]}
    plain = build(ecs).digest()
    loaded = build(ecs, load_summary=summary).digest()
    assert loaded != plain
    bumped = {"days": [{"day": 0, "peak_utilization": peak + 1.0}]}
    assert build(ecs, load_summary=bumped).digest() != loaded


@SETTINGS
@given(ecs=samples, stop=st.integers(1, len(CLIENTS) - 1))
def test_covered_ranges_move_the_digest(ecs, stop):
    full = build(ecs).digest()
    partial = build(ecs, covered=((0, stop),)).digest()
    assert partial != full
    assert build(ecs, covered=((stop, len(CLIENTS)),)).digest() != partial


@SETTINGS
@given(values=st.lists(st.floats(0.1, 1e3), min_size=2, max_size=20))
def test_exact_digest_differs_from_its_sketch(values):
    rows = [(0, 0, "fe-a", v) for v in values]
    exact = build(rows)
    sketched = build(rows, exact_threshold=1)
    assert not sketched.ecs_aggregates.digest(
        0, CLIENTS[0].key, "fe-a"
    ).is_exact
    assert sketched.digest() != exact.digest()
