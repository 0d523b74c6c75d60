"""Batch/scalar equivalence of the live service's run-at-a-time path.

The ingestion loop moves beacons as :class:`~repro.service.events
.BeaconRun` items and hands each whole run to the stream digest, the
validation gate and the prediction window.  Its bit-identity with the
event-at-a-time loop rests on three equivalences, each probed here by
comparing one batched call with folding the scalar call over the same
events:

* ``StreamDigest.update_run`` == ``update`` per event (``hexdigest``);
* ``ValidationGate.admit_run`` == ``admit`` per record, under every
  policy (counters, quarantine digest, admitted values, and the strict
  raise);
* ``PredictionWindow.observe_run`` == ``observe`` per event
  (``state_digest``, ``late_drops``), including sketch thresholds whose
  promotion point falls inside a run.

The value strategies deliberately include ``-0.0``, subnormals, values
above :data:`~repro.measurement.validate.MAX_PLAUSIBLE_RTT_MS`, NaN and
negative values.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.measurement.validate import MAX_PLAUSIBLE_RTT_MS, ValidationGate
from repro.service import BeaconEvent, PredictionWindow, StreamDigest
from repro.service.events import BeaconRun

pytestmark = pytest.mark.service

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CLIENTS = (
    ("10.0.1.0/24", "ldns-a"),
    ("10.0.2.0/24", "ldns-a"),
    ("10.0.3.0/24", "ldns-b"),
)
TARGETS = ("anycast", "fe-a")

SPECIAL_RTTS = (
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    MAX_PLAUSIBLE_RTT_MS,
    math.nextafter(MAX_PLAUSIBLE_RTT_MS, math.inf),
    1e9,
    -3.5,
    -1e-300,
)


def rtt_values(allow_nan=True, allow_infinity=True):
    """Strategy: one RTT, biased toward the gate's edge cases."""
    return st.one_of(
        st.sampled_from(SPECIAL_RTTS),
        st.floats(
            min_value=-100.0,
            max_value=2 * MAX_PLAUSIBLE_RTT_MS,
            allow_nan=False,
            allow_infinity=False,
            allow_subnormal=True,
        ),
        st.floats(
            allow_nan=allow_nan,
            allow_infinity=allow_infinity,
            allow_subnormal=True,
        ),
    )


def make_run(day, client_index, target_index, values):
    client_key, ldns_id = CLIENTS[client_index]
    return BeaconRun(
        day=day,
        client_key=client_key,
        ldns_id=ldns_id,
        target_id=TARGETS[target_index],
        rtts=np.array(values, dtype=np.float64),
    )


def scalar_events(day, client_index, target_index, values):
    client_key, ldns_id = CLIENTS[client_index]
    return [
        BeaconEvent(
            day=day,
            client_key=client_key,
            ldns_id=ldns_id,
            target_id=TARGETS[target_index],
            rtt_ms=value,
        )
        for value in values
    ]


def runs(values=None, max_runs=8, max_len=30):
    """Strategy: a list of (day, client, target, values) run specs."""
    return st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, len(CLIENTS) - 1),
            st.integers(0, len(TARGETS) - 1),
            st.lists(
                rtt_values() if values is None else values,
                max_size=max_len,
            ),
        ),
        max_size=max_runs,
    )


def bits(values):
    """Bit patterns of float64 values (NaN-safe, signed-zero-exact)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestStreamDigestRun:
    @SETTINGS
    @given(specs=runs())
    def test_update_run_equals_folded_update(self, specs):
        batched, folded = StreamDigest(), StreamDigest()
        for spec in specs:
            batched.update_run(make_run(*spec))
            for event in scalar_events(*spec):
                folded.update(event)
        assert batched.count == folded.count
        assert batched.hexdigest() == folded.hexdigest()

    def test_run_prefix_is_the_shared_event_encoding(self):
        spec = (2, 1, 0, [1.5, -0.0, 5e-324])
        run = make_run(*spec)
        for event in scalar_events(*spec):
            text = repr(event.rtt_ms).encode()
            assert event.encode() == run.encode_prefix() + text


class TestGateRun:
    @SETTINGS
    @given(
        specs=runs(),
        policy=st.sampled_from(["lenient", "repair", "strict"]),
    )
    def test_admit_run_equals_folded_admit(self, specs, policy):
        batched, folded = ValidationGate(policy), ValidationGate(policy)
        batched_values, folded_values = [], []
        batched_error = folded_error = None
        try:
            for day, client_index, _, values in specs:
                client_key = CLIENTS[client_index][0]
                admitted = batched.admit_run(
                    day, client_key, np.array(values, dtype=np.float64)
                )
                batched_values.extend(admitted.tolist())
        except ValidationError as error:
            batched_error = (error.reason, str(error))
        try:
            for day, client_index, _, values in specs:
                client_key = CLIENTS[client_index][0]
                run_values = []
                for value in values:
                    kept = folded.admit(day, client_key, -1, value)
                    if kept is not None:
                        run_values.append(kept)
                # A strict raise returns nothing for its run.
                folded_values.extend(run_values)
        except ValidationError as error:
            folded_error = (error.reason, str(error))
        assert batched_error == folded_error
        assert batched.records_total == folded.records_total
        assert batched.dropped_total == folded.dropped_total
        assert batched.repaired_total == folded.repaired_total
        assert batched.quarantine.digest() == folded.quarantine.digest()
        assert bits(batched_values) == bits(folded_values)

    def test_all_valid_run_is_returned_uncopied(self):
        gate = ValidationGate("repair")
        rtts = np.array([0.0, -0.0, 5e-324, MAX_PLAUSIBLE_RTT_MS])
        assert gate.admit_run(0, "10.0.1.0/24", rtts) is rtts
        assert gate.records_total == 4

    def test_repair_never_mutates_the_input(self):
        gate = ValidationGate("repair")
        rtts = np.array([-2.0, 7.0, math.nan, 1e9])
        before = bits(rtts)
        admitted = gate.admit_run(0, "10.0.1.0/24", rtts)
        assert bits(rtts) == before
        assert admitted.tolist() == [0.0, 7.0, MAX_PLAUSIBLE_RTT_MS]
        assert (gate.dropped_total, gate.repaired_total) == (1, 2)


class TestWindowRun:
    @SETTINGS
    @given(
        specs=runs(
            values=rtt_values(allow_nan=False, allow_infinity=False),
            max_len=40,
        ),
        threshold=st.sampled_from([None, 1, 3, 7, 25]),
        advances=st.lists(st.integers(0, 4), max_size=3),
        window_days=st.integers(1, 3),
    )
    def test_observe_run_equals_folded_observe(
        self, specs, threshold, advances, window_days
    ):
        """Runs interleaved with advances (late drops, evictions)."""
        batched = PredictionWindow(window_days, exact_threshold=threshold)
        folded = PredictionWindow(window_days, exact_threshold=threshold)
        for index, spec in enumerate(specs):
            if index < len(advances):
                batched.advance_to(advances[index])
                folded.advance_to(advances[index])
            kept = batched.observe_run(make_run(*spec))
            verdicts = {folded.observe(e) for e in scalar_events(*spec)}
            assert verdicts <= {kept}
        assert batched.late_drops == folded.late_drops
        assert batched.days == folded.days
        assert batched.state_digest() == folded.state_digest()

    @SETTINGS
    @given(specs=runs(max_len=40))
    def test_exact_window_takes_nan_like_observe(self, specs):
        """Exact mode stores whatever it is given, NaN included."""
        batched, folded = PredictionWindow(2), PredictionWindow(2)
        for spec in specs:
            batched.observe_run(make_run(*spec))
            for event in scalar_events(*spec):
                folded.observe(event)
        assert batched.state_digest() == folded.state_digest()

    @SETTINGS
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 3.0]), min_size=2, max_size=12
        ),
        threshold=st.integers(1, 4),
    )
    def test_signed_zero_extrema_match_inside_a_promoting_run(
        self, values, threshold
    ):
        """Sketch extrema resolve -0.0/0.0 ties the same either way."""
        spec = (0, 0, 0, values)
        batched = PredictionWindow(1, exact_threshold=threshold)
        folded = PredictionWindow(1, exact_threshold=threshold)
        batched.observe_run(make_run(*spec))
        for event in scalar_events(*spec):
            folded.observe(event)
        assert batched.state_digest() == folded.state_digest()

    def test_evicted_day_drops_the_whole_run(self):
        window = PredictionWindow(1)
        window.advance_to(2)
        assert window.evicted_through == 1
        assert not window.observe_run(make_run(1, 0, 0, [5.0, 6.0, 7.0]))
        assert window.late_drops == 3
        assert window.days == ()
