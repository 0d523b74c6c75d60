"""Trace-event algebra, clock alignment, and Perfetto round-trips.

The trace subsystem's contracts, in test order:

* **Merge algebra.**  Merging shard logs in any order yields the same
  canonical event sequence (hypothesis drives random shard shuffles),
  and the shard-invariant digest of a sharded run equals the serial
  run's.
* **Clock alignment.**  Rebasing a log created ``delta`` seconds after
  the coordinator shifts every event by ``round(delta * 1e6)`` µs, and
  coordinator-time ordering of cross-shard events survives the merge.
* **Perfetto export.**  ``to_perfetto_obj`` emits loadable Chrome
  trace-event JSON (metadata lanes, ``ph: "X"``/``"i"``) and
  ``from_perfetto_obj`` inverts it, digest included.
* **Campaign integration.**  A serial and a 4-shard run of the same
  scenario produce identical trace digests; a fault-injected run's
  timeline shows the fault, the retry, and the successful re-attempt.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clients.population import ClientPopulationConfig
from repro.errors import TelemetryError
from repro.faults import FaultPlan
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import Telemetry
from repro.telemetry.trace import (
    MAIN_LANE,
    TraceEvent,
    TraceLog,
    format_trace_report,
    merge_trace_logs,
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_shard_log(shard: int, origin: float = 100.0) -> TraceLog:
    """A small shard log with ops timing and data totals."""
    log = TraceLog(origin=origin + shard * 0.25, lane=shard)
    for day in range(2):
        log.complete(
            "campaign/day", "phase", ts_us=1000 * day, dur_us=900
        )
        log.data("engine.day", "engine", index=day, beacons=10 + shard)
    log.instant("shard.dispatch", "scheduler")
    return log


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------


@given(order=st.permutations(list(range(4))))
@SETTINGS
def test_merge_is_order_insensitive(order):
    """Shard arrival order never changes the coordinator's timeline.

    The coordinator log is always the merge base (its origin anchors the
    rebased clock), so merging the same shard logs in any completion
    order must yield the same canonical events and digest.
    """
    logs = {shard: make_shard_log(shard) for shard in range(4)}

    serial = merge_trace_logs(
        [TraceLog(origin=99.0)] + [logs[shard].copy() for shard in range(4)]
    )
    shuffled = merge_trace_logs(
        [TraceLog(origin=99.0)] + [logs[shard].copy() for shard in order]
    )

    assert shuffled.canonical() == serial.canonical()
    assert shuffled.digest() == serial.digest()


def test_merge_rebases_onto_first_origin():
    base = TraceLog(origin=50.0)
    late = TraceLog(origin=51.5, lane=2)
    late.instant("shard.dispatch", "scheduler", ts_us=100)

    base.merge(late)

    (event,) = base.events
    # 1.5s origin delta -> +1_500_000us rebased onto base's clock.
    assert event.ts_us == 100 + 1_500_000
    assert event.shard == 2


@given(
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        min_size=2,
        max_size=5,
    )
)
@SETTINGS
def test_clock_alignment_preserves_coordinator_order(deltas):
    """Events stamped later in coordinator time stay later post-merge."""
    coordinator = TraceLog(origin=1000.0)
    expected = []
    for shard, delta in enumerate(deltas):
        shard_log = TraceLog(origin=1000.0 + delta, lane=shard)
        # One event at shard-local zero == coordinator time `delta`.
        shard_log.instant("tick", "test", ts_us=0)
        expected.append((round(delta * 1e6), shard))
        coordinator.merge(shard_log)

    rebased = sorted(
        (event.ts_us, event.shard) for event in coordinator.events
    )
    assert rebased == sorted(expected)
    # Monotonicity: canonical order never runs time backwards.
    times = [event.ts_us for event in coordinator.canonical()]
    assert times == sorted(times)


def test_digest_ignores_ops_and_sums_data():
    a = TraceLog(origin=0.0, lane=0)
    a.data("engine.day", "engine", index=0, beacons=10)
    a.instant("shard.retry", "scheduler")

    b = TraceLog(origin=7.0, lane=1)
    b.data("engine.day", "engine", index=0, beacons=32)

    serial = TraceLog(origin=3.0)
    serial.data("engine.day", "engine", index=0, beacons=42)

    merged = merge_trace_logs([a, b])
    # Ops events and lanes differ, but data totals agree -> same digest.
    assert merged.digest() == serial.digest()

    totals = merged.data_totals()
    identity = ("engine", "engine.day", (("index", "0"),))
    assert totals[identity] == {"beacons": 42}


def test_digest_keeps_index_identity_separate():
    per_day = TraceLog()
    per_day.data("engine.day", "engine", index=0, beacons=5)
    per_day.data("engine.day", "engine", index=1, beacons=7)

    collapsed = TraceLog()
    collapsed.data("engine.day", "engine", index=0, beacons=12)

    # Day indices are identity, not summable payload: 5@day0 + 7@day1
    # must NOT hash like 12@day0.
    assert per_day.digest() != collapsed.digest()


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------


def test_to_obj_round_trip():
    log = make_shard_log(1)
    restored = TraceLog.from_obj(log.to_obj())
    assert restored.canonical() == log.canonical()
    assert restored.digest() == log.digest()


def test_from_obj_rejects_unknown_version():
    with pytest.raises(TelemetryError):
        TraceLog.from_obj({"format_version": 999, "events": []})


def test_perfetto_round_trip():
    merged = merge_trace_logs([make_shard_log(shard) for shard in range(3)])
    merged.instant("checkpoint.saved", "checkpoint", shard=MAIN_LANE)

    obj = merged.to_perfetto_obj()
    # JSON-serializable and structurally a Chrome trace.
    text = json.dumps(obj)
    parsed = json.loads(text)
    assert parsed["traceEvents"]
    phases = {entry["ph"] for entry in parsed["traceEvents"]}
    assert phases <= {"M", "X", "i"}

    # One metadata lane per shard plus main.
    names = {
        entry["args"]["name"]
        for entry in parsed["traceEvents"]
        if entry["ph"] == "M" and entry["name"] == "thread_name"
    }
    assert names == {"main", "shard 0", "shard 1", "shard 2"}

    restored = TraceLog.from_perfetto_obj(parsed)
    assert restored.canonical() == merged.canonical()
    assert restored.digest() == merged.digest()


def test_perfetto_lane_mapping():
    log = TraceLog(origin=0.0)
    log.instant("a", "test", shard=MAIN_LANE)
    log.instant("b", "test", shard=0)
    log.instant("c", "test", shard=3)

    by_name = {
        entry["name"]: entry
        for entry in log.to_perfetto_obj()["traceEvents"]
        if entry["ph"] != "M"
    }
    assert by_name["a"]["tid"] == 0
    assert by_name["b"]["tid"] == 1
    assert by_name["c"]["tid"] == 4


# ----------------------------------------------------------------------
# Telemetry emission
# ----------------------------------------------------------------------


def test_spans_emit_phase_slices():
    tel = Telemetry()
    with tel.spans.span("campaign"):
        with tel.spans.span("day", index=0):
            pass
    names = [event.name for event in tel.trace.events]
    assert "campaign/day" in names
    assert "campaign" in names
    phase = next(e for e in tel.trace.events if e.name == "campaign")
    assert phase.dur_us is not None and phase.dur_us >= 0
    assert phase.cat == "phase"


def test_snapshot_carries_and_merges_trace():
    worker = Telemetry()
    worker.trace.lane = 1
    worker.trace.data("engine.day", "engine", index=0, beacons=9)
    coordinator = Telemetry()
    coordinator.absorb(worker.snapshot())
    assert coordinator.trace.events
    snap = coordinator.snapshot()
    assert snap.trace is not None
    assert snap.trace.digest() == worker.trace.digest()


def test_format_trace_report_shape():
    merged = merge_trace_logs([make_shard_log(shard) for shard in range(2)])
    report = format_trace_report(merged)
    assert "== trace timeline ==" in report
    assert "shard 0" in report and "shard 1" in report
    assert "critical" in report
    assert "data digest:" in report
    assert format_trace_report(TraceLog()) == "trace: no events recorded\n"


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=11,
            population=ClientPopulationConfig(prefix_count=48),
            calendar=SimulationCalendar(num_days=2),
            engine="matrix",
        )
    )


def test_serial_and_sharded_trace_digests_match():
    serial = CampaignRunner(_scenario(), CampaignConfig(engine="matrix"))
    serial.run()
    serial_trace = serial.telemetry.snapshot().trace

    sharded = ParallelCampaignRunner(
        _scenario(), CampaignConfig(engine="matrix"), workers=4
    )
    sharded.run()
    sharded_trace = sharded.telemetry.snapshot().trace

    assert serial_trace is not None and sharded_trace is not None
    assert {e.shard for e in sharded_trace.events} >= {0, 1, 2, 3}
    assert sharded_trace.digest() == serial_trace.digest()


def test_chaos_run_traces_fault_retry_and_success():
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            engine="matrix",
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
        ),
        workers=2,
    )
    runner.run()
    trace = runner.telemetry.snapshot().trace
    assert trace is not None
    names = [event.name for event in trace.events]
    assert "fault.injected" in names
    assert "shard.retry" in names
    attempts = {
        event.attempt
        for event in trace.events
        if event.name == "shard.attempt"
    }
    # The failed attempt 0 and the successful retry attempt both appear.
    assert {0, 1} <= attempts
    statuses = {
        dict(event.args).get("status")
        for event in trace.events
        if event.name == "shard.attempt"
    }
    assert {"failed", "ok"} <= statuses
