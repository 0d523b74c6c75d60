"""Chaos parity: a killed-and-resumed service equals an uninterrupted one.

The headline crash/restart guarantee of the live service: a run that is
chaos-killed mid-stream and resumed from its checkpoint produces
**bit-identical** predictor outputs, rolling dataset digest, and
quarantine digest to a run that was never interrupted.  These tests
drive that guarantee through the in-process API (single and repeated
crashes, transient-fault auto-retry, mid-day checkpoint cadence) and
through the ``repro replay`` CLI (crash → exit code 3 → ``--resume-from``
→ digests match), over a stream deliberately dirtied with ``record-*``
faults so the quarantine digest is a meaningful part of the identity.

The loop moves beacons a run (one (day, client /24, target) block) at a
time, while kill points and checkpoint cadence count events, so the
kill-point suite pins firing ordinals mid-run, exactly on a run
boundary and on a day boundary, under checkpoint cadences that never
align with runs.  Digests and counters are pinned as literals captured
from the event-at-a-time loop: batching must reproduce them exactly.
"""

import dataclasses
import json

import pytest

from repro import cli
from repro.clients.population import ClientPopulationConfig
from repro.faults.inject import InjectedCrashError
from repro.faults.plan import FaultPlan
from repro.measurement.export import save_dataset
from repro.service import (
    BeaconRun,
    LiveService,
    dirty_events,
    events_from_dataset,
)
from repro.service import ingest
from repro.service.events import event_count
from repro.service.faults import ServiceFaultInjector
from repro.service.ingest import ServiceConfig
from repro.simulation.campaign import CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig

pytestmark = [pytest.mark.service, pytest.mark.chaos]

SEED = 47
NUM_DAYS = 3

#: The worker fault is spec index 0 in every plan so the ``record-*``
#: specs keep their indexes (record-fault cells derive from spec index):
#: every plan here dirties exactly the same stream positions.
CRASH_PLAN = "crash:1,record-corrupt:4,record-clock-skew:3"
DOUBLE_CRASH_PLAN = "crash:2,record-corrupt:4,record-clock-skew:3"
TRANSIENT_PLAN = "exception:2,record-corrupt:4,record-clock-skew:3"
RECORD_PLAN = "record-corrupt:4,record-clock-skew:3"

#: Events in the dirty chaos stream (every one counted by the gate).
CHAOS_EVENTS = 23_664

#: (predictions, stream, quarantine) digests of the uninterrupted dirty
#: stream per validation policy, captured from the event-at-a-time loop.
PINNED_DIRTY_DIGESTS = {
    "lenient": (
        "b3a488c5a7e53777cc9d808451d104037d62157064ab9212d24c16acdf25ff68",
        "5127f0a6648f248385095d56ce64eab110c82d97dd5e288a36e4e2d4c791ddac",
        "50e497363d83ad9c0b459e2e2229b040cb841bf8f0f1ab9797ab208576447fce",
    ),
    "repair": (
        "b3a488c5a7e53777cc9d808451d104037d62157064ab9212d24c16acdf25ff68",
        "2acc0b4ca4fecb927a11f1f57cf0999aaee1eedc6c9d06c99c02cd9f989877bb",
        "2dabb39b88f6f691a73b2aa3e6c3ea3ae3b0e2da76d31a0079a06feec568a08c",
    ),
}

#: Scale of the small stream the kill-point suite replays (every-event
#: checkpointing writes one spill per event).
SMALL_PREFIXES = 4
SMALL_DAYS = 2

#: (kind, kill position, checkpoint_every_events) -> (events_total,
#: resumed_from_cursor, checkpoints_written) of the run that completes,
#: captured from the event-at-a-time loop.
PINNED_KILL_COUNTERS = {
    ("crash", "mid-run", 0): (592, 0, 4),
    ("crash", "mid-run", 1): (592, 267, 329),
    ("crash", "mid-run", 7): (592, 266, 50),
    ("crash", "mid-run", 500): (592, 0, 4),
    ("crash", "run-boundary", 0): (592, 0, 4),
    ("crash", "run-boundary", 1): (592, 84, 512),
    ("crash", "run-boundary", 7): (592, 84, 76),
    ("crash", "run-boundary", 500): (592, 0, 4),
    ("crash", "day-boundary", 0): (592, 0, 4),
    ("crash", "day-boundary", 1): (592, 296, 300),
    ("crash", "day-boundary", 7): (592, 294, 46),
    ("crash", "day-boundary", 500): (592, 0, 4),
    ("exception", "mid-run", 0): (592, 0, 4),
    ("exception", "mid-run", 1): (592, 267, 329),
    ("exception", "mid-run", 7): (592, 266, 50),
    ("exception", "mid-run", 500): (592, 0, 4),
    ("exception", "run-boundary", 0): (592, 0, 4),
    ("exception", "run-boundary", 1): (592, 84, 512),
    ("exception", "run-boundary", 7): (592, 84, 76),
    ("exception", "run-boundary", 500): (592, 0, 4),
    ("exception", "day-boundary", 0): (592, 0, 4),
    ("exception", "day-boundary", 1): (592, 296, 300),
    ("exception", "day-boundary", 7): (592, 294, 46),
    ("exception", "day-boundary", 500): (592, 0, 4),
}


@pytest.fixture(scope="module")
def chaos_dataset():
    scenario = Scenario.build(
        ScenarioConfig(
            seed=SEED,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=NUM_DAYS),
        )
    )
    return CampaignRunner(scenario).run()


@pytest.fixture(scope="module")
def dirty_stream(chaos_dataset):
    """The recorded stream with record faults applied once, up front.

    Every run in this module consumes this same damaged stream, so the
    only variable under test is the service's fault handling.
    """
    events = events_from_dataset(chaos_dataset)
    return dirty_events(
        chaos_dataset, events, FaultPlan.from_spec(RECORD_PLAN), SEED
    )


@pytest.fixture(scope="module")
def baseline(chaos_dataset, dirty_stream):
    """The uninterrupted run the chaos runs must reproduce."""
    service = LiveService(
        ServiceConfig(seed=SEED),
        num_days=NUM_DAYS,
        source_fingerprint=chaos_dataset.digest(),
    )
    result = service.run_stream(list(dirty_stream))
    assert result.quarantine_summary["dropped"] > 0
    return result


def assert_bit_identical(result, baseline):
    assert result.predictions_digest == baseline.predictions_digest
    assert result.stream_digest == baseline.stream_digest
    assert result.quarantine_digest == baseline.quarantine_digest
    assert result.predictions == baseline.predictions
    assert result.beacons_admitted == baseline.beacons_admitted
    assert result.days_closed == baseline.days_closed


class TestCrashResume:
    def make_config(self, plan, tmp_path, **overrides):
        return ServiceConfig(
            seed=SEED,
            fault_plan=FaultPlan.from_spec(plan),
            checkpoint_dir=str(tmp_path / "ckpt"),
            **overrides,
        )

    def run_until_complete(
        self, config, chaos_dataset, dirty_stream, max_deaths=5
    ):
        """Simulate process deaths: a fresh LiveService per crash."""
        deaths = 0
        while True:
            service = LiveService(
                config if deaths == 0
                else dataclasses.replace(config, resume=True),
                num_days=NUM_DAYS,
                source_fingerprint=chaos_dataset.digest(),
            )
            try:
                return deaths, service.run_stream(list(dirty_stream))
            except InjectedCrashError:
                deaths += 1
                assert deaths <= max_deaths

    def test_crash_then_resume_is_bit_identical(
        self, chaos_dataset, dirty_stream, baseline, tmp_path
    ):
        config = self.make_config(CRASH_PLAN, tmp_path)
        deaths, result = self.run_until_complete(
            config, chaos_dataset, dirty_stream
        )
        assert deaths == 1
        assert result.attempt == 1
        assert_bit_identical(result, baseline)
        assert (
            result.events_total,
            result.resumed_from_cursor,
            result.checkpoints_written,
        ) == (CHAOS_EVENTS, 0, 5)

    def test_repeated_crashes_still_converge(
        self, chaos_dataset, dirty_stream, baseline, tmp_path
    ):
        config = self.make_config(DOUBLE_CRASH_PLAN, tmp_path)
        deaths, result = self.run_until_complete(
            config, chaos_dataset, dirty_stream
        )
        assert deaths == 2
        assert_bit_identical(result, baseline)
        assert (
            result.events_total,
            result.resumed_from_cursor,
            result.checkpoints_written,
        ) == (CHAOS_EVENTS, 7926, 4)

    def test_mid_day_checkpoint_cadence_preserves_identity(
        self, chaos_dataset, dirty_stream, baseline, tmp_path
    ):
        """Fine-grained every-N-events spills resume mid-day cleanly."""
        config = self.make_config(
            CRASH_PLAN, tmp_path, checkpoint_every_events=500
        )
        deaths, result = self.run_until_complete(
            config, chaos_dataset, dirty_stream
        )
        assert deaths == 1
        assert result.checkpoints_written > NUM_DAYS
        assert result.resumed_from_cursor > 0
        assert_bit_identical(result, baseline)
        assert (
            result.events_total,
            result.resumed_from_cursor,
            result.checkpoints_written,
        ) == (CHAOS_EVENTS, 3000, 44)

    def test_transient_faults_absorbed_by_retry(
        self, chaos_dataset, dirty_stream, baseline
    ):
        """Exceptions auto-retry in-process, no checkpoint needed."""
        service = LiveService(
            ServiceConfig(
                seed=SEED, fault_plan=FaultPlan.from_spec(TRANSIENT_PLAN)
            ),
            num_days=NUM_DAYS,
            source_fingerprint=chaos_dataset.digest(),
        )
        result = service.run_stream(list(dirty_stream))
        assert result.retries == 2
        assert_bit_identical(result, baseline)

    def test_checkpoint_with_different_identity_is_ignored(
        self, chaos_dataset, dirty_stream, tmp_path
    ):
        config = self.make_config(CRASH_PLAN, tmp_path)
        with pytest.raises(InjectedCrashError):
            LiveService(
                config,
                num_days=NUM_DAYS,
                source_fingerprint=chaos_dataset.digest(),
            ).run_stream(list(dirty_stream))
        # A semantically different service (other min_samples) must not
        # adopt the spilled state.
        other = dataclasses.replace(
            config,
            resume=True,
            fault_plan=None,
            predictor=dataclasses.replace(
                config.predictor, min_samples=5
            ),
        )
        service = LiveService(
            other,
            num_days=NUM_DAYS,
            source_fingerprint=chaos_dataset.digest(),
        )
        result = service.run_stream(list(dirty_stream))
        assert result.resumed_from_cursor == 0


class TestPinnedDigests:
    @pytest.mark.parametrize("policy", sorted(PINNED_DIRTY_DIGESTS))
    def test_dirty_stream_digests_match_the_pinned_literals(
        self, chaos_dataset, dirty_stream, policy
    ):
        result = LiveService(
            ServiceConfig(seed=SEED, validation=policy),
            num_days=NUM_DAYS,
            source_fingerprint=chaos_dataset.digest(),
        ).run_stream(list(dirty_stream))
        assert (
            result.predictions_digest,
            result.stream_digest,
            result.quarantine_digest,
        ) == PINNED_DIRTY_DIGESTS[policy]
        assert result.events_total == CHAOS_EVENTS


@pytest.fixture(scope="module")
def small_dataset():
    scenario = Scenario.build(
        ScenarioConfig(
            seed=SEED,
            population=ClientPopulationConfig(prefix_count=SMALL_PREFIXES),
            calendar=SimulationCalendar(num_days=SMALL_DAYS),
        )
    )
    return CampaignRunner(scenario).run()


@pytest.fixture(scope="module")
def small_stream(small_dataset):
    return dirty_events(
        small_dataset,
        events_from_dataset(small_dataset),
        FaultPlan.from_spec(RECORD_PLAN),
        SEED,
    )


@pytest.fixture(scope="module")
def small_baseline(small_dataset, small_stream):
    result = LiveService(
        ServiceConfig(seed=SEED),
        num_days=SMALL_DAYS,
        source_fingerprint=small_dataset.digest(),
    ).run_stream(list(small_stream))
    assert result.quarantine_summary["dropped"] > 0
    return result


def kill_ordinals(stream):
    """Event ordinals of the three kill positions in a replay stream.

    ``mid-run``: the middle of day 0's longest beacon run;
    ``run-boundary``: the first event of a day-0 beacon run that follows
    another one; ``day-boundary``: the first event of day 1.
    """
    starts, cursor = [], 0
    for item in stream:
        starts.append(cursor)
        cursor += event_count(item)
    day0_runs = [
        (len(item.rtts), starts[i], i)
        for i, item in enumerate(stream)
        if isinstance(item, BeaconRun) and item.day == 0
    ]
    length, longest_start, _ = max(day0_runs)
    after_run = [
        start
        for _, start, i in day0_runs
        if i > 0 and isinstance(stream[i - 1], BeaconRun)
    ]
    day_one = next(i for i, item in enumerate(stream) if item.day == 1)
    assert length >= 3
    return {
        "mid-run": longest_start + length // 2,
        "run-boundary": after_run[len(after_run) // 2],
        "day-boundary": starts[day_one],
    }


def pin_first_kill(monkeypatch, ordinal):
    """Make attempt 0's scheduled fault fire at event ``ordinal``."""

    class PinnedInjector(ServiceFaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.attempt == 0:
                self.fire_at = ordinal

    monkeypatch.setattr(ingest, "ServiceFaultInjector", PinnedInjector)


def run_with_kill(kind, every, dataset, stream, tmp_path):
    """One faulted run to completion; returns (result, crash messages).

    A crash models the process dying: a fresh service resumes from the
    checkpoint directory.  A transient fault restarts in-process.
    """
    config = ServiceConfig(
        seed=SEED,
        fault_plan=FaultPlan.from_spec(f"{kind}:1"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every_events=every,
    )
    crashes = []
    while True:
        service = LiveService(
            dataclasses.replace(config, resume=bool(crashes)),
            num_days=dataset.calendar.num_days,
            source_fingerprint=dataset.digest(),
        )
        try:
            return service.run_stream(list(stream)), crashes
        except InjectedCrashError as error:
            crashes.append(str(error))
            assert len(crashes) == 1


class TestKillPointsInsideRuns:
    def test_positions_land_where_named(self, small_stream):
        ordinals = kill_ordinals(small_stream)
        starts, cursor = set(), 0
        for item in small_stream:
            starts.add(cursor)
            cursor += event_count(item)
        assert ordinals["mid-run"] not in starts
        assert ordinals["run-boundary"] in starts
        assert ordinals["day-boundary"] in starts
        assert len(set(ordinals.values())) == 3

    @pytest.mark.parametrize("every", [0, 1, 7, 500])
    @pytest.mark.parametrize(
        "position", ["mid-run", "run-boundary", "day-boundary"]
    )
    @pytest.mark.parametrize("kind", ["crash", "exception"])
    def test_kill_inside_runs_is_bit_identical(
        self,
        kind,
        position,
        every,
        small_dataset,
        small_stream,
        small_baseline,
        monkeypatch,
        tmp_path,
    ):
        ordinal = kill_ordinals(small_stream)[position]
        pin_first_kill(monkeypatch, ordinal)
        result, crashes = run_with_kill(
            kind, every, small_dataset, small_stream, tmp_path
        )
        assert_bit_identical(result, small_baseline)
        if kind == "crash":
            assert crashes == [
                f"injected service crash at event {ordinal} (attempt 0)"
            ]
            assert result.attempt == 1
        else:
            assert crashes == []
            assert result.retries == 1
        counters = (
            result.events_total,
            result.resumed_from_cursor,
            result.checkpoints_written,
        )
        assert counters == PINNED_KILL_COUNTERS[(kind, position, every)]


class TestCliChaosParity:
    def test_cli_crash_exit_code_then_resume_matches_baseline(
        self, chaos_dataset, tmp_path
    ):
        dataset_path = tmp_path / "campaign.json"
        ckpt = tmp_path / "ckpt"
        save_dataset(chaos_dataset, str(dataset_path))

        crashed = tmp_path / "crashed.json"
        code = cli.main(
            [
                "replay", str(dataset_path),
                "--seed", str(SEED),
                "--fault-plan", CRASH_PLAN,
                "--checkpoint-dir", str(ckpt),
                "--manifest-out", str(crashed),
            ]
        )
        assert code == cli.EXIT_SERVICE_CRASHED
        assert not crashed.exists()

        resumed = tmp_path / "resumed.json"
        code = cli.main(
            [
                "replay", str(dataset_path),
                "--seed", str(SEED),
                "--fault-plan", CRASH_PLAN,
                "--resume-from", str(ckpt),
                "--manifest-out", str(resumed),
            ]
        )
        assert code == 0

        # The uninterrupted reference swaps the crash for a transient
        # fault at the same spec index: the record faults hit the same
        # cells and the exception is absorbed in-process.
        reference = tmp_path / "reference.json"
        code = cli.main(
            [
                "replay", str(dataset_path),
                "--seed", str(SEED),
                "--fault-plan", TRANSIENT_PLAN.replace(":2", ":1"),
                "--manifest-out", str(reference),
            ]
        )
        assert code == 0

        resumed_doc = json.loads(resumed.read_text())
        reference_doc = json.loads(reference.read_text())
        assert resumed_doc["digests"] == reference_doc["digests"]
        assert resumed_doc["attempt"] == 1
        assert resumed_doc["quarantine"]["dropped"] > 0
