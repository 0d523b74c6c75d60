"""Live campaign progress: callbacks, listeners, and shard aggregation.

``CampaignConfig.progress_callback`` was accepted-but-ignored by the
parallel runner for five PRs; these tests pin the repaired contract:

* serial runs invoke the callback once per completed day, in order;
* sharded runs (single-worker inline pool and true multiprocess)
  aggregate worker heartbeats and fire the *same* callback sequence —
  one call per day, in day order, only when the day is complete across
  every shard;
* retries never double-report a day (progress is monotone);
* ``progress_listener`` observes rich :class:`CampaignProgress` rows
  whose final state covers all days and shards.
"""

import functools

from repro.clients.population import ClientPopulationConfig
from repro.faults import FaultPlan
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignProgress,
    CampaignRunner,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig

DAYS = 3


@functools.lru_cache(maxsize=None)
def _scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=5,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=DAYS),
            engine="matrix",
        )
    )


def _expected():
    return [(day, DAYS) for day in range(DAYS)]


def test_serial_progress_callback_fires_per_day():
    calls = []
    runner = CampaignRunner(
        _scenario(),
        CampaignConfig(progress_callback=lambda d, n: calls.append((d, n))),
    )
    runner.run()
    assert calls == _expected()


def test_serial_progress_listener_observes_rich_rows():
    rows = []
    runner = CampaignRunner(
        _scenario(), CampaignConfig(progress_listener=rows.append)
    )
    runner.run()
    assert rows
    final = rows[-1]
    assert isinstance(final, CampaignProgress)
    assert final.days_completed == DAYS
    assert final.num_days == DAYS
    assert final.beacons > 0
    assert final.beacons_per_second > 0
    assert f"day {DAYS}/{DAYS}" in final.format()


def test_single_worker_sharded_progress():
    calls = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(progress_callback=lambda d, n: calls.append((d, n))),
        workers=1,
    )
    runner.run()
    assert calls == _expected()


def test_multiprocess_sharded_progress():
    calls = []
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            progress_callback=lambda d, n: calls.append((d, n)),
            progress_listener=rows.append,
        ),
        workers=2,
    )
    dataset = runner.run()
    assert calls == _expected()
    assert rows
    final = rows[-1]
    assert final.days_completed == DAYS
    assert final.shards_done == final.shards_total == 2
    # The listener's final beacon total matches the merged dataset.
    assert final.beacons == dataset.beacon_count


def test_retry_never_double_reports_a_day():
    calls = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            progress_callback=lambda d, n: calls.append((d, n)),
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
        ),
        workers=2,
    )
    runner.run()
    # The crashed shard re-runs its days, but aggregation reports each
    # day exactly once, in order.
    assert calls == _expected()


def test_retries_surface_in_listener():
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            progress_listener=rows.append,
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
        ),
        workers=2,
    )
    runner.run()
    assert rows[-1].retries >= 1
    assert "retries" in rows[-1].format()


def test_progress_format_smoke():
    row = CampaignProgress(
        days_completed=2,
        num_days=7,
        beacons=12345,
        beacons_per_second=4567.0,
        elapsed_seconds=1.25,
        shards_done=1,
        shards_total=4,
        retries=2,
    )
    text = row.format()
    assert "day 2/7" in text
    assert "12,345" in text
    assert "shards 1/4" in text
    assert "retries 2" in text
