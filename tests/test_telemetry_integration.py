"""End-to-end telemetry: instrumented campaigns, shard merges, exports.

The contract under test mirrors the dataset determinism contract: the
merged telemetry of a sharded run must agree with the serial run on
every counter (spans and wall-clock legitimately differ — they measure
the host, not the simulation).
"""

import json

import pytest

from repro.clients.population import ClientPopulationConfig
from repro.core.study import AnycastStudy
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignRunner,
    CampaignStats,
    PathCacheStats,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import (
    TelemetrySnapshot,
    build_run_manifest,
    format_run_report,
    manifest_path_for,
    write_run_manifest,
)


@pytest.fixture(scope="module")
def tiny_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=37,
        population=ClientPopulationConfig(prefix_count=60),
        calendar=SimulationCalendar(num_days=2),
    )


@pytest.fixture(scope="module")
def tiny_scenario(tiny_config) -> Scenario:
    return Scenario.build(tiny_config)


@pytest.fixture(scope="module")
def serial_run(tiny_scenario):
    runner = CampaignRunner(tiny_scenario)
    dataset = runner.run()
    return dataset, runner.stats, runner.telemetry.snapshot()


class TestInstrumentedCampaign:
    def test_counters_match_dataset(self, serial_run):
        dataset, _, snapshot = serial_run
        assert (
            snapshot.counters["campaign.beacons_total"]
            == dataset.beacon_count
        )
        assert (
            snapshot.counters["campaign.measurements_total"]
            == dataset.measurement_count
        )
        assert snapshot.gauges["campaign.days"]["value"] == 2

    def test_phase_tree_covers_wall_clock(self, serial_run):
        _, _, snapshot = serial_run
        wall = snapshot.gauges["campaign.wall_seconds"]["value"]
        campaign = snapshot.spans["campaign"]
        assert campaign.seconds == pytest.approx(wall)
        # Acceptance: the phase children explain >= 90% of the run.
        assert snapshot.phase_coverage("campaign") >= 0.90
        day_children = {
            path.rsplit("/", 1)[-1]
            for path, _ in snapshot.span_children("campaign/day")
        }
        assert day_children == {"workload", "passive", "beacons"}

    def test_stats_are_views_over_the_snapshot(self, serial_run):
        dataset, stats, snapshot = serial_run
        rebuilt = CampaignStats.from_snapshot(snapshot)
        assert rebuilt.beacon_count == stats.beacon_count
        assert rebuilt.measurement_count == stats.measurement_count
        assert rebuilt.engine == stats.engine == "reference"
        assert rebuilt.workers == 1
        assert rebuilt.day_seconds == pytest.approx(stats.day_seconds)
        cache = PathCacheStats.from_snapshot(snapshot)
        assert cache.anycast_hits == stats.path_cache.anycast_hits
        assert cache.unicast_misses == stats.path_cache.unicast_misses
        assert dataset.beacon_count == rebuilt.beacon_count

    def test_day_seconds_come_from_indexed_span(self, serial_run):
        _, stats, snapshot = serial_run
        assert len(snapshot.day_seconds()) == 2
        assert snapshot.day_seconds() == pytest.approx(stats.day_seconds)

    def test_dns_cache_counters_present(self, serial_run):
        _, _, snapshot = serial_run
        hits = snapshot.counters["dns.cache.hits_total"]
        misses = snapshot.counters["dns.cache.misses_total"]
        assert hits > 0 and misses > 0


class TestShardedTelemetry:
    @pytest.mark.parametrize("engine", ["reference", "matrix"])
    def test_merged_counters_equal_serial(self, tiny_scenario, engine):
        serial = CampaignRunner(
            tiny_scenario, CampaignConfig(engine=engine)
        )
        serial_dataset = serial.run()
        serial_counters = serial.telemetry.snapshot().counters

        sharded = ParallelCampaignRunner(
            tiny_scenario, CampaignConfig(engine=engine), workers=3
        )
        sharded_dataset = sharded.run()
        merged = sharded.telemetry.snapshot()

        assert sharded_dataset.digest() == serial_dataset.digest()
        # Cache hit/miss splits depend on cache locality, and matrix
        # chunk counts on how each shard's rows pack into chunks — both
        # legitimately change with sharding; every other counter — and
        # the cache *totals* (hits + misses = lookups) — must agree
        # exactly.
        layout_prefixes = ("path_cache.", "dns.cache.", "engine.matrix.")
        for name, value in serial_counters.items():
            if not name.startswith(layout_prefixes):
                assert merged.counters[name] == value, name
        for family in ("path_cache.anycast", "path_cache.unicast", "dns.cache"):
            serial_total = (
                serial_counters[f"{family}.hits_total"]
                + serial_counters[f"{family}.misses_total"]
            )
            merged_total = (
                merged.counters[f"{family}.hits_total"]
                + merged.counters[f"{family}.misses_total"]
            )
            assert merged_total == serial_total, family
        assert merged.context["workers"] == 3
        assert merged.context["engine"] == engine

    def test_merged_spans_aggregate_all_shards(self, tiny_scenario):
        sharded = ParallelCampaignRunner(tiny_scenario, workers=3)
        sharded.run()
        snapshot = sharded.telemetry.snapshot()
        # Each of the 3 shards entered the campaign span once.
        assert snapshot.spans["campaign"].count == 3
        # The coordinator stamps its own elapsed time over the shard max.
        assert snapshot.gauges["campaign.wall_seconds"]["value"] > 0.0

    def test_study_exposes_merged_snapshot(self, tiny_config):
        study = AnycastStudy(tiny_config)
        study.dataset
        snapshot = study.telemetry_snapshot()
        assert "scenario_build" in snapshot.spans
        assert snapshot.counters["campaign.beacons_total"] > 0
        assert snapshot.context["seed"] == tiny_config.seed


class TestReportAndManifest:
    def test_run_report_renders(self, serial_run):
        _, _, snapshot = serial_run
        report = format_run_report(snapshot)
        assert "phase tree" in report
        assert "campaign.beacons_total" in report
        assert "campaign.day_seconds" in report
        assert "seed=37" in report

    def test_manifest_round_trip(self, serial_run, tmp_path):
        dataset, _, snapshot = serial_run
        artifact = tmp_path / "dataset.json"
        manifest_path = manifest_path_for(str(artifact))
        assert manifest_path.endswith("dataset.manifest.json")
        manifest = write_run_manifest(
            manifest_path, snapshot, dataset=dataset,
            extra={"artifact": str(artifact)},
        )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded == json.loads(json.dumps(manifest))
        assert loaded["seed"] == 37
        assert loaded["beacon_count"] == dataset.beacon_count
        assert loaded["dataset_digest"] == dataset.digest()
        assert loaded["phase_coverage"]["campaign"] >= 0.90
        assert "campaign/day" in loaded["phase_seconds"]

    def test_build_manifest_without_dataset(self, serial_run):
        _, _, snapshot = serial_run
        manifest = build_run_manifest(snapshot)
        assert "dataset_digest" not in manifest
        assert manifest["engine"] == "reference"

    def test_snapshot_export_round_trip(self, serial_run):
        _, _, snapshot = serial_run
        restored = TelemetrySnapshot.from_json(snapshot.to_json())
        assert restored.counters == snapshot.counters
        prometheus = restored.to_prometheus()
        assert "repro_campaign_beacons_total" in prometheus
        assert 'phase="campaign/day/beacons"' in prometheus
