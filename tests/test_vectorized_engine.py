"""The measurement engines and their bulk sink APIs.

Three contracts under test:

* **Determinism within an engine** — a run is a pure function of the
  seed, and serial ≡ sharded ≡ parallel bit-for-bit (same
  :meth:`StudyDataset.digest`).
* **Chunk invariance** — the matrix engine is its own oracle: any
  ``_MATRIX_CHUNK_ROWS``, from one block-grid span per chunk to a whole
  day, yields the same dataset and quarantine digests.
* **Statistical equivalence across engines** — the reference and matrix
  engines draw beacon terms from different streams, so their datasets
  differ bit-for-bit, but they share the workload draws (query/beacon
  volumes, passive traffic) and sample the same distributions, so the
  paper's headline statistics (Fig 3 penalty fractions, Fig 5 poor-path
  prevalence) and the pooled RTT distributions must agree within
  tolerance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.clients.workload import WorkloadConfig
from repro.dns.authoritative import ANYCAST_TARGET
from repro.errors import AnalysisError, ConfigurationError
from repro.analysis.anycast_perf import anycast_penalty_ccdf
from repro.analysis.poor_paths import poor_path_prevalence
from repro.clients.population import ClientPopulationConfig
from repro.faults import FaultPlan
from repro.latency.sampling import percentile
from repro.measurement.aggregate import (
    GroupedDailyAggregates,
    LatencyDigest,
    RequestDiffLog,
)
from repro.measurement.validate import QuarantineLog
from repro.simulation import campaign
from repro.simulation.campaign import (
    _MAX_BLOCK_BEACONS,
    CampaignConfig,
    CampaignRunner,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.episodes import OverloadPlan
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def engine_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=23,
            population=ClientPopulationConfig(prefix_count=120),
            calendar=SimulationCalendar(num_days=3),
        )
    )


@pytest.fixture(scope="module")
def reference_dataset(engine_scenario):
    return CampaignRunner(
        engine_scenario, CampaignConfig(engine="reference")
    ).run()


@pytest.fixture(scope="module")
def matrix_dataset(engine_scenario):
    return CampaignRunner(
        engine_scenario, CampaignConfig(engine="matrix")
    ).run()


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max CDF distance)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    values = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, values, side="right") / len(a)
    cdf_b = np.searchsorted(b, values, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def pooled_rtts(dataset, target_id=None):
    """All ECS-aggregated RTT samples, optionally for one target."""
    samples = []
    aggregates = dataset.ecs_aggregates
    for day in aggregates.days:
        for _, tid, digest in aggregates.iter_day(day):
            if target_id is None or tid == target_id:
                samples.extend(digest.values())
    return samples


class TestMatrixEngine:
    def test_same_seed_same_digest(self, engine_scenario, matrix_dataset):
        again = CampaignRunner(
            engine_scenario, CampaignConfig(engine="matrix")
        ).run()
        assert again.digest() == matrix_dataset.digest()

    def test_serial_equals_parallel(self, engine_scenario, matrix_dataset):
        runner = ParallelCampaignRunner(
            engine_scenario, CampaignConfig(engine="matrix"), workers=2
        )
        parallel = runner.run()
        assert parallel.digest() == matrix_dataset.digest()
        assert runner.stats.engine == "matrix"

    def test_sliced_halves_merge_to_serial(
        self, engine_scenario, matrix_dataset
    ):
        config = CampaignConfig(engine="matrix")
        half = len(engine_scenario.clients) // 2
        first = CampaignRunner(
            engine_scenario, config, client_slice=(0, half)
        ).run()
        second = CampaignRunner(
            engine_scenario, config,
            client_slice=(half, len(engine_scenario.clients)),
        ).run()
        assert (first + second).digest() == matrix_dataset.digest()


#: Chunk caps the invariance property must cover: one span per chunk,
#: exactly one span, the default, and a whole day in one chunk.
CHUNK_ROWS = (1, _MAX_BLOCK_BEACONS, 32768, 10**9)

CHUNK_CONFIGS = {
    "plain": {},
    "dirty": {
        "fault_plan": FaultPlan.from_spec(
            "record-corrupt:4,record-clock-skew:3,record-truncate:2"
        )
    },
    "sketch": {"sketch_threshold": 32},
    "capacity": {
        "frontend_capacity": 1.5,
        "overload_plan": OverloadPlan.from_spec("flash-crowd:1,drain:1"),
        "load_policy": "fastroute",
    },
}


def _heavy_scenario() -> Scenario:
    # Two /24s with enough daily volume that a client-day spans several
    # _MAX_BLOCK_BEACONS blocks (the same scenario as TestChunkedEngine).
    return Scenario.build(
        ScenarioConfig(
            seed=5,
            population=ClientPopulationConfig(
                prefix_count=2, volume_median_queries=40_000.0
            ),
            workload=WorkloadConfig(max_beacons_per_day=50_000),
            calendar=SimulationCalendar(num_days=1),
        )
    )


def _multi_client_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=23,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=2),
        )
    )


@pytest.fixture(scope="module")
def chunk_scenarios():
    return {"heavy": _heavy_scenario(), "multi": _multi_client_scenario()}


@pytest.fixture(scope="module")
def chunk_baselines():
    """Whole-day-chunk digests per (scenario, config), filled lazily."""
    return {}


def _chunked_run(scenario, config_name, rows):
    config = CampaignConfig(engine="matrix", **CHUNK_CONFIGS[config_name])
    with mock.patch.object(campaign, "_MATRIX_CHUNK_ROWS", rows):
        runner = CampaignRunner(scenario, config)
        dataset = runner.run()
    return dataset, runner.quarantine.digest()


class TestChunkInvariance:
    """The matrix engine is its own oracle across chunk sizes."""

    @pytest.mark.parametrize("config_name", sorted(CHUNK_CONFIGS))
    @pytest.mark.parametrize("scenario_name", ["heavy", "multi"])
    @settings(max_examples=6, deadline=None)
    @given(rows=st.sampled_from(CHUNK_ROWS) | st.integers(1, 3 * 4096))
    @example(rows=CHUNK_ROWS[0])
    @example(rows=CHUNK_ROWS[1])
    @example(rows=CHUNK_ROWS[2])
    @example(rows=CHUNK_ROWS[3])
    def test_digests_independent_of_chunk_rows(
        self, chunk_scenarios, chunk_baselines, scenario_name, config_name,
        rows,
    ):
        scenario = chunk_scenarios[scenario_name]
        key = (scenario_name, config_name)
        if key not in chunk_baselines:
            dataset, quarantine = _chunked_run(scenario, config_name, 10**9)
            if scenario_name == "heavy":
                # At least one client-day spans several blocks.
                assert dataset.beacon_count > 2 * _MAX_BLOCK_BEACONS
            if config_name == "dirty":
                assert quarantine != QuarantineLog().digest()
            chunk_baselines[key] = (dataset.digest(), quarantine)
        dataset, quarantine = _chunked_run(scenario, config_name, rows)
        assert (dataset.digest(), quarantine) == chunk_baselines[key]


class TestEngineEquivalence:
    def test_engines_differ_bit_for_bit(
        self, reference_dataset, matrix_dataset
    ):
        # Different random streams: equality across engines would mean
        # one is silently running the other's code path.
        assert reference_dataset.digest() != matrix_dataset.digest()

    def test_shared_workload_draws(self, reference_dataset, matrix_dataset):
        # Query/beacon volumes come from the same derived streams in both
        # engines, so the counts — and the passive production log — are
        # identical, not merely close.
        assert reference_dataset.beacon_count == matrix_dataset.beacon_count
        assert (
            reference_dataset.measurement_count
            == matrix_dataset.measurement_count
        )
        ref_passive = reference_dataset.passive
        mat_passive = matrix_dataset.passive
        assert ref_passive.days == mat_passive.days
        for day in ref_passive.days:
            assert ref_passive.clients_on(day) == mat_passive.clients_on(day)
            for client_key in ref_passive.clients_on(day):
                assert ref_passive.frontends_for(day, client_key) == (
                    mat_passive.frontends_for(day, client_key)
                )

    def test_fig3_penalty_fractions_agree(
        self, reference_dataset, matrix_dataset
    ):
        reference = anycast_penalty_ccdf(reference_dataset).fraction_slower
        matrix = anycast_penalty_ccdf(matrix_dataset).fraction_slower
        for region in ("world", "europe"):
            for threshold in (10.0, 25.0, 100.0):
                assert reference[region][threshold] == pytest.approx(
                    matrix[region][threshold], abs=0.05
                )

    def test_fig5_poor_path_prevalence_agrees(
        self, reference_dataset, matrix_dataset
    ):
        reference = poor_path_prevalence(reference_dataset)
        matrix = poor_path_prevalence(matrix_dataset)
        for threshold in reference.thresholds:
            assert reference.mean_fraction(threshold) == pytest.approx(
                matrix.mean_fraction(threshold), abs=0.05
            )

    def test_pooled_rtt_distributions_agree(
        self, reference_dataset, matrix_dataset
    ):
        anycast = ks_statistic(
            pooled_rtts(reference_dataset, ANYCAST_TARGET),
            pooled_rtts(matrix_dataset, ANYCAST_TARGET),
        )
        everything = ks_statistic(
            pooled_rtts(reference_dataset), pooled_rtts(matrix_dataset)
        )
        assert anycast < 0.05
        assert everything < 0.05

    def test_per_path_rtt_distributions_agree(
        self, reference_dataset, matrix_dataset
    ):
        # Per (client, anycast path), pooled across days.  Tolerance is
        # looser than the global pools: a single path sees only a few
        # hundred samples and its own daily-congestion realizations.
        ref_agg = reference_dataset.ecs_aggregates
        mat_agg = matrix_dataset.ecs_aggregates
        sizes = {}
        for day in ref_agg.days:
            for group, tid, digest in ref_agg.iter_day(day):
                if tid == ANYCAST_TARGET:
                    sizes[group] = sizes.get(group, 0) + digest.count
        busiest = sorted(sizes, key=sizes.get, reverse=True)[:5]
        assert busiest, "no anycast samples aggregated"
        for group in busiest:
            samples = []
            for aggregate in (ref_agg, mat_agg):
                pooled = []
                for day in aggregate.days:
                    digest = aggregate.digest(day, group, ANYCAST_TARGET)
                    if digest is not None:
                        pooled.extend(digest.values())
                samples.append(pooled)
            assert ks_statistic(*samples) < 0.12


class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(engine="warp")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(engine="warp")

    def test_removed_vectorized_engine_rejected(self, capsys):
        for build in (CampaignConfig, ScenarioConfig):
            with pytest.raises(ConfigurationError) as caught:
                build(engine="vectorized")
            assert str(caught.value).endswith(
                "expected 'reference' or 'matrix'"
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--engine", "vectorized", "out.json"]
            )
        error = capsys.readouterr().err
        assert "choose from 'reference', 'matrix'" in error

    def test_campaign_config_overrides_scenario(self):
        scenario = Scenario.build(
            ScenarioConfig(
                seed=5,
                population=ClientPopulationConfig(prefix_count=20),
                calendar=SimulationCalendar(num_days=1),
                engine="matrix",
            )
        )
        inherited = CampaignRunner(scenario)
        inherited.run()
        assert inherited.stats.engine == "matrix"
        overridden = CampaignRunner(
            scenario, CampaignConfig(engine="reference")
        )
        overridden.run()
        assert overridden.stats.engine == "reference"

    def test_stats_format_names_engine(self, engine_scenario):
        runner = CampaignRunner(
            engine_scenario, CampaignConfig(engine="matrix")
        )
        runner.run()
        assert "engine=matrix" in runner.stats.format()


class TestLatencyDigestBulk:
    def test_extend_matches_repeated_add(self):
        values = [5.0, 1.0, 9.0, 3.0]
        one = LatencyDigest()
        other = LatencyDigest()
        for value in values:
            one.add(value)
        other.extend(np.array(values))
        assert other.values() == one.values()
        assert other.median() == one.median()

    def test_extend_accepts_plain_sequences(self):
        digest = LatencyDigest()
        digest.extend([2.0, 4.0])
        digest.extend((6.0,))
        assert digest.values() == (2.0, 4.0, 6.0)

    def test_numpy_percentile_path_matches_reference_percentile(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(3.0, 1.0, 500)
        digest = LatencyDigest()
        digest.extend(values)
        assert digest.count >= LatencyDigest._NUMPY_SORT_THRESHOLD
        ordered = sorted(values)
        for q in (0.0, 25.0, 50.0, 73.5, 100.0):
            assert digest.percentile(q) == pytest.approx(
                percentile(ordered, q)
            )

    def test_sorted_cache_reused_and_invalidated(self):
        digest = LatencyDigest()
        digest.extend(np.arange(100, dtype=float))
        assert digest.percentile(50.0) == pytest.approx(49.5)
        assert digest._sorted_array is not None
        digest.extend(np.array([1000.0]))
        assert digest._sorted_array is None
        assert digest.percentile(100.0) == 1000.0

    def test_percentile_bounds_checked_on_numpy_path(self):
        digest = LatencyDigest()
        digest.extend(np.arange(100, dtype=float))
        with pytest.raises(AnalysisError):
            digest.percentile(101.0)

    def test_empty_digest_still_raises(self):
        with pytest.raises(AnalysisError):
            LatencyDigest().percentile(50.0)


class TestBulkSinks:
    def test_observe_many_matches_repeated_observe(self):
        bulk = GroupedDailyAggregates("ecs")
        scalar = GroupedDailyAggregates("ecs")
        rtts = np.array([10.0, 20.0, 30.0])
        bulk.observe_many(1, "g", "anycast", rtts)
        for rtt in rtts:
            scalar.observe(1, "g", "anycast", float(rtt))
        assert bulk.digest(1, "g", "anycast").values() == (
            scalar.digest(1, "g", "anycast").values()
        )

    def test_observe_many_empty_batch_is_noop(self):
        aggregate = GroupedDailyAggregates("ecs")
        aggregate.observe_many(0, "g", "anycast", np.empty(0))
        assert aggregate.days == ()

    def test_diff_log_observe_columns_matches_scalar(self):
        bulk = RequestDiffLog()
        scalar = RequestDiffLog()
        anycast = np.array([30.0, 45.0, 12.0])
        unicast = np.array([20.0, 50.0, 11.0])
        clients = np.array([7, 7, 9])
        regions = ("europe", "europe", "asia")
        codes = np.array([bulk.region_code(name) for name in regions])
        bulk.observe_columns(2, clients, codes, anycast, unicast)
        for a, b, client, region in zip(anycast, unicast, clients, regions):
            scalar.observe(2, int(client), region, float(a), float(b))
        assert list(bulk.rows()) == list(scalar.rows())
