"""Bulk per-day percentile tables and the figure kernels built on them.

``GroupedDailyAggregates.day_percentiles`` must answer exactly what
``LatencyDigest.percentile`` answers, bit for bit, without filling any
digest's sort cache; Figs 3/5/6/9 read it (and the diff log's columns)
instead of per-digest queries, so their formatted output is pinned here
to what the per-digest kernels printed.
"""

from __future__ import annotations

import collections
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import build_comparison
from repro.analysis.stats import WeightedDistribution
from repro.clients.population import ClientPopulationConfig
from repro.core.study import AnycastStudy
from repro.errors import AnalysisError, MeasurementError
from repro.measurement import aggregate
from repro.measurement.aggregate import GroupedDailyAggregates, LatencyDigest
from repro.simulation.campaign import CampaignConfig
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import ScenarioConfig

#: Samples every digest draws from: ordinary latencies plus the values
#: whose ordering or arithmetic is easiest to get subtly wrong.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 7.5)
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
QS = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    max_size=3,
).map(lambda drawn: (0.0, 25.0, 50.0, 75.0, 100.0, *drawn))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _row_keys(table):
    """``(group, target)`` of each row of a day-percentile table."""
    keys = []
    for group, start, stop in zip(
        table.groups, table.group_rows[:-1], table.group_rows[1:]
    ):
        keys.extend((group, target) for target in table.targets[start:stop])
    return keys


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(1, 300), min_size=1, max_size=12),
    data=st.data(),
    qs=QS,
    threshold=st.sampled_from((None, 150)),
)
def test_bulk_percentiles_match_the_scalar_method_bit_for_bit(
    counts, data, qs, threshold
):
    """Exact and promoted digests in one day, counts across the 64-sample
    numpy threshold, q at the ends and in between."""
    sink = GroupedDailyAggregates("ecs", exact_threshold=threshold)
    for index, count in enumerate(counts):
        values = data.draw(
            st.lists(VALUES, min_size=count, max_size=count)
        )
        sink.observe_many(3, f"g{index % 4}", f"t{index}", np.array(values))
    table = sink.day_percentiles(3, qs)
    assert len(table.targets) == len(counts)
    for row, (group, target_id) in enumerate(_row_keys(table)):
        digest = sink.digest(3, group, target_id)
        assert digest._sorted is None and digest._sorted_array is None
        assert table.counts[row] == digest.count
        scalar = digest.copy()
        for column, q in enumerate(qs):
            assert _bits(table.values[row, column]) == _bits(
                scalar.percentile(q)
            ), (group, target_id, q)


def test_min_count_filters_rows_and_keeps_iteration_order():
    sink = GroupedDailyAggregates("ecs")
    sink.observe_many(0, "b", "anycast", np.arange(10.0))
    sink.observe_many(0, "a", "fe-1", np.arange(3.0))
    sink.observe_many(0, "a", "anycast", np.arange(30.0))
    table = sink.day_percentiles(0, (50.0,), min_count=10)
    assert table.groups == ["b", "a"]
    assert table.group_rows.tolist() == [0, 1, 2]
    assert table.targets == ["anycast", "anycast"]
    assert table.counts.tolist() == [10, 30]
    assert table.values[:, 0].tolist() == [4.5, 14.5]
    empty = sink.day_percentiles(9, (25.0, 75.0))
    assert empty.groups == empty.targets == []
    assert empty.group_rows.tolist() == [0]
    assert empty.values.shape == (0, 2)


def test_percentile_and_count_arguments_are_validated():
    sink = GroupedDailyAggregates("ecs")
    sink.observe(0, "g", "t", 1.0)
    with pytest.raises(AnalysisError):
        sink.day_percentiles(0, (101.0,))
    with pytest.raises(AnalysisError):
        sink.day_percentiles(0, (50.0,), min_count=0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda sink: sink.observe(0, "g", "t", 100.0),
        lambda sink: sink.observe_many(0, "g", "new", np.array([0.5])),
        lambda sink: sink.observe_runs(
            0, [("g", "t", 0, 1, 100.0, 100.0)], np.array([100.0])
        ),
        lambda sink: sink.merge(_one_sample_sink(100.0)),
        lambda sink: sink.load_day_columns(
            0, _one_sample_sink(100.0).day_columns(0)
        ),
        lambda sink: sink.set_digest(0, "g", "t", LatencyDigest([100.0])),
    ],
    ids=["observe", "observe_many", "observe_runs", "merge", "load", "set"],
)
def test_every_mutation_drops_the_memo(mutate):
    sink = GroupedDailyAggregates("ecs")
    sink.observe_many(0, "g", "t", np.array([1.0, 2.0, 3.0]))
    before = sink.day_percentiles(0, (100.0,)).values[:, 0].tolist()
    mutate(sink)
    after = sink.day_percentiles(0, (100.0,))
    expected = [
        sink.digest(0, group, target_id).copy().percentile(100.0)
        for group, target_id in _row_keys(after)
    ]
    assert after.values[:, 0].tolist() == expected != before


def _one_sample_sink(value: float) -> GroupedDailyAggregates:
    sink = GroupedDailyAggregates("ecs")
    sink.observe(0, "g", "t", value)
    return sink


def test_set_digest_rejects_a_foreign_sketch_configuration():
    sink = GroupedDailyAggregates("ecs", exact_threshold=8)
    with pytest.raises(MeasurementError):
        sink.set_digest(0, "g", "t", LatencyDigest([1.0]))


def test_weighted_distribution_takes_arrays_without_changing_floats():
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 50.0, 500).astype(np.float32)
    weights = rng.uniform(0.0, 3.0, 500)
    from_array = WeightedDistribution(values, weights)
    from_list = WeightedDistribution(values.tolist(), weights.tolist())
    for x in (-100.0, -1.0, 0.0, 3.5, 80.0):
        assert from_array.fraction_above(x) == from_list.fraction_above(x)
    assert from_array.quantile(0.3) == from_list.quantile(0.3)
    assert values.dtype == np.float32  # the input is left alone


# ----------------------------------------------------------------------
# Figure kernels on a small fixed study
# ----------------------------------------------------------------------

#: sha256 of each figure's ``format()`` on the study below, as printed by
#: the per-digest kernels the bulk tables replaced; keyed by the
#: campaign's sketch threshold (``None``: exact digests).
PINNED = {
    None: {
        "fig3_anycast_penalty": "94df0ca3892fb40f50ced411061ab5a8"
        "bf8717ff202ea8bf4435a6a382abdac9",
        "fig5_poor_path_prevalence": "225c595cac46c53240d963af3cffb2f5"
        "035d11a8f5248a8edd5df41ae68d3f85",
        "fig6_poor_path_duration": "6583856d1bd72ce5cfed238940e1fe52"
        "8250b0dd80eff94bdf8ad11dbaf324f4",
        "fig9_prediction": "29c8905e827ba20a2a0383b3f4b9128e"
        "0fcc96f0526aabe06d89f8e9e5ebe25a",
    },
    16: {
        "fig3_anycast_penalty": "bf02505d83b490bedeb9112f75ffbd5d"
        "e4f78a0a80c6dacaddba7433294da84a",
        "fig5_poor_path_prevalence": "225c595cac46c53240d963af3cffb2f5"
        "035d11a8f5248a8edd5df41ae68d3f85",
        "fig6_poor_path_duration": "6583856d1bd72ce5cfed238940e1fe52"
        "8250b0dd80eff94bdf8ad11dbaf324f4",
        "fig9_prediction": "a5bc819de32af0bbb8d8f27420cc4a17"
        "a521e32f7f84834e2eada139dd4d6097",
    },
}


def _small_study(threshold):
    return AnycastStudy(
        ScenarioConfig(
            seed=7,
            population=ClientPopulationConfig(prefix_count=90),
            calendar=SimulationCalendar(num_days=3),
            engine="matrix",
        ),
        CampaignConfig(sketch_threshold=threshold),
    )


@pytest.fixture(scope="module")
def studies():
    return {threshold: _small_study(threshold) for threshold in PINNED}


def test_figure_output_is_pinned(studies):
    for threshold, pinned in PINNED.items():
        for name, expected in pinned.items():
            text = getattr(studies[threshold], name)().format()
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == expected, (threshold, name)


def test_claim_table_leaves_no_sorted_copy_on_any_digest(studies):
    """The figures read bulk tables, so no dataset digest retains a
    sorted copy of its samples after the whole claim table."""
    study = studies[None]
    assert build_comparison(study)
    dataset = study.dataset
    for sink in (dataset.ecs_aggregates, dataset.ldns_aggregates):
        for day in sink.days:
            for group, target_id, digest in sink.iter_day(day):
                assert digest._sorted is None, (day, group, target_id)
                assert digest._sorted_array is None, (day, group, target_id)


def test_figures_sort_each_day_once(monkeypatch):
    """Figs 5, 6 and 9 read p25/p50/p75 day tables; the first request
    for a day keeps all three, so every (sink, day) is sorted once."""
    study = _small_study(None)
    study.dataset
    sorts = collections.Counter()
    row_percentiles = aggregate._row_percentiles

    def counting(counts, sketches, samples, qs):
        sorts[hashlib.sha256(samples.tobytes()).hexdigest()] += 1
        return row_percentiles(counts, sketches, samples, qs)

    monkeypatch.setattr(aggregate, "_row_percentiles", counting)
    study.fig5_poor_path_prevalence()
    study.fig6_poor_path_duration()
    study.fig9_prediction()
    days = len(study.dataset.ecs_aggregates.days)
    # Every ECS day, and every LDNS day but the last (nothing is
    # predicted from it).
    assert len(sorts) == 2 * days - 1
    assert set(sorts.values()) == {1}
