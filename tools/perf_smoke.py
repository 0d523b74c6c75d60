"""CI performance smoke test for the measurement engines.

Runs one small campaign through both engines on the same host and fails
(exit code 1) if the matrix engine's serial beacon throughput is not at
least ``--min-speedup`` times the reference engine's.  The threshold is
deliberately lower than the benchmark's recorded headline number
(``benchmarks/out/pipeline_performance.txt``) so shared CI runners don't
flake, while still catching any change that de-vectorizes the hot path.

Also asserts the matrix engine's correctness contract: a serial run and
a 2-worker sharded run produce bit-identical datasets (same
``StudyDataset.digest()``) and equal merged telemetry counters.

The load leg (always on) reruns the matrix campaign with finite
front-end capacity and a live overload drill, through the same traced
helper as the capacity-off run, and fails if its ``campaign/day``
throughput (the per-day hot path; the load schedule is built once in
setup and reported separately) falls more than ``--max-load-overhead``
below the capacity-off run's.

With ``--fault-plan`` the smoke additionally runs the same sharded
campaign under an injected fault schedule (worker crashes, hangs,
transient exceptions, corrupted payloads, merge failures — see
``repro.faults``) and fails unless the retried run's digest is
bit-identical to the clean run's.  ``--fault-manifest-out`` writes that
chaos run's manifest (fired faults, retry counters, coverage) for CI to
archive.

With ``--dirty-plan`` it runs the dirty-data chaos leg: the same campaign
with record-level faults (``record-corrupt``, ``record-clock-skew``,
``record-truncate``) under the lenient validation policy, asserting the
quarantine identity — the clean measurement count equals the dirty count
plus exactly the quarantined records — and that serial, 2-worker sharded,
and reference-engine runs agree on the dirty digest and quarantine
accounting.  It then saves the dirty dataset through the framed exporter,
tears its tail off, and requires the recovery loader to salvage the
intact prefix.  ``--dirty-manifest-out`` archives the accounting.

The sketch leg (always on) reruns the campaign in bounded sketch mode
(``--sketch-threshold``), requires the serial and 2-worker sketch digests
to match bit-for-bit, and requires the sketch-mode Fig 3/Fig 5 headline
fractions to stay within ``--sketch-tolerance`` of the exact run's.

The digest leg (always on) times ``StudyDataset.digest()`` on the serial
matrix dataset and fails if hashing it takes more than
:data:`MAX_DIGEST_RATIO` times that campaign's wall time — the guard
against the fingerprint drifting back to per-sample work.  The ratio is
recorded in the ``--rss-manifest-out`` manifest.

The ingest leg (always on) replays the serial matrix dataset through
the live service (``LiveService.run_stream(events_from_dataset(...))``)
under the same tracemalloc probe as the campaign it is compared with,
and fails if ingestion takes more than :data:`MAX_INGEST_RATIO` times
that campaign's wall time — the guard against the service loop drifting
back to per-event queue hops.  The ratio is recorded in the
``--rss-manifest-out`` manifest under ``ingest_leg``.

The export leg (always on) saves the serial matrix dataset through
``save_dataset`` and loads it back through ``load_dataset``, under the
same tracemalloc probe as the campaign it is compared with, and fails
if the round trip takes more than :data:`MAX_EXPORT_RATIO` times that
campaign's wall time or changes the dataset digest — the guard against
the on-disk format drifting back to per-row decoding.  The ratio is
recorded in the ``--rss-manifest-out`` manifest under ``export_leg``.

The memory leg (``--memory-populations A,B``) runs the bounded campaign
at two population sizes with a tracemalloc probe around each and fails
if peak traced memory grows super-linearly in the population — the
cheap in-smoke guard against retention regressions; the strict flatness
gate lives in ``tools/memory_smoke.py``.  Every leg records both
tracemalloc peaks and ``resource.getrusage`` peak RSS in its manifest.

Usage::

    PYTHONPATH=src python tools/perf_smoke.py [--min-speedup 6.0] \\
        [--fault-plan crash:1] [--fault-manifest-out manifest.json] \\
        [--dirty-plan record-corrupt:8] [--dirty-manifest-out dirty.json]
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from typing import Optional, Sequence

from repro.analysis.anycast_perf import WORLD, anycast_penalty_ccdf
from repro.analysis.poor_paths import poor_path_prevalence
from repro.clients.population import ClientPopulationConfig
from repro.faults import FaultPlan
from repro.measurement.export import (
    load_dataset,
    recover_dataset,
    save_dataset,
)
from repro.service import LiveService, ServiceConfig, events_from_dataset
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.episodes import OverloadPlan
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import (
    BenchHistory,
    MemoryProbe,
    peak_rss_bytes,
    record_from_snapshot,
    write_run_manifest,
)


#: Most ``StudyDataset.digest()`` may take on the serial matrix dataset,
#: as a multiple of that campaign's wall time (column hashing runs well
#: under 0.5x; per-sample text hashing ran at 2.4-2.8x).
MAX_DIGEST_RATIO = 1.0

#: Most replaying the serial matrix dataset through the live service may
#: take, as a multiple of that campaign's wall time (at the default
#: 200 /24s x 3 days on a 2-core host, one queue hop per beacon run
#: measured 2.3x; one per event measured 7.9x).
MAX_INGEST_RATIO = 4.0

#: Most saving the serial matrix dataset and loading it back may take,
#: as a multiple of that campaign's wall time (at the default 200 /24s x
#: 3 days on a 2-core host, column blocks measured 0.37-0.63x; the
#: per-row framed decode they replaced measured 0.60-0.98x, median 0.89x).
MAX_EXPORT_RATIO = 0.75


class _TimedRun:
    """One traced serial campaign; timings come from its snapshot."""

    def __init__(self, scenario: Scenario, config: CampaignConfig) -> None:
        runner = CampaignRunner(scenario, config)
        with MemoryProbe() as probe:
            self.dataset = runner.run()
        self.peak = probe.peak_bytes
        self.snapshot = snapshot = runner.telemetry.snapshot()
        beacons = snapshot.counters["campaign.beacons_total"]
        self.seconds = snapshot.gauges["campaign.wall_seconds"]["value"]
        #: Beacons per second of campaign wall time.
        self.rate = beacons / self.seconds
        #: Beacons per second of the ``campaign/day`` spans — the per-day
        #: hot path, excluding setup and finalize.
        self.day_rate = beacons / snapshot.spans["campaign/day"].seconds
        self.setup_seconds = snapshot.spans["campaign/setup"].seconds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prefixes", type=int, default=200)
    parser.add_argument("--days", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup", type=float, default=6.0,
        help="required matrix/reference beacons-per-second ratio",
    )
    parser.add_argument(
        "--fault-plan", metavar="SPEC",
        help=(
            "also run a fault-injected 2-worker campaign (spec like "
            "'crash:1,exception:1') and require its retried digest to "
            "match the clean run bit-for-bit"
        ),
    )
    parser.add_argument(
        "--fault-manifest-out", metavar="PATH",
        help="write the chaos run's manifest here (requires --fault-plan)",
    )
    parser.add_argument(
        "--dirty-plan", metavar="SPEC",
        help=(
            "also run the dirty-data chaos leg (spec of record-level "
            "kinds like 'record-corrupt:8,record-clock-skew:4') and "
            "require exact quarantine accounting across serial, sharded, "
            "and reference runs plus torn-tail recovery"
        ),
    )
    parser.add_argument(
        "--dirty-manifest-out", metavar="PATH",
        help=(
            "write the dirty-data leg's manifest here (requires "
            "--dirty-plan)"
        ),
    )
    parser.add_argument(
        "--sketch-threshold", type=int, default=64, metavar="N",
        help=(
            "per-digest exact-sample budget for the bounded sketch leg "
            "(digests above it compress into mergeable sketches)"
        ),
    )
    parser.add_argument(
        "--sketch-tolerance", type=float, default=0.05, metavar="FRAC",
        help=(
            "max absolute drift allowed between exact and sketch-mode "
            "Fig 3 / Fig 5 headline fractions"
        ),
    )
    parser.add_argument(
        "--max-load-overhead", type=float, default=0.10, metavar="FRAC",
        help=(
            "max campaign/day beacons/s loss the finite-capacity leg "
            "(--frontend-capacity path with a live overload drill) may "
            "cost over the capacity-off matrix run"
        ),
    )
    parser.add_argument(
        "--memory-populations", default="120,360", metavar="A,B",
        help=(
            "two prefix counts for the memory leg; peak traced memory "
            "must not grow super-linearly between them (empty to skip)"
        ),
    )
    parser.add_argument(
        "--memory-slack", type=float, default=1.25, metavar="X",
        help=(
            "memory leg tolerance: peak ratio must be <= population "
            "ratio times this factor"
        ),
    )
    parser.add_argument(
        "--rss-manifest-out", metavar="PATH",
        help="write the memory/RSS accounting manifest here",
    )
    parser.add_argument(
        "--history-out", metavar="PATH", default="BENCH_history.json",
        help=(
            "append one perf-history record per engine leg to this "
            "ledger for tools/bench_history.py (empty string disables; "
            "default %(default)s)"
        ),
    )
    args = parser.parse_args(argv)

    scenario = Scenario.build(
        ScenarioConfig(
            seed=args.seed,
            population=ClientPopulationConfig(prefix_count=args.prefixes),
            calendar=SimulationCalendar(num_days=args.days),
        )
    )

    reference = _TimedRun(scenario, CampaignConfig(engine="reference"))
    matrix = _TimedRun(scenario, CampaignConfig(engine="matrix"))
    speedup = matrix.rate / reference.rate
    # Timed under a tracemalloc probe like the campaign it is compared
    # with, so the ratio weighs the two phases under the same overhead.
    with MemoryProbe() as digest_probe:
        digest_started = time.perf_counter()
        matrix_digest = matrix.dataset.digest()
        digest_seconds = time.perf_counter() - digest_started
    digest_ratio = digest_seconds / matrix.seconds
    with MemoryProbe() as ingest_probe:
        ingest_started = time.perf_counter()
        ingest = LiveService(
            ServiceConfig(), num_days=args.days
        ).run_stream(events_from_dataset(matrix.dataset))
        ingest_seconds = time.perf_counter() - ingest_started
    ingest_ratio = ingest_seconds / matrix.seconds
    with tempfile.TemporaryDirectory(prefix="perf-smoke-") as tmpdir:
        export_path = os.path.join(tmpdir, "matrix-dataset.json")
        with MemoryProbe() as export_probe:
            export_started = time.perf_counter()
            save_dataset(matrix.dataset, export_path)
            reloaded = load_dataset(export_path)
            export_seconds = time.perf_counter() - export_started
        export_bytes = os.path.getsize(export_path)
    export_ratio = export_seconds / matrix.seconds
    if reloaded.digest() != matrix_digest:
        print("FAIL: matrix dataset digest changed across save + load")
        return 1

    sharded_runner = ParallelCampaignRunner(
        scenario, CampaignConfig(engine="matrix"), workers=2
    )
    sharded = sharded_runner.run()
    if sharded.digest() != matrix_digest:
        print("FAIL: matrix serial and 2-worker digests diverged")
        return 1
    sharded_counters = sharded_runner.telemetry.snapshot().counters
    for name in ("campaign.beacons_total", "campaign.measurements_total"):
        if sharded_counters[name] != matrix.snapshot.counters[name]:
            print(
                f"FAIL: merged 2-worker {name} "
                f"({sharded_counters[name]:,.0f}) != serial "
                f"({matrix.snapshot.counters[name]:,.0f})"
            )
            return 1

    print(
        f"perf smoke ({args.prefixes} /24s x {args.days} days, "
        f"seed {args.seed}):"
    )
    for label, run in (("reference", reference), ("matrix", matrix)):
        print(
            f"  {label + ':':10s} {run.seconds:6.2f}s  "
            f"({run.rate:9,.0f} beacons/s)"
        )
        phases = ", ".join(
            f"{path.rsplit('/', 1)[-1]}={record.seconds:.2f}s"
            for path, record in run.snapshot.span_children("campaign/day")
        )
        print(f"  {label} day phases: {phases}")
    print(
        f"  matrix speedup over reference: {speedup:.2f}x "
        f"(required >= {args.min_speedup:.1f}x)"
    )
    print(
        f"  peak traced memory: reference {reference.peak / 1e6:.1f} MB, "
        f"matrix {matrix.peak / 1e6:.1f} MB "
        f"(process peak RSS {peak_rss_bytes() / 1e6:.1f} MB)"
    )
    print(
        f"  matrix dataset digest: {digest_seconds:.3f}s = "
        f"{digest_ratio:.2f}x campaign wall "
        f"(limit {MAX_DIGEST_RATIO:.2f}x; peak traced memory "
        f"{digest_probe.peak_bytes / 1e6:.1f} MB)"
    )
    print(
        f"  matrix dataset replay: {ingest.events_total:,} events in "
        f"{ingest_seconds:.3f}s = {ingest_ratio:.2f}x campaign wall "
        f"(limit {MAX_INGEST_RATIO:.2f}x; peak traced memory "
        f"{ingest_probe.peak_bytes / 1e6:.1f} MB)"
    )
    print(
        f"  matrix dataset save + load: {export_bytes / 1e6:.1f} MB in "
        f"{export_seconds:.3f}s = {export_ratio:.2f}x campaign wall "
        f"(limit {MAX_EXPORT_RATIO:.2f}x; peak traced memory "
        f"{export_probe.peak_bytes / 1e6:.1f} MB); digest unchanged"
    )
    print("  matrix serial == 2-worker digest: ok")
    print("  matrix serial == 2-worker merged telemetry counters: ok")

    # ------------------------------------------------------------------
    # Sketch leg: bounded mode must shard exactly and answer the headline
    # figures within tolerance of the exact oracle.
    sketch_config = CampaignConfig(
        engine="matrix", sketch_threshold=args.sketch_threshold
    )
    with MemoryProbe() as sketch_probe:
        sketch_dataset = CampaignRunner(scenario, sketch_config).run()
    sketch_sharded = ParallelCampaignRunner(
        scenario, sketch_config, workers=2
    ).run()
    if sketch_sharded.digest() != sketch_dataset.digest():
        print("FAIL: sketch-mode serial and 2-worker digests diverged")
        return 1
    if sketch_dataset.measurement_count != matrix.dataset.measurement_count:
        print(
            "FAIL: sketch-mode campaign lost measurements "
            f"({sketch_dataset.measurement_count:,} vs "
            f"{matrix.dataset.measurement_count:,})"
        )
        return 1

    exact_fig3 = anycast_penalty_ccdf(matrix.dataset)
    sketch_fig3 = anycast_penalty_ccdf(sketch_dataset)
    for threshold, exact_fraction in exact_fig3.fraction_slower[
        WORLD
    ].items():
        sketch_fraction = sketch_fig3.fraction_slower[WORLD][threshold]
        if abs(sketch_fraction - exact_fraction) > args.sketch_tolerance:
            print(
                f"FAIL: Fig 3 world fraction >= {threshold:.0f}ms drifted "
                f"{exact_fraction:.3f} -> {sketch_fraction:.3f} in sketch "
                f"mode (tolerance {args.sketch_tolerance})"
            )
            return 1
    exact_fig5 = poor_path_prevalence(matrix.dataset)
    sketch_fig5 = poor_path_prevalence(sketch_dataset)
    for threshold in exact_fig5.thresholds:
        exact_fraction = exact_fig5.mean_fraction(threshold)
        sketch_fraction = sketch_fig5.mean_fraction(threshold)
        if abs(sketch_fraction - exact_fraction) > args.sketch_tolerance:
            print(
                f"FAIL: Fig 5 fraction >= {threshold:.0f}ms drifted "
                f"{exact_fraction:.3f} -> {sketch_fraction:.3f} in sketch "
                f"mode (tolerance {args.sketch_tolerance})"
            )
            return 1
    print(
        f"  sketch (threshold {args.sketch_threshold}): serial == 2-worker "
        "digest: ok"
    )
    print(
        f"  sketch Fig 3 + Fig 5 fractions within "
        f"{args.sketch_tolerance} of exact: ok "
        f"(peak traced memory {sketch_probe.peak_bytes / 1e6:.1f} MB)"
    )

    # ------------------------------------------------------------------
    # Load leg: finite front-end capacity with a live overload drill must
    # not slow the hot path — the schedule is computed once at setup and
    # folded as per-day extras, so campaign/day throughput should be
    # within noise of the capacity-off run measured the same way.
    load_config = CampaignConfig(
        engine="matrix",
        frontend_capacity=1.5,
        overload_plan=OverloadPlan.from_spec("flash-crowd:1,drain:1"),
        load_policy="fastroute",
    )
    load = _TimedRun(scenario, load_config)
    if load.dataset.load_summary is None:
        print("FAIL: capacity-enabled run produced no load summary")
        return 1
    load_sharded = ParallelCampaignRunner(
        scenario, load_config, workers=2
    ).run()
    if load_sharded.digest() != load.dataset.digest():
        print("FAIL: load-leg serial and 2-worker digests diverged")
        return 1
    load_ratio = load.day_rate / matrix.day_rate
    print(
        f"  load leg (capacity 1.5x, fastroute, flash-crowd+drain): "
        f"campaign/day {load.day_rate:9,.0f} beacons/s, "
        f"{load_ratio:.2f}x of capacity-off "
        f"({matrix.day_rate:,.0f} beacons/s; floor "
        f"{1.0 - args.max_load_overhead:.0%}); setup "
        f"{load.setup_seconds:.3f}s vs {matrix.setup_seconds:.3f}s "
        "capacity-off"
    )
    if load_ratio < 1.0 - args.max_load_overhead:
        print(
            f"FAIL: capacity-enabled campaign/day path ran more than "
            f"{args.max_load_overhead:.0%} below the capacity-off rate"
        )
        return 1
    print("  load leg serial == 2-worker digest + load summary: ok")

    # ------------------------------------------------------------------
    # Memory leg: bounded-mode peak memory must not grow super-linearly
    # in the population.
    memory_leg = None
    if args.memory_populations:
        try:
            small_pop, large_pop = (
                int(part) for part in args.memory_populations.split(",")
            )
        except ValueError:
            print(
                "FAIL: --memory-populations must be two comma-separated "
                f"integers, got {args.memory_populations!r}"
            )
            return 1
        if not 0 < small_pop < large_pop:
            print(
                "FAIL: --memory-populations must be increasing and "
                f"positive, got {args.memory_populations!r}"
            )
            return 1
        peaks = {}
        for prefixes in (small_pop, large_pop):
            mem_scenario = Scenario.build(
                ScenarioConfig(
                    seed=args.seed,
                    population=ClientPopulationConfig(
                        prefix_count=prefixes
                    ),
                    calendar=SimulationCalendar(num_days=2),
                )
            )
            with MemoryProbe() as probe:
                CampaignRunner(mem_scenario, sketch_config).run()
            peaks[prefixes] = probe.peak_bytes
        pop_ratio = large_pop / small_pop
        peak_ratio = peaks[large_pop] / peaks[small_pop]
        limit = pop_ratio * args.memory_slack
        memory_leg = {
            "populations": [small_pop, large_pop],
            "peak_traced_bytes": {
                str(pop): peak for pop, peak in peaks.items()
            },
            "peak_ratio": peak_ratio,
            "limit": limit,
        }
        if peak_ratio > limit:
            print(
                f"FAIL: sketch-mode peak memory grew {peak_ratio:.2f}x "
                f"from {small_pop} to {large_pop} prefixes (limit "
                f"{limit:.2f}x = {pop_ratio:.1f}x population x "
                f"{args.memory_slack} slack)"
            )
            return 1
        print(
            f"  memory ({small_pop} -> {large_pop} prefixes): peak "
            f"{peaks[small_pop] / 1e6:.1f} MB -> "
            f"{peaks[large_pop] / 1e6:.1f} MB "
            f"({peak_ratio:.2f}x <= {limit:.2f}x): ok"
        )

    if args.rss_manifest_out:
        write_run_manifest(
            args.rss_manifest_out,
            matrix.snapshot,
            dataset=matrix.dataset,
            extra={
                "peak_traced_bytes": {
                    "reference": reference.peak,
                    "matrix": matrix.peak,
                    "sketch": sketch_probe.peak_bytes,
                },
                "peak_rss_bytes": peak_rss_bytes(),
                "sketch_threshold": args.sketch_threshold,
                "memory_leg": memory_leg,
                "digest_leg": {
                    "digest_seconds": digest_seconds,
                    "peak_traced_bytes": digest_probe.peak_bytes,
                    "campaign_seconds": matrix.seconds,
                    "ratio": digest_ratio,
                    "limit": MAX_DIGEST_RATIO,
                },
                "ingest_leg": {
                    "ingest_seconds": ingest_seconds,
                    "events": ingest.events_total,
                    "peak_traced_bytes": ingest_probe.peak_bytes,
                    "campaign_seconds": matrix.seconds,
                    "ratio": ingest_ratio,
                    "limit": MAX_INGEST_RATIO,
                },
                "export_leg": {
                    "export_seconds": export_seconds,
                    "export_bytes": export_bytes,
                    "peak_traced_bytes": export_probe.peak_bytes,
                    "campaign_seconds": matrix.seconds,
                    "ratio": export_ratio,
                    "limit": MAX_EXPORT_RATIO,
                },
            },
        )
        print(f"  wrote memory manifest to {args.rss_manifest_out}")

    if args.fault_plan:
        chaos_runner = ParallelCampaignRunner(
            scenario,
            CampaignConfig(
                engine="matrix",
                fault_plan=FaultPlan.from_spec(args.fault_plan),
                max_retries=3,
                retry_backoff_seconds=0.0,
            ),
            workers=2,
        )
        chaos_dataset = chaos_runner.run()
        chaos_snapshot = chaos_runner.telemetry.snapshot()
        if args.fault_manifest_out:
            write_run_manifest(
                args.fault_manifest_out,
                chaos_snapshot,
                dataset=chaos_dataset,
                extra={
                    "fault_plan": args.fault_plan,
                    "fired_faults": [
                        list(point) for point in chaos_runner.fired_faults
                    ],
                },
            )
            print(f"  wrote chaos manifest to {args.fault_manifest_out}")
        if chaos_dataset.digest() != matrix_digest:
            print(
                f"FAIL: fault plan {args.fault_plan!r} survived retries but "
                "produced a different digest than the fault-free run"
            )
            return 1
        print(
            f"  chaos ({args.fault_plan}): fired "
            f"{chaos_snapshot.counters.get('faults.injected_total', 0):.0f} "
            "faults, retried digest == clean digest: ok"
        )
    elif args.fault_manifest_out:
        print("FAIL: --fault-manifest-out requires --fault-plan")
        return 1

    if args.dirty_plan:
        dirty_plan = FaultPlan.from_spec(args.dirty_plan)
        dirty_config = CampaignConfig(
            engine="matrix",
            fault_plan=dirty_plan,
            validation="lenient",
        )
        dirty_runner = CampaignRunner(scenario, dirty_config)
        dirty_dataset = dirty_runner.run()
        quarantine = dirty_runner.quarantine
        dirty_snapshot = dirty_runner.telemetry.snapshot()
        planted = int(
            dirty_snapshot.counters.get("faults.records_planted_total", 0)
        )
        if planted == 0:
            print(
                f"FAIL: dirty plan {args.dirty_plan!r} planted no records "
                "(the chaos leg asserted nothing)"
            )
            return 1
        clean_count = matrix.dataset.measurement_count
        dirty_count = dirty_dataset.measurement_count
        if clean_count != dirty_count + quarantine.dropped:
            print(
                "FAIL: quarantine identity broken: clean measurements "
                f"({clean_count:,}) != dirty ({dirty_count:,}) + "
                f"quarantined dropped ({quarantine.dropped:,})"
            )
            return 1

        dirty_sharded_runner = ParallelCampaignRunner(
            scenario, dirty_config, workers=2
        )
        dirty_sharded = dirty_sharded_runner.run()
        if dirty_sharded.digest() != dirty_dataset.digest():
            print("FAIL: dirty serial and 2-worker digests diverged")
            return 1
        if dirty_sharded_runner.quarantine.digest() != quarantine.digest():
            print(
                "FAIL: dirty serial and 2-worker quarantine logs diverged"
            )
            return 1

        ref_dirty_runner = CampaignRunner(
            scenario,
            CampaignConfig(
                engine="reference",
                fault_plan=dirty_plan,
                validation="lenient",
            ),
        )
        ref_dirty_runner.run()
        if ref_dirty_runner.quarantine.counts != quarantine.counts:
            print(
                "FAIL: reference and matrix engines quarantined "
                f"different records ({ref_dirty_runner.quarantine.counts} "
                f"vs {quarantine.counts})"
            )
            return 1

        # Torn-tail recovery: export the dirty dataset through the framed
        # writer, rip the tail off, and salvage what survived.
        with tempfile.TemporaryDirectory(prefix="perf-smoke-") as tmpdir:
            dirty_path = os.path.join(tmpdir, "dirty-dataset.json")
            save_dataset(dirty_dataset, dirty_path)
            size = os.path.getsize(dirty_path)
            with open(dirty_path, "r+b") as handle:
                handle.truncate(size - 200)
            recovered, recovery = recover_dataset(dirty_path)
        if recovery.report.complete:
            print(
                "FAIL: torn-tail export still reported a complete recovery"
            )
            return 1
        if recovered.beacon_count != dirty_dataset.beacon_count:
            print(
                "FAIL: torn-tail recovery lost client records "
                f"({recovered.beacon_count:,} of "
                f"{dirty_dataset.beacon_count:,} beacons)"
            )
            return 1

        if args.dirty_manifest_out:
            write_run_manifest(
                args.dirty_manifest_out,
                dirty_snapshot,
                dataset=dirty_dataset,
                extra={
                    "dirty_plan": args.dirty_plan,
                    "records_planted": planted,
                    "quarantine": quarantine.summary(),
                    "quarantine_digest": quarantine.digest(),
                    "torn_tail_recovery": recovery.to_obj(),
                },
            )
            print(f"  wrote dirty-data manifest to {args.dirty_manifest_out}")

        print(
            f"  dirty ({args.dirty_plan}): planted {planted} records, "
            f"quarantined {quarantine.total} "
            f"({dict(sorted(quarantine.counts.items()))})"
        )
        print("  clean == dirty + quarantined measurement identity: ok")
        print("  dirty serial == 2-worker digest + quarantine digest: ok")
        print("  reference == matrix quarantine counts: ok")
        print(
            "  torn-tail recovery: salvaged "
            f"{recovery.recovered_measurement_count:,}/"
            f"{recovery.claimed_measurement_count:,} measurements: ok"
        )
    elif args.dirty_manifest_out:
        print("FAIL: --dirty-manifest-out requires --dirty-plan")
        return 1

    if args.history_out:
        # Seed the perf-history ledger so tools/bench_history.py has a
        # record per engine leg even on a job's very first run.
        history = BenchHistory.load(args.history_out)
        legs = (
            ("reference", reference),
            ("matrix", matrix),
            ("matrix-load", load),
        )
        for engine, run in legs:
            history.append(
                record_from_snapshot(
                    run.snapshot,
                    "perf-smoke",
                    engine=engine,
                    dataset=run.dataset,
                )
            )
        history.save(args.history_out)
        print(
            f"  appended {len(legs)} perf-history records to "
            f"{args.history_out} ({len(history.records)} total)"
        )

    if speedup < args.min_speedup:
        print(
            f"FAIL: matrix engine only {speedup:.2f}x over reference "
            f"(required >= {args.min_speedup:.1f}x)"
        )
        return 1
    if digest_ratio > MAX_DIGEST_RATIO:
        print(
            f"FAIL: dataset digest took {digest_ratio:.2f}x the matrix "
            f"campaign's wall time (limit {MAX_DIGEST_RATIO:.2f}x)"
        )
        return 1
    if ingest_ratio > MAX_INGEST_RATIO:
        print(
            f"FAIL: service replay took {ingest_ratio:.2f}x the matrix "
            f"campaign's wall time (limit {MAX_INGEST_RATIO:.2f}x)"
        )
        return 1
    if export_ratio > MAX_EXPORT_RATIO:
        print(
            f"FAIL: dataset save + load took {export_ratio:.2f}x the "
            f"matrix campaign's wall time (limit {MAX_EXPORT_RATIO:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
