"""CI memory smoke: bounded campaigns must have flat peak memory.

The constant-memory contract of sketch mode is that peak memory is a
function of the *shape* of a campaign (prefixes x days x targets), not
of how many client queries flow through it.  This gate holds the shape
fixed and scales the simulated client load (daily query volume) across
two sizes — by default 100k vs 300k aggregate clients — then fails
(exit code 1) unless the larger run's peak traced memory stays within
``--slack`` of the smaller run's.  An exact-mode campaign retains every
sample, so its memory grows linearly with the same knob; pass
``--with-exact`` to record that contrast in the manifest (it is
reported, not gated, to keep the gate's runtime bounded).

Memory is measured two ways, both recorded in the ``--manifest-out``
manifest:

* ``tracemalloc`` peak per campaign (the gated signal — restartable,
  so both sizes are measured in one process), and
* ``resource.getrusage`` peak RSS (the OS view — monotonic per
  process, so it is recorded as context, not gated).

Usage::

    PYTHONPATH=src python tools/memory_smoke.py \\
        [--clients 100000,300000] [--slack 0.15] \\
        [--manifest-out memory-manifest.json]
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.clients.population import ClientPopulationConfig
from repro.clients.workload import WorkloadConfig
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import MemoryProbe, peak_rss_bytes, write_run_manifest


def _scenario(clients: int, prefixes: int, days: int, seed: int) -> Scenario:
    """A campaign whose per-/24 query volume scales with ``clients``.

    The prefix count (and so the digest count) is held fixed; only the
    simulated client load behind each /24 grows.  The per-day beacon cap
    is lifted far above the scaled volume so the load knob actually
    reaches the measurement path.
    """
    volume = max(1.0, clients / prefixes)
    return Scenario.build(
        ScenarioConfig(
            seed=seed,
            population=ClientPopulationConfig(
                prefix_count=prefixes,
                volume_median_queries=volume,
            ),
            workload=WorkloadConfig(max_beacons_per_day=1_000_000),
            calendar=SimulationCalendar(num_days=days),
        )
    )


def _probed_run(scenario: Scenario, config: CampaignConfig):
    """Run one campaign under a tracemalloc window."""
    runner = CampaignRunner(scenario, config)
    with MemoryProbe() as probe:
        dataset = runner.run()
    return dataset, probe.peak_bytes, runner.telemetry.snapshot()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", default="100000,300000", metavar="A,B",
        help="two aggregate client-load sizes to compare",
    )
    parser.add_argument(
        "--prefixes", type=int, default=150,
        help="client /24 count, held fixed across both sizes",
    )
    parser.add_argument("--days", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--sketch-threshold", type=int, default=32, metavar="N",
        help="per-digest exact-sample budget for the bounded campaigns",
    )
    parser.add_argument(
        "--sketch-max-buckets", type=int, default=32, metavar="N",
        help=(
            "per-sketch bucket cap for the bounded campaigns; kept low "
            "here (vs the library default 512) so the cap actually "
            "binds and the flat-memory contract is exercised"
        ),
    )
    parser.add_argument(
        "--slack", type=float, default=0.15, metavar="FRAC",
        help=(
            "allowed growth of the larger run's peak over the smaller "
            "run's (0.15 = within 15%%)"
        ),
    )
    parser.add_argument(
        "--with-exact", action="store_true",
        help=(
            "also run exact-mode campaigns at both sizes and record "
            "their (linearly growing) peaks in the manifest"
        ),
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH",
        help="write the memory accounting manifest here",
    )
    args = parser.parse_args(argv)

    try:
        small, large = (int(part) for part in args.clients.split(","))
    except ValueError:
        print(
            "FAIL: --clients must be two comma-separated integers, got "
            f"{args.clients!r}"
        )
        return 1
    if not 0 < small < large:
        print(f"FAIL: --clients must be increasing, got {args.clients!r}")
        return 1

    sketch_config = CampaignConfig(
        engine="matrix",
        sketch_threshold=args.sketch_threshold,
        sketch_max_buckets=args.sketch_max_buckets,
    )
    results = {}
    last_snapshot = None
    last_dataset = None
    for clients in (small, large):
        scenario = _scenario(clients, args.prefixes, args.days, args.seed)
        dataset, peak, snapshot = _probed_run(scenario, sketch_config)
        results[clients] = {
            "peak_traced_bytes": peak,
            "measurements": dataset.measurement_count,
        }
        last_snapshot, last_dataset = snapshot, dataset
        print(
            f"  sketch @ {clients:>9,} clients: "
            f"{dataset.measurement_count:>10,} measurements, "
            f"peak traced {peak / 1e6:7.1f} MB"
        )

    # The load knob must have actually scaled the workload, or the gate
    # would pass vacuously.
    growth = (
        results[large]["measurements"] / results[small]["measurements"]
    )
    if growth < 1.5:
        print(
            f"FAIL: large run only produced {growth:.2f}x the "
            "measurements of the small run; the client-load knob is not "
            "reaching the measurement path"
        )
        return 1

    exact_results = None
    if args.with_exact:
        exact_results = {}
        exact_config = CampaignConfig(engine="matrix")
        for clients in (small, large):
            scenario = _scenario(
                clients, args.prefixes, args.days, args.seed
            )
            dataset, peak, _ = _probed_run(scenario, exact_config)
            exact_results[clients] = {
                "peak_traced_bytes": peak,
                "measurements": dataset.measurement_count,
            }
            print(
                f"  exact  @ {clients:>9,} clients: "
                f"{dataset.measurement_count:>10,} measurements, "
                f"peak traced {peak / 1e6:7.1f} MB"
            )

    peak_ratio = (
        results[large]["peak_traced_bytes"]
        / results[small]["peak_traced_bytes"]
    )
    limit = 1.0 + args.slack
    verdict = {
        "clients": [small, large],
        "prefixes": args.prefixes,
        "days": args.days,
        "sketch_threshold": args.sketch_threshold,
        "sketch_max_buckets": args.sketch_max_buckets,
        "measurement_growth": growth,
        "peak_ratio": peak_ratio,
        "limit": limit,
        "sketch": {str(k): v for k, v in results.items()},
        "exact": (
            {str(k): v for k, v in exact_results.items()}
            if exact_results
            else None
        ),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if args.manifest_out:
        write_run_manifest(
            args.manifest_out,
            last_snapshot,
            dataset=last_dataset,
            extra={"memory_smoke": verdict},
        )
        print(f"  wrote memory manifest to {args.manifest_out}")

    if peak_ratio > limit:
        print(
            f"FAIL: sketch-mode peak memory grew {peak_ratio:.3f}x from "
            f"{small:,} to {large:,} clients ({growth:.1f}x the "
            f"measurements); flat-memory limit is {limit:.2f}x"
        )
        return 1
    print(
        f"memory smoke: peak {peak_ratio:.3f}x across a {growth:.1f}x "
        f"load increase (limit {limit:.2f}x): ok"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
