"""One benchmark process: a program command, a set-up probe or a check.

Usage::

    python perfbench/launch.py [--trace FILE --invocation N] [--result FILE]
        {cli ARGS... | claims | setup | export-digest PATH... | batch-digest PATH}

``cli`` runs ``repro.cli.main(ARGS)`` in this process (the untraced
benchmark runs ``python -m repro ARGS`` instead); ``claims`` is the
``tools/make_experiments.py`` path without writing EXPERIMENTS.md;
``setup`` times the ``repro`` import and ``Scenario.build``; the two
digest commands are output checks.  With ``--trace`` the program's
layers are wrapped (see ``layers.py``) and the spans, accumulators and
counts are written to FILE when the command ends.

The program is imported from ``src/`` of the checkout this file sits
in; nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import Tracer  # noqa: E402


def _scenario_config(args: argparse.Namespace):
    from repro.clients.population import ClientPopulationConfig
    from repro.simulation.clock import SimulationCalendar
    from repro.simulation.scenario import ScenarioConfig

    return ScenarioConfig(
        seed=args.seed,
        population=ClientPopulationConfig(prefix_count=args.prefixes),
        calendar=SimulationCalendar(num_days=args.days),
        workers=1,
        engine=args.engine,
    )


def cmd_setup(args: argparse.Namespace) -> Dict[str, Any]:
    """Fixed cost before the first unit of work: import, scenario build."""
    started = time.perf_counter()
    import repro.cli  # noqa: F401
    from repro.simulation.scenario import Scenario

    imported = time.perf_counter()
    if args.prefixes:
        Scenario.build(_scenario_config(args))
    built = time.perf_counter()
    return {"import_s": imported - started, "build_s": built - imported}


def cmd_claims(args: argparse.Namespace) -> Dict[str, Any]:
    """Paper-scale study plus the banded claim table, no file written."""
    from repro.analysis.report import build_comparison
    from repro.core.study import AnycastStudy

    study = AnycastStudy(_scenario_config(args))
    study.dataset
    rows = build_comparison(study)
    verdicts = [
        [row.experiment, row.metric, row.within_band]
        for row in rows
        if row.within_band is not None
    ]
    return {
        "verdicts": verdicts,
        "reproduced": sum(1 for v in verdicts if v[2]),
        "banded": len(verdicts),
        "beacons": study.dataset.beacon_count,
    }


def cmd_export_digest(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.measurement.export import load_dataset

    return {"digests": [load_dataset(path).digest() for path in args.paths]}


def cmd_batch_digest(args: argparse.Namespace) -> Dict[str, Any]:
    """Batch §6 predictions over an export: the online predictor's oracle."""
    from repro.core.predictor import HistoryBasedPredictor
    from repro.measurement.export import load_dataset
    from repro.service.predictor import predictions_digest

    dataset = load_dataset(args.path)
    batch = HistoryBasedPredictor()
    by_day = {
        day: {
            "ecs": batch.predict_day(dataset.ecs_aggregates, day),
            "ldns": batch.predict_day(dataset.ldns_aggregates, day),
        }
        for day in range(dataset.calendar.num_days)
    }
    return {"digest": predictions_digest(by_day)}


def _sidecar_counts(tracer: Tracer) -> None:
    try:
        from repro.measurement.columnar import sidecar_stats
    except ImportError:
        return
    for key, value in sidecar_stats().items():
        tracer.add(f"measurement.columnar.{key}", value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", help="write spans and counts to this file")
    parser.add_argument("--invocation", type=int, default=0)
    parser.add_argument("--result", help="write the command's result JSON here")
    sub = parser.add_subparsers(dest="command", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    for name in ("claims", "setup"):
        scaled = sub.add_parser(name)
        scaled.add_argument("--seed", type=int, required=True)
        scaled.add_argument("--prefixes", type=int, default=0)
        scaled.add_argument("--days", type=int, default=1)
        scaled.add_argument("--engine", default="matrix")
    sub.add_parser("export-digest").add_argument("paths", nargs="+")
    sub.add_parser("batch-digest").add_argument("path")
    return parser


COMMANDS = {
    "setup": cmd_setup,
    "claims": cmd_claims,
    "export-digest": cmd_export_digest,
    "batch-digest": cmd_batch_digest,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tracer = Tracer(args.invocation) if args.trace else None
    started = time.perf_counter_ns()
    if args.command == "cli":
        import repro.cli

        body = functools.partial(repro.cli.main, args.argv)
    else:
        body = functools.partial(COMMANDS[args.command], args)
    if tracer is not None:
        tracer.preload()
        tracer.top_span("import", started, time.perf_counter_ns())
        tracer.install()
    outcome = body()
    if tracer is not None:
        _sidecar_counts(tracer)
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_obj(), handle)
    if args.command == "cli":
        return int(outcome or 0)
    if args.result:
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
