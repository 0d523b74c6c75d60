"""Layer wrappers for traced benchmark runs.

A traced command runs in-process after :meth:`Tracer.install`, which
wraps the program's public functions by name:

* :data:`SPAN_LAYERS` get one span per call (name, start, end, parent),
  kept in memory and written out when the command ends;
* :data:`ACCUMULATED_LAYERS` are the per-event calls of the service
  loop, where a span per call would cost more than the call.  Each
  keeps a running ``perf_counter_ns`` sum and a call count instead.

A wrapped name that no longer exists at the commit under test (a
deleted module, a renamed method) is recorded as absent rather than
failing the run, so the same benchmark measures commits before and
after a layer is removed.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer name, module, qualified attribute) wrapped with one span per call.
SPAN_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.scenario.build", "repro.simulation.scenario", "Scenario.build"),
    ("simulation.campaign", "repro.simulation.parallel", "ParallelCampaignRunner.run"),
    ("simulation.dataset.digest", "repro.simulation.dataset", "StudyDataset.digest"),
    ("measurement.export.save", "repro.measurement.export", "save_dataset"),
    ("measurement.storage.write", "repro.measurement.storage", "write_segment_file"),
    ("measurement.columnar.write", "repro.measurement.columnar", "write_sidecar"),
    ("measurement.columnar.fingerprint", "repro.measurement.columnar", "file_fingerprint"),
    ("measurement.export.load", "repro.measurement.export", "load_dataset"),
    ("measurement.columnar.load", "repro.measurement.columnar", "load_sidecar"),
    ("measurement.storage.read", "repro.measurement.storage", "read_segment_text"),
    ("telemetry.manifest", "repro.telemetry.report", "write_run_manifest"),
    ("analysis.fig3", "repro.analysis.anycast_perf", "anycast_penalty_ccdf"),
    ("analysis.fig5", "repro.analysis.poor_paths", "poor_path_prevalence"),
    ("analysis.fig6", "repro.analysis.poor_paths", "poor_path_duration"),
    ("analysis.fig9", "repro.analysis.prediction_eval", "evaluate_prediction"),
    ("analysis.report.build_comparison", "repro.analysis.report", "build_comparison"),
    ("service.replay.events", "repro.service.replay", "events_from_dataset"),
    ("service.replay.dirty", "repro.service.replay", "dirty_events"),
    ("service.ingest.run", "repro.service.ingest", "LiveService.run_stream"),
)

#: ``AnycastStudy.figN_*`` methods each get a ``core.study.figN`` span.
STUDY_FIGURES = tuple(
    (f"core.study.fig{n}", "repro.core.study", "AnycastStudy", f"fig{n}_")
    for n in range(1, 10)
)

#: (layer name, module, qualified attribute) wrapped with an accumulator.
#: Two targets may share a layer name; their sums and counts add up.
ACCUMULATED_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("measurement.validate.admit", "repro.measurement.validate", "ValidationGate.admit"),
    ("measurement.validate.admit", "repro.measurement.validate", "ValidationGate.admit_count"),
    ("service.window.observe", "repro.service.window", "PredictionWindow.observe"),
    ("service.events.digest_update", "repro.service.events", "StreamDigest.update"),
    ("service.predictor.close_day", "repro.service.predictor", "OnlinePredictor.close_day"),
)

#: Accumulated layers whose ``None`` return means "refused".
COUNTS_ADMITTED = frozenset({"measurement.validate.admit"})

Span = Tuple[int, str, int, int, int]  # id, name, start_ns, end_ns, parent id (-1: none)
AfterHook = Callable[["Tracer", tuple, Any], None]


def _resolve(module_name: str, qualname: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw value)`` for a name, or ``None`` if absent."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        raw = owner.__dict__.get(attribute)
    else:
        raw = getattr(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


def _patch(owner: Any, attribute: str, raw: Any, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attribute`` (and every module alias of it) by its wrapper."""
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attribute, type(raw)(wrap(raw.__func__)))
        return
    wrapped = wrap(raw)
    setattr(owner, attribute, wrapped)
    if inspect.isclass(owner):
        return
    # ``from module import name`` copies the function into the importer.
    for name, module in list(sys.modules.items()):
        if not (name.startswith("repro") or name == "__main__") or module is None:
            continue
        for alias, value in list(vars(module).items()):
            if value is raw:
                setattr(module, alias, wrapped)


def _output_bytes(path: str) -> int:
    """Bytes on disk of an export and every file beside it sharing its name."""
    return sum(os.path.getsize(p) for p in glob.glob(glob.escape(path) + "*"))


def _after_campaign(tracer: "Tracer", args: tuple, result: Any) -> None:
    stats = getattr(args[0], "stats", None)
    if stats is None:
        return
    tracer.add("simulation.campaign.beacons", stats.beacon_count)
    cache = stats.path_cache
    tracer.add("simulation.campaign.path_cache_hits", cache.anycast_hits)
    tracer.add(
        "simulation.campaign.path_cache_lookups",
        cache.anycast_hits + cache.anycast_misses,
    )


def _after_save(tracer: "Tracer", args: tuple, result: Any) -> None:
    dataset, path = args[0], args[1]
    if isinstance(path, str):
        tracer.add("measurement.export.bytes", _output_bytes(path))
    summary = getattr(dataset, "load_summary", None) or {}
    days = summary.get("days", [])
    tracer.add("cdn.load.shed_days", sum(1 for d in days if d.get("shedding_frontends")))
    tracer.add("cdn.load.withdrawn_days", sum(1 for d in days if d.get("withdrawn")))


def _after_run_stream(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("service.ingest.events", result.events_total)


AFTER_HOOKS: Dict[str, AfterHook] = {
    "simulation.campaign": _after_campaign,
    "measurement.export.save": _after_save,
    "service.ingest.run": _after_run_stream,
}


def accumulator_cost_ns(calls: int = 100_000) -> float:
    """Per-call cost an accumulator wrapper adds, measured on a no-op
    method shaped like ``ValidationGate.admit(day, key, frontend, rtt)``."""

    class Bare:
        def admit(self, day: int, key: str, frontend: int, rtt: float) -> float:
            return rtt

    class Wrapped(Bare):
        pass

    Wrapped.admit = Tracer(-1)._accumulator_wrapper("calibration")(Bare.admit)  # type: ignore[method-assign]
    clock = time.perf_counter_ns
    timings = []
    for probe in (Bare(), Wrapped()):
        started = clock()
        for i in range(calls):
            probe.admit(i, "key", -1, 1.0)
        timings.append(clock() - started)
    return max(0.0, (timings[1] - timings[0]) / calls)


class Tracer:
    """In-memory spans, accumulators and counts of one traced command."""

    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: layer -> [busy ns, calls, calls admitted]
        self.accumulators: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = {}
        self.absent: List[str] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def top_span(self, name: str, started_ns: int, ended_ns: int) -> None:
        """Record a top-level span measured outside a wrapper (the import)."""
        self.spans.append((len(self.spans), name, started_ns, ended_ns, -1))

    def _span_wrapper(self, name: str, after: Optional[AfterHook]) -> Callable[[Callable], Callable]:
        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id = len(self.spans)
                self.spans.append(None)
                parent = self._stack[-1] if self._stack else -1
                self._stack.append(span_id)
                started = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ended = time.perf_counter_ns()
                    self._stack.pop()
                    self.spans[span_id] = (span_id, name, started, ended, parent)
                if after is not None:
                    after(self, args, result)
                return result

            return wrapper

        return wrap

    def _accumulator_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        slot = self.accumulators.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns
        admitted = name in COUNTS_ADMITTED

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                started = clock()
                result = fn(*args, **kwargs)
                slot[0] += clock() - started
                slot[1] += 1
                if admitted and result is not None:
                    slot[2] += 1
                return result

            return wrapper

        return wrap

    def preload(self) -> None:
        """Import every module a layer lives in, so the import span has them."""
        modules = {entry[1] for entry in SPAN_LAYERS + ACCUMULATED_LAYERS}
        for module in sorted(modules) + [STUDY_FIGURES[0][1]]:
            try:
                importlib.import_module(module)
            except ImportError:
                pass

    def install(self) -> None:
        """Wrap every layer that exists; record the rest as absent."""
        for name, module, qualname in SPAN_LAYERS:
            target = _resolve(module, qualname)
            if target is None:
                self.absent.append(name)
                continue
            _patch(*target, self._span_wrapper(name, AFTER_HOOKS.get(name)))
        for name, module, cls_name, prefix in STUDY_FIGURES:
            owner = _resolve(module, cls_name)
            methods = [] if owner is None else [
                attr for attr in vars(owner[2]) if attr.startswith(prefix)
            ]
            if not methods:
                self.absent.append(name)
            for attr in methods:
                _patch(owner[2], attr, vars(owner[2])[attr], self._span_wrapper(name, None))
        for name, module, qualname in ACCUMULATED_LAYERS:
            target = _resolve(module, qualname)
            if target is None:
                self.absent.append(name)
                continue
            _patch(*target, self._accumulator_wrapper(name))

    def to_obj(self) -> Dict[str, Any]:
        calls = sum(slot[1] for slot in self.accumulators.values())
        return {
            "invocation": self.invocation,
            "spans": [span for span in self.spans if span is not None],
            "accumulators": self.accumulators,
            "counts": self.counts,
            "absent": sorted(set(self.absent)),
            "accumulator_overhead_ns": calls * accumulator_cost_ns(),
        }
