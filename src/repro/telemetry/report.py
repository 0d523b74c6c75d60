"""Run reports and run manifests: telemetry for humans and for CI.

Two renderings of a :class:`~repro.telemetry.snapshot.TelemetrySnapshot`:

* :func:`format_run_report` — the ``repro telemetry`` CLI's output: the
  hierarchical phase-time tree (with each phase's share of its parent
  and the tree's coverage of the root), the top counters, histogram
  percentiles, and gauges.
* :func:`build_run_manifest` / :func:`write_run_manifest` — a compact
  JSON manifest (seed, config digest, engine, dataset digest, per-phase
  seconds) written alongside every exported dataset and benchmark
  report, so a result file is self-describing: which configuration
  produced it, and where its wall-clock went.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.registry import Histogram
from repro.telemetry.snapshot import TelemetrySnapshot

#: Format marker written into every manifest.
MANIFEST_FORMAT_VERSION = 1

#: Counters the report surfaces first, then the rest by value.
_HEADLINE_COUNTERS = (
    "campaign.beacons_total",
    "campaign.measurements_total",
    "campaign.queries_total",
)


def _rebuild_histogram(name: str, state: Dict[str, Any]) -> Histogram:
    histogram = Histogram(
        name,
        start=state["start"],
        growth=state["growth"],
        bucket_count=state["bucket_count"],
    )
    histogram.absorb(state["counts"], state["sum"], state["observations"])
    return histogram


def _render_span_tree(
    snapshot: TelemetrySnapshot,
    path: str,
    depth: int,
    parent_seconds: Optional[float],
    lines: List[str],
) -> None:
    record = snapshot.spans[path]
    name = path.rsplit("/", 1)[-1]
    share = (
        f"{record.seconds / parent_seconds:6.1%}"
        if parent_seconds and parent_seconds > 0
        else "      "
    )
    count = f"x{record.count}" if record.count > 1 else ""
    lines.append(
        f"  {'  ' * depth}{name:<{max(28 - 2 * depth, 8)}s}"
        f"{record.seconds:9.3f}s  {share}  {count}"
    )
    for child_path, _ in snapshot.span_children(path):
        _render_span_tree(
            snapshot, child_path, depth + 1, record.seconds, lines
        )


def format_run_report(snapshot: TelemetrySnapshot, top: int = 12) -> str:
    """Pretty-print a snapshot: phase tree, counters, percentiles."""
    context = snapshot.context
    header_bits = [
        f"{key}={context[key]}"
        for key in ("seed", "engine", "workers", "config_hash")
        if key in context and context[key] != ""
    ]
    lines = ["run report" + (": " + " ".join(header_bits) if header_bits else "")]

    if snapshot.spans:
        lines.append("")
        lines.append("phase tree (seconds sum across shards):")
        for root_path, root in snapshot.span_roots():
            _render_span_tree(snapshot, root_path, 0, None, lines)
            if snapshot.span_children(root_path):
                lines.append(
                    f"  {root_path}: children cover "
                    f"{snapshot.phase_coverage(root_path):.1%} of "
                    f"{root.seconds:.3f}s"
                )

    if snapshot.counters:
        lines.append("")
        lines.append("top counters:")
        ordered = [
            name for name in _HEADLINE_COUNTERS if name in snapshot.counters
        ]
        ordered += sorted(
            (n for n in snapshot.counters if n not in _HEADLINE_COUNTERS),
            key=lambda n: (-snapshot.counters[n], n),
        )
        for name in ordered[:top]:
            lines.append(f"  {name:<44s}{snapshot.counters[name]:>16,.0f}")
        if len(ordered) > top:
            lines.append(f"  ... and {len(ordered) - top} more")

    if snapshot.histograms:
        lines.append("")
        lines.append("histograms (p50 / p90 / p99):")
        for name in sorted(snapshot.histograms):
            histogram = _rebuild_histogram(name, snapshot.histograms[name])
            if histogram.count == 0:
                continue
            p50, p90, p99 = (
                histogram.percentile(q) for q in (50.0, 90.0, 99.0)
            )
            mean = histogram.sum / histogram.count
            lines.append(
                f"  {name:<36s} n={histogram.count:<9,d} "
                f"mean={mean:10.4g}  p50={p50:10.4g}  "
                f"p90={p90:10.4g}  p99={p99:10.4g}"
            )

    if snapshot.gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(snapshot.gauges):
            lines.append(
                f"  {name:<44s}{snapshot.gauges[name]['value']:>16.4g}"
            )

    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------


def manifest_path_for(artifact_path: str) -> str:
    """The manifest path accompanying a dataset/report file."""
    for suffix in (".json", ".txt"):
        if artifact_path.endswith(suffix):
            return artifact_path[: -len(suffix)] + ".manifest.json"
    return artifact_path + ".manifest.json"


def build_run_manifest(
    snapshot: TelemetrySnapshot,
    dataset: Optional[object] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the self-describing run manifest for a snapshot.

    Args:
        snapshot: The run's merged telemetry.
        dataset: Optional :class:`~repro.simulation.dataset
            .StudyDataset`; contributes its canonical ``digest()`` and
            counts.
        extra: Additional fields to record verbatim (e.g. the artifact
            the manifest accompanies).
    """
    context = snapshot.context
    manifest: Dict[str, Any] = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "seed": context.get("seed"),
        "engine": context.get("engine"),
        "workers": context.get("workers"),
        "config_hash": context.get("config_hash"),
        "beacon_count": int(
            snapshot.counters.get("campaign.beacons_total", 0)
        ),
        "measurement_count": int(
            snapshot.counters.get("campaign.measurements_total", 0)
        ),
        "wall_seconds": snapshot.gauges.get(
            "campaign.wall_seconds", {}
        ).get("value"),
        "phase_seconds": {
            path: record.seconds
            for path, record in sorted(snapshot.spans.items())
        },
        "phase_coverage": {
            path: snapshot.phase_coverage(path)
            for path, _ in snapshot.span_roots()
        },
    }
    if snapshot.trace is not None and snapshot.trace.events:
        manifest["trace"] = {
            "event_count": len(snapshot.trace.events),
            "lanes": sorted(
                {event.shard for event in snapshot.trace.events}
            ),
            "digest": snapshot.trace.digest(),
        }
    if "validate.records_total" in snapshot.counters:
        reason_prefix = "validate.quarantined."
        manifest["validation"] = {
            "records_total": int(
                snapshot.counters["validate.records_total"]
            ),
            "quarantined_total": int(
                snapshot.counters.get("validate.quarantined_total", 0)
            ),
            "repaired_total": int(
                snapshot.counters.get("validate.repaired_total", 0)
            ),
            "quarantined_by_reason": {
                name[len(reason_prefix):-len("_total")]: int(value)
                for name, value in sorted(snapshot.counters.items())
                if name.startswith(reason_prefix)
            },
        }
    if dataset is not None:
        manifest["dataset_digest"] = dataset.digest()
        manifest["dataset_beacon_count"] = dataset.beacon_count
        manifest["dataset_measurement_count"] = dataset.measurement_count
        # Degradation record: a campaign that lost shards (allow_partial)
        # declares exactly which client index ranges are absent, so a
        # partial artifact can never pass as a complete one.
        missing = getattr(dataset, "missing_ranges", None)
        if callable(missing):
            manifest["missing_client_ranges"] = [
                [start, stop] for start, stop in missing()
            ]
            manifest["client_coverage"] = dataset.coverage_fraction
        # Load-management record: per-front-end peak utilization and
        # shed fractions, withdrawal days, and the overload drills that
        # ran — present only for capacity-enabled campaigns.
        load_summary = getattr(dataset, "load_summary", None)
        if load_summary is not None:
            manifest["load"] = load_summary
    if extra:
        manifest.update(extra)
    return manifest


def write_run_manifest(
    path: str,
    snapshot: TelemetrySnapshot,
    dataset: Optional[object] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write :func:`build_run_manifest`'s output as JSON; returns it."""
    manifest = build_run_manifest(snapshot, dataset=dataset, extra=extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest
