"""Command-level benchmark of the anycast-CDN reproduction.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs the program's own commands (``repro run``,
``repro analyze``, ``repro replay``, and the ``make_experiments`` study
path) as child processes of this one, one at a time at ``--workers 1``,
repeating them until ``--seconds`` have passed.  Every repetition's
outputs are checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced repetition and then traced ones, and
reports the per-layer metrics (see ``layers.py``).  The last line of
standard output is one JSON object; the lines above it name every
metric with its unit.  ``--workload all`` runs every workload in turn.

All inputs are generated from ``--seed`` by the program under test,
inside ``.perfbench_work/`` of the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(HERE, "launch.py")

#: The whole run stops (and fails) after this many seconds.
RUN_LIMIT_S = 170.0
#: Fresh-process set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Repetitions measured even past ``--seconds``: the cross-repetition
#: output checks need two.
MIN_REPETITIONS = 2
MB = 1024.0 * 1024.0
#: Iterations of the host-speed probe; about one second on a quiet host.
SPEED_PROBE_LOOPS = 6_000_000


def host_speed_probe() -> float:
    """Seconds a fixed interpreter-bound loop takes right now.

    Shared hosts run every process 0-70 % slower for seconds to minutes
    at a time.  Each timing is divided by the mean of the probes taken
    just before and just after it, which turns it into seconds on a
    host where this probe takes exactly one second.
    """
    started = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(SPEED_PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - started


class BenchTimeout(Exception):
    """The run exceeded :data:`RUN_LIMIT_S`."""


class ProgramMissing(Exception):
    """The checkout holds no program to measure."""


@dataclass
class Proc:
    """One finished child process."""

    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    started_ns: int
    ended_ns: int
    trace: Optional[Dict[str, Any]] = None
    #: Raised, exited non-zero, or failed an output check.
    failed: bool = False


@dataclass
class Rep:
    """One repetition of a workload: its timed commands and facts."""

    traced: bool
    #: Host-speed probe taken just before the repetition (and after it).
    speed: List[float] = field(default_factory=list)
    procs: List[Proc] = field(default_factory=list)
    facts: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def norm_wall_s(self) -> float:
        """Wall time scaled to a host where the speed probe takes 1 s."""
        return self.wall_s / statistics.mean(self.speed)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    def wall(self, label: str) -> float:
        return sum(p.wall_s for p in self.procs if p.label == label)


def _on_alarm(signum: int, frame: Any) -> None:
    raise BenchTimeout(f"run exceeded {RUN_LIMIT_S:.0f} s")


class Bench:
    """Runs child processes, counts attempts and failures."""

    def __init__(self, seed: int, started: float) -> None:
        self.seed = seed
        self.limit = started + RUN_LIMIT_S
        self.attempted = 0
        self.invocations = 0
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = WORK
        self.env = env

    def path(self, *parts: str) -> str:
        return os.path.join(WORK, *parts)

    def execute(self, label: str, argv: Sequence[str]) -> Proc:
        """Run one child to completion; wall from spawn to reap."""
        out_path = self.path(f"{label}.stdout")
        err_path = self.path(f"{label}.stderr")
        remaining = self.limit - time.monotonic()
        if remaining <= 0:
            raise BenchTimeout(f"no time left for {label}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter_ns()
            child = subprocess.Popen(
                list(argv), stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ended = time.perf_counter_ns()
        child.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return Proc(
            label=label,
            wall_s=(ended - started) / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=child.returncode,
            stdout=stdout,
            stderr=stderr,
            started_ns=started,
            ended_ns=ended,
        )

    def helper(self, label: str, args: Sequence[str]) -> Dict[str, Any]:
        """Run an untimed launcher command (set-up, check); return its result."""
        result = self.path(f"{label}.result.json")
        proc = self.execute(
            label, [sys.executable, LAUNCH, "--result", result, *args]
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        with open(result, encoding="utf-8") as handle:
            return json.load(handle)

    def command(
        self, rep: Rep, label: str, argv: Sequence[str], launcher: bool
    ) -> Proc:
        """Run one timed command of a repetition, traced if the rep is.

        ``argv`` is a ``repro`` CLI command line when ``launcher`` is
        false, else launcher arguments.
        """
        self.attempted += 1
        self.invocations += 1
        trace_path = self.path(f"{label}.trace.json")
        prefix: List[str] = [sys.executable, LAUNCH]
        if rep.traced:
            prefix += ["--trace", trace_path, "--invocation", str(self.invocations)]
        if launcher:
            full = prefix + list(argv)
        elif rep.traced:
            full = prefix + ["cli", *argv]
        else:
            full = [sys.executable, "-m", "repro", *argv]
        proc = self.execute(label, full)
        rep.procs.append(proc)
        if proc.returncode != 0:
            self.fail(proc, f"exited {proc.returncode}: {proc.stderr[-500:]}")
        elif rep.traced:
            try:
                with open(trace_path, encoding="utf-8") as handle:
                    proc.trace = json.load(handle)
            except (OSError, ValueError) as error:
                self.fail(proc, f"wrote no trace ({error})")
        return proc

    def fail(self, proc: Proc, message: str) -> None:
        proc.failed = True
        print(f"FAILED {proc.label}: {message}", file=sys.stderr)

    def check(self, ok: bool, proc: Proc, message: str) -> bool:
        if not ok:
            self.fail(proc, message)
        return ok


def _clean(directory: str) -> str:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    return directory


def _bytes_under(directory: str) -> int:
    return sum(
        os.path.getsize(path)
        for path in glob.glob(os.path.join(directory, "*"))
        if os.path.isfile(path)
    )


def _manifest(bench: "Bench", proc: Proc, export: str) -> Optional[Dict[str, Any]]:
    """The run manifest written beside ``export``; a failure if unreadable."""
    stem = export[: -len(".json")] if export.endswith(".json") else export
    try:
        with open(stem + ".manifest.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        bench.fail(proc, f"no readable run manifest ({error})")
        return None


def _digest_lines(stdout: str) -> Dict[str, str]:
    found = {}
    for line in stdout.splitlines():
        head, _, value = line.partition(":")
        if head.endswith(" digest"):
            found[head[: -len(" digest")].strip()] = value.strip()
    return found


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """A named set of commands repeated for the run's duration."""

    name = ""
    #: (prefixes, days, engine) of the set-up probe; prefixes 0 = import only.
    probe = (0, 1, "matrix")

    def prepare(self, bench: Bench) -> None:
        """Generate inputs with the program under test (untimed)."""

    def repetition(self, bench: Bench, rep: Rep) -> None:
        raise NotImplementedError

    def across(self, bench: Bench, reps: List[Rep]) -> None:
        """Checks that compare repetitions with each other."""

    def headline(self, reps: List[Rep]) -> Dict[str, tuple]:
        """Per-command figures printed by name: name -> (value, unit)."""
        return {}


def _same_fact(bench: Bench, reps: List[Rep], key: str, what: str) -> None:
    reps = [rep for rep in reps if key in rep.facts]
    for index, rep in enumerate(reps[1:], start=1):
        bench.check(
            rep.facts[key] == reps[0].facts[key],
            rep.procs[0],
            f"{what} differs in repetition {index}",
        )


class RunAnalyze(Workload):
    name = "run-analyze"
    prefixes, days = 1000, 4
    probe = (prefixes, days, "matrix")

    def prepare(self, bench: Bench) -> None:
        self.count = 0

    def repetition(self, bench: Bench, rep: Rep) -> None:
        self.count += 1
        directory = _clean(bench.path("run-analyze", f"rep{self.count}"))
        export = os.path.join(directory, "export.json")
        run = bench.command(rep, "run", [
            "run", "--engine", "matrix", "--prefixes", str(self.prefixes),
            "--days", str(self.days), "--seed", str(bench.seed),
            "--workers", "1", export,
        ], launcher=False)
        manifest = _manifest(bench, run, export) if run.returncode == 0 else None
        if manifest is None:
            return
        rep.facts.update(
            export=export,
            export_bytes=_bytes_under(directory),
            digest=manifest.get("dataset_digest"),
            beacons=manifest.get("beacon_count", 0),
        )
        analyze = bench.command(rep, "analyze", [
            "analyze", export, "--figures", "fig3", "fig5", "fig6", "fig9",
        ], launcher=False)
        bench.check(
            analyze.returncode != 0 or "Fig" in analyze.stdout,
            analyze,
            "printed no figure",
        )

    def across(self, bench: Bench, reps: List[Rep]) -> None:
        """Each export, loaded back, must hash to its manifest's digest.

        Runs once after the timed loop so that one process loads every
        repetition's export.
        """
        checked = [rep for rep in reps if "export" in rep.facts]
        if checked:
            loaded = bench.helper(
                "export-digest",
                ["export-digest", *(rep.facts["export"] for rep in checked)],
            )["digests"]
            for rep, digest in zip(checked, loaded):
                bench.check(
                    digest == rep.facts["digest"],
                    rep.procs[0],
                    "loaded export digest != manifest dataset_digest",
                )
        _same_fact(bench, reps, "digest", "dataset digest")

    def headline(self, reps: List[Rep]) -> Dict[str, tuple]:
        return {
            "run_s": (statistics.median(r.wall("run") for r in reps), "s"),
            "analyze_s": (statistics.median(r.wall("analyze") for r in reps), "s"),
            "export_mb": (reps[0].facts.get("export_bytes", 0) / MB, "MB"),
        }


class PaperClaims(Workload):
    name = "paper-claims"
    prefixes, days = 1500, 28
    probe = (prefixes, days, "matrix")

    def repetition(self, bench: Bench, rep: Rep) -> None:
        result = bench.path("claims.result.json")
        proc = bench.command(rep, "claims", [
            "--result", result, "claims", "--seed", str(bench.seed),
            "--prefixes", str(self.prefixes), "--days", str(self.days),
            "--engine", "matrix",
        ], launcher=True)
        if proc.returncode != 0:
            return
        with open(result, encoding="utf-8") as handle:
            claims = json.load(handle)
        rep.facts["verdicts"] = claims["verdicts"]
        rep.facts["reproduced"] = claims["reproduced"]
        rep.facts["beacons"] = claims["beacons"]
        bench.check(claims["banded"] > 0, proc, "no banded claims")

    def across(self, bench: Bench, reps: List[Rep]) -> None:
        _same_fact(bench, reps, "verdicts", "claim verdict vector")

    def headline(self, reps: List[Rep]) -> Dict[str, tuple]:
        return {
            "claims_s": (statistics.median(r.wall("claims") for r in reps), "s"),
            "claims_reproduced": (reps[0].facts.get("reproduced", 0), "count"),
        }


class Replay(Workload):
    name = "replay"
    prefixes, days = 600, 2
    probe = (0, 1, "matrix")

    def prepare(self, bench: Bench) -> None:
        directory = _clean(bench.path("replay"))
        self.export = os.path.join(directory, "input.json")
        proc = bench.execute("replay-input", [
            sys.executable, "-m", "repro", "run", "--engine", "matrix",
            "--prefixes", str(self.prefixes), "--days", str(self.days),
            "--seed", str(bench.seed), "--workers", "1", self.export,
        ])
        manifest = _manifest(bench, proc, self.export) if proc.returncode == 0 else None
        if manifest is None:
            raise RuntimeError(f"replay input: {proc.stderr[-2000:]}")
        self.beacons = manifest.get("beacon_count", 0)
        self.batch = bench.helper("batch-digest", ["batch-digest", self.export])["digest"]

    def repetition(self, bench: Bench, rep: Rep) -> None:
        proc = bench.command(rep, "replay", [
            "replay", self.export, "--seed", str(bench.seed),
        ], launcher=False)
        if proc.returncode != 0:
            return
        rep.facts["beacons"] = self.beacons
        digests = _digest_lines(proc.stdout)
        rep.facts["stream"] = digests.get("stream")
        rep.facts["quarantine"] = digests.get("quarantine")
        bench.check(
            digests.get("predictions") == self.batch,
            proc,
            "online predictions digest != batch HistoryBasedPredictor digest",
        )

    def across(self, bench: Bench, reps: List[Rep]) -> None:
        _same_fact(bench, reps, "stream", "stream digest")
        _same_fact(bench, reps, "quarantine", "quarantine digest")

    def headline(self, reps: List[Rep]) -> Dict[str, tuple]:
        return {"replay_s": (statistics.median(r.wall("replay") for r in reps), "s")}


class DrillReference(Workload):
    name = "drill-reference"
    prefixes, days = 200, 5
    probe = (prefixes, days, "reference")

    def repetition(self, bench: Bench, rep: Rep) -> None:
        directory = _clean(bench.path("drill"))
        export = os.path.join(directory, "drill.json")
        proc = bench.command(rep, "drill", [
            "run", "--engine", "reference", "--prefixes", str(self.prefixes),
            "--days", str(self.days), "--seed", str(bench.seed),
            "--workers", "1", "--frontend-capacity", "1.25",
            "--overload-plan", "flash-crowd:1@1,drain:1@3",
            "--load-policy", "fastroute", export,
        ], launcher=False)
        manifest = _manifest(bench, proc, export) if proc.returncode == 0 else None
        if manifest is None:
            return
        days = (manifest.get("load") or {}).get("days", [])
        rep.facts["digest"] = manifest.get("dataset_digest")
        rep.facts["beacons"] = manifest.get("beacon_count", 0)
        shed = sum(1 for d in days if d.get("shedding_frontends"))
        withdrawn = sum(1 for d in days if d.get("withdrawn"))
        bench.check(shed >= 1, proc, "fastroute drill shed on no day")
        bench.check(withdrawn == 0, proc, f"fastroute drill withdrew on {withdrawn} days")

    def across(self, bench: Bench, reps: List[Rep]) -> None:
        _same_fact(bench, reps, "digest", "drill dataset digest")

    def headline(self, reps: List[Rep]) -> Dict[str, tuple]:
        return {"drill_s": (statistics.median(r.wall("drill") for r in reps), "s")}


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w for w in (RunAnalyze, PaperClaims, Replay, DrillReference)
}


# ----------------------------------------------------------------------
# Per-layer metrics from traces
# ----------------------------------------------------------------------

def _layer_names() -> tuple:
    spans = sorted({name for name, _, _ in layers.SPAN_LAYERS})
    figures = [name for name, *_ in layers.STUDY_FIGURES]
    accumulated = sorted({name for name, _, _ in layers.ACCUMULATED_LAYERS})
    return spans, figures, accumulated


#: Spans whose top-level time is the post-campaign dataset I/O.
DATASET_IO = (
    "simulation.dataset.digest",
    "measurement.export.save",
    "telemetry.manifest",
    "measurement.export.load",
)


def _self_times(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time: span duration minus what its children cover."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    totals: Dict[str, float] = {}
    for span in spans:
        covered, cursor = 0, span[2]
        for child in sorted(children.get(span[0], []), key=lambda c: c[2]):
            start, end = max(child[2], cursor), min(child[3], span[3])
            if end > start:
                covered += end - start
                cursor = end
        totals[span[1]] = totals.get(span[1], 0.0) + (span[3] - span[2] - covered) / 1e9
    return totals


def _rep_self_times(rep: Rep) -> Dict[str, float]:
    """Self time per layer, summed over a repetition's processes."""
    totals: Dict[str, float] = {}
    for proc in rep.procs:
        for name, value in _self_times((proc.trace or {}).get("spans", [])).items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def trace_metrics(rep: Rep, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (all its processes)."""
    span_names, figures, accumulated = _layer_names()
    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    acc: Dict[str, List[int]] = {}
    absent: set = set()
    unaccounted = io_top = overhead_ns = 0.0
    for proc in rep.procs:
        trace = proc.trace or {"spans": [], "accumulators": {}, "counts": {}, "absent": []}
        top = 0.0
        for _, name, start, end, parent in trace["spans"]:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e9
            calls[name] = calls.get(name, 0) + 1
            if parent == -1:
                top += (end - start) / 1e9
                if name in DATASET_IO:
                    io_top += (end - start) / 1e9
        unaccounted += proc.wall_s - top
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, slot in trace["accumulators"].items():
            total = acc.setdefault(name, [0, 0, 0])
            for i, value in enumerate(slot):
                total[i] += value
        absent.update(trace["absent"])
        overhead_ns += trace.get("accumulator_overhead_ns", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {"import_s": inclusive.get("import", 0.0)}
    for name in span_names + figures:
        metrics[f"{name}_s"] = inclusive.get(name, 0.0)
    for name in accumulated:
        ns, n, _ = acc.get(name, [0, 0, 0])
        metrics[f"{name}_s"] = ns / 1e9
        metrics[f"{name}_calls"] = n
    admit = acc.get("measurement.validate.admit", [0, 0, 0])
    metrics.update({
        "simulation.campaign.beacons_per_s": ratio(
            counts.get("simulation.campaign.beacons", 0),
            inclusive.get("simulation.campaign", 0.0)),
        "simulation.campaign.path_cache_hit_ratio": ratio(
            counts.get("simulation.campaign.path_cache_hits", 0),
            counts.get("simulation.campaign.path_cache_lookups", 0)),
        "simulation.dataset.digest_calls": calls.get("simulation.dataset.digest", 0),
        "measurement.export.bytes": counts.get("measurement.export.bytes", 0),
        "measurement.columnar.hit_ratio": ratio(
            counts.get("measurement.columnar.sidecar_hits", 0),
            counts.get("measurement.columnar.sidecar_hits", 0)
            + counts.get("measurement.columnar.sidecar_fallbacks", 0)),
        "service.ingest.events_per_s": ratio(
            counts.get("service.ingest.events", 0),
            inclusive.get("service.ingest.run", 0.0)),
        "measurement.validate.admitted_ratio": ratio(admit[2], admit[1]),
        "cdn.load.shed_days": counts.get("cdn.load.shed_days", 0),
        "cdn.load.withdrawn_days": counts.get("cdn.load.withdrawn_days", 0),
        "analysis.report.claims_reproduced": rep.facts.get("reproduced", 0),
        "dataset_io_share": ratio(io_top, rep.wall_s),
        "unaccounted_s": unaccounted,
        "unaccounted_share": ratio(unaccounted, rep.wall_s),
        "trace_overhead_s": rep.norm_wall_s - untraced_wall,
        "host.speed_probe_s": statistics.mean(rep.speed),
        "trace.accumulator_overhead_s": overhead_ns / 1e9,
        "trace.absent_layers": len(absent),
    })
    return metrics


def per_layer_units(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------


def measure_setup(bench: Bench, workload: Workload) -> float:
    """Median of fresh-process set-up probes, speed-normalized.

    One untimed import first compiles the bytecode cache, which a
    user's first command pays once.
    """
    prefixes, days, engine = workload.probe
    args = ["setup", "--seed", str(bench.seed), "--prefixes", str(prefixes),
            "--days", str(days), "--engine", engine]
    bench.helper("warm-import", ["setup", "--seed", str(bench.seed)])
    speed = [host_speed_probe()]
    samples = []
    for _ in range(SETUP_PROBES):
        probe = bench.helper("setup-probe", args)
        samples.append(probe["import_s"] + probe["build_s"])
    speed.append(host_speed_probe())
    return statistics.median(samples) / statistics.mean(speed)


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, started: float
) -> Dict[str, Any]:
    bench = Bench(seed, started)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise ProgramMissing(f"no program under {os.path.join(ROOT, 'src')}")
    os.makedirs(WORK, exist_ok=True)
    setup_s = measure_setup(bench, workload)
    workload.prepare(bench)
    print(f"[{workload.name}] set-up done; measuring for {seconds:g} s", file=sys.stderr)
    reps: List[Rep] = []
    speed = host_speed_probe()

    def repeat(traced_rep: bool) -> None:
        nonlocal speed
        reps.append(Rep(traced=traced_rep, speed=[speed]))
        workload.repetition(bench, reps[-1])
        speed = host_speed_probe()
        reps[-1].speed.append(speed)

    if traced:
        repeat(False)
    deadline = time.monotonic() + seconds
    while (
        len(reps) < MIN_REPETITIONS
        or not any(r.traced == traced for r in reps)
        or time.monotonic() < deadline
    ):
        repeat(traced)
    workload.across(bench, reps)
    measured = [r for r in reps if r.traced == traced and r.procs]

    lines: Dict[str, tuple] = {}
    if traced:
        untraced = statistics.median(r.norm_wall_s for r in reps if not r.traced)
        per_rep = [trace_metrics(r, untraced) for r in measured]
        metrics = {
            name: (statistics.median(m[name] for m in per_rep), per_layer_units(name))
            for name in per_rep[0]
        }
        self_times = [_rep_self_times(r) for r in measured]
        for name in sorted({n for times in self_times for n in times}):
            value = statistics.median(times.get(name, 0.0) for times in self_times)
            lines[f"self {name}"] = (value, "s")
        _write_trace_file(workload, seed, measured)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "norm_wall_s": (statistics.median(r.norm_wall_s for r in measured), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in measured), "MB"),
        }
        lines.update(workload.headline(measured))
        lines["wall_s"] = (statistics.median(r.wall_s for r in measured), "s")
        lines["cpu_s"] = (statistics.median(r.cpu_s for r in measured), "s")
        lines["host_probe_s"] = (statistics.median(
            p for r in measured for p in r.speed), "s")
        print(f"[{workload.name}] repetition walls (s): "
              f"{[round(r.wall_s, 3) for r in measured]}", file=sys.stderr)
        lines["beacons"] = (measured[0].facts.get("beacons", 0), "count")
    failed = sum(p.failed for r in reps for p in r.procs)
    lines["failed_frac"] = (failed / max(1, bench.attempted), "ratio")
    lines.update(metrics)
    print(f"[{workload.name}] seed {seed}: {len(measured)} "
          f"{'traced ' if traced else ''}repetitions, medians")
    for name, (value, unit) in lines.items():
        print(f"[{workload.name}] {name} = {value:.6g} {unit}")
    _cleanup()
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def _write_trace_file(workload: Workload, seed: int, reps: List[Rep]) -> None:
    """Write every traced invocation's spans, with self times, at run end."""
    invocations = []
    for rep in reps:
        for proc in rep.procs:
            trace = dict(proc.trace or {})
            trace["command"] = proc.label
            trace["process"] = [proc.started_ns, proc.ended_ns]
            trace["self_s"] = _self_times(trace.get("spans", []))
            invocations.append(trace)
    path = os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "invocations": invocations}, handle)
    print(f"[{workload.name}] spans written to {os.path.relpath(path, ROOT)}",
          file=sys.stderr)


def _cleanup() -> None:
    """Drop the run's exports and logs; keep trace files."""
    for path in glob.glob(os.path.join(WORK, "*")):
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif not os.path.basename(path).startswith("trace-"):
            os.remove(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                WORKLOADS[name](), args.seed, args.seconds, bool(args.trace),
                time.monotonic() if args.workload == "all" else started,
            )
    except (ProgramMissing, BenchTimeout, RuntimeError, OSError) as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        _cleanup()
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": v for w, r in results.items()
                        for n, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
