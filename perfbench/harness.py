"""Measured and traced runs of one workload, and the metrics they report.

:func:`run_benchmark` is the whole benchmark for one workload and seed;
``run.py`` is its command line.  README.md explains the metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from hostspeed import slowdown
from spans import LAYERS, PROBE_SPAN, traced
from workloads import percentiles, shuffle_by_stage

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"

#: Replays per measured run: at least the first, at most the second,
#: and as many in between as fit ``--seconds``.
MIN_REPLAYS = 3
MAX_REPLAYS = 12

#: Seconds of operations between two host-speed measurements.
CHUNK_S = 0.1

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "max_abs_err": "abs",
    "peak_rss_mb": "MB",
}

#: Stage labels of the jobs the two build workloads run; shuffle bytes of
#: any other label are reported under ``other``.
STAGE_LABELS = (
    "dgreedy.averages",
    "dgreedy.histograms",
    "dgreedy.construct",
    "conventional.con",
    "dindirect.upper_bound",
    "dindirect.lower_bound",
    "dp.bottom_up",
    "dp.traceback",
    "other",
)

#: Per-layer metrics (``--trace 1``) and their units; README.md says which
#: end-to-end metric each should move, on which workload.
PER_LAYER = {
    "mapreduce.serde.record_size_calls": "count",
    "mapreduce.serde.record_size_s": "s",
    "mapreduce.runtime.jobs": "count",
    "mapreduce.runtime.self_s": "s",
    "mapreduce.map.task_s": "s",
    "mapreduce.reduce.task_s": "s",
    "mapreduce.shuffle.records": "count",
    "mapreduce.shuffle.s": "s",
    "mapreduce.shuffle.bytes": "bytes",
    **{f"mapreduce.shuffle.bytes.{label}": "bytes" for label in STAGE_LABELS},
    "mapreduce.cluster.sim_s": "s",
    "core.dgreedy.histogram_records": "count",
    "core.thresholding.build_synopsis_self_s": "s",
    "core.dp_framework.bottom_up_s": "s",
    "core.dp_framework.top_down_s": "s",
    "algos.greedy_abs.runs": "count",
    "algos.greedy_abs.s": "s",
    "algos.minhaarspace.combine_calls": "count",
    "algos.minhaarspace.combine_s": "s",
    "algos.minhaarspace.row_entries": "count",
    "algos.indirect_haar.probes": "count",
    "serving.store.batch_s": "s",
    "serving.store.batch_self_s": "s",
    "serving.store.snapshot_calls": "count",
    "serving.store.append_s": "s",
    "serving.store.create_s": "s",
    "serving.cache.hits": "count",
    "serving.cache.misses": "count",
    "serving.cache.evictions": "count",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.reconstruct_calls": "count",
    "serving.cache.reconstruct_s": "s",
    "serving.incremental.build_s": "s",
    "serving.incremental.reused_subtrees": "count",
    "serving.incremental.total_subtrees": "count",
    "serving.incremental.full_rebuilds": "count",
    "wavelet.synopsis.range_sum_calls": "count",
    "wavelet.synopsis.range_sum_s": "s",
    "mapreduce.layer_self_s": "s",
    "core.layer_self_s": "s",
    "algos.layer_self_s": "s",
    "serving.layer_self_s": "s",
    "wavelet.layer_self_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "s",
}


@dataclass
class Sample:
    """One timed interval: raw wall seconds, the host's slowdown over it, the work done."""

    raw: float
    slowdown: float
    work: float = 0.0

    @property
    def corrected(self) -> float:
        """Seconds at the nominal host speed (see hostspeed.py)."""
        return self.raw / self.slowdown

    @staticmethod
    def total(samples: list["Sample"]) -> "Sample":
        """One sample spanning ``samples`` back to back."""
        raw = sum(s.raw for s in samples)
        return Sample(raw, raw / sum(s.corrected for s in samples), sum(s.work for s in samples))


def timed(action: Any) -> tuple[Any, Sample]:
    """Run ``action()`` between two host-speed measurements."""
    before = slowdown()
    start = time.perf_counter()
    result = action()
    raw = time.perf_counter() - start
    return result, Sample(raw, (before + slowdown()) / 2)


def loop(run: Any, ops: int) -> list[Sample]:
    """Drive ``run`` closed-loop for ``ops`` operations, or until it runs out of room.

    The host speed is measured between chunks of about :data:`CHUNK_S`
    seconds of operations, and every operation of a chunk is corrected by
    the mean of the measurements on either side.  An operation that raises
    is counted by the run and the loop goes on (its traceback goes to
    standard error).
    """
    samples: list[Sample] = []
    chunk: list[tuple[float, float]] = []
    before = slowdown()
    started = time.perf_counter()
    for _ in range(ops):
        if not run.has_room():
            break
        try:
            chunk.append(run.op())
        except Exception:
            traceback.print_exc()
        if time.perf_counter() - started >= CHUNK_S:
            after = slowdown()
            samples += [Sample(raw, (before + after) / 2, work) for raw, work in chunk]
            chunk, before, started = [], after, time.perf_counter()
    if chunk:
        after = slowdown()
        samples += [Sample(raw, (before + after) / 2, work) for raw, work in chunk]
    return samples


def report_checks(checked: Any) -> None:
    ratio = checked.failed / checked.attempted if checked.attempted else 0.0
    print(
        f"checks: attempted={checked.attempted} failed={checked.failed} "
        f"fail_ratio={ratio:.6f}"
    )
    for problem in checked.problems[:20]:
        print(f"  FAILED {problem}")


def replay(workload: Any, seed: int) -> tuple[Any, Sample, list[Sample]]:
    """One set-up and the run's fixed sequence of operations.

    Returns the run, the set-up's sample and every operation's sample.  A
    build workload is servable once every input has its synopsis, so its
    set-up spans the input generation and every build.
    """
    run, setup = timed(lambda: workload.setup(seed))
    samples = loop(run, workload.ops)
    if workload.ops_in_setup:
        setup = Sample.total([setup, *samples])
    return run, setup, samples


def measure(workload: Any, seed: int, seconds: float) -> tuple[Any, dict[str, float]]:
    """The end-to-end run: replays of one seed's work for ``seconds``.

    Each replay is a fresh set-up followed by the same fixed sequence of
    operations; replays go on until ``seconds`` have passed, and there are
    at least :data:`MIN_REPLAYS`.  Times are in seconds at the nominal
    host speed.  ``setup_s`` is the median of the set-ups.  Each
    operation's time is its median over the replays, and ``work_per_s``
    is the work of one replay over the sum of those medians, so an
    operation that one replay ran in a slow spell of the host does not
    count.  The outputs of every replay are checked after the last one,
    outside the timed region.
    """
    runs: list[Any] = []
    setups: list[Sample] = []
    replays: list[list[Sample]] = []
    start = time.perf_counter()
    while len(runs) < MIN_REPLAYS or (
        time.perf_counter() - start < seconds and len(runs) < MAX_REPLAYS
    ):
        run, setup, ops = replay(workload, seed)
        if runs:
            run.release()
        runs.append(run)
        setups.append(setup)
        replays.append(ops)
        if len(runs) == MIN_REPLAYS:
            # Peak memory of the first replays, so that it does not depend
            # on how many replays the host's speed lets fit; the first
            # three already hold the kept first replay next to a running one.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [sample for ops in replays for sample in ops]
    # Replays make the same operations, so column k holds operation k of
    # every replay.  An operation that raised leaves its replay short, and
    # the checks count it as failed.
    columns = list(zip(*replays))
    checked = workload.check(runs)
    if not columns:
        report_checks(checked)
        sys.exit("perfbench: a replay completed no operation")
    print(f"{len(runs)} replays of one set-up plus {workload.ops} operations")
    print(
        "setup_s samples (corrected / raw): "
        + ", ".join(f"{s.corrected:.4f}/{s.raw:.4f}" for s in setups)
    )
    print(
        f"host slowdown: median {statistics.median(s.slowdown for s in samples):.3f}, "
        f"range {min(s.slowdown for s in samples):.3f}-{max(s.slowdown for s in samples):.3f}"
    )
    print(f"op latency (raw): {percentiles([s.raw for s in samples])}")
    print(f"op latency (corrected): {percentiles([s.corrected for s in samples])}")
    for line in runs[0].describe():
        print(line)
    OUT.mkdir(exist_ok=True)
    (OUT / f"samples-{workload.name}-seed{seed}.json").write_text(
        json.dumps(
            {
                "setups": [vars(s) for s in setups],
                "replays": [[vars(s) for s in ops] for ops in replays],
            }
        )
    )
    metrics = {
        "setup_s": statistics.median(s.corrected for s in setups),
        "work_per_s": sum(column[0].work for column in columns)
        / sum(statistics.median(s.corrected for s in column) for column in columns),
        "max_abs_err": checked.max_abs_err,
        "peak_rss_mb": peak_rss_mb,
    }
    return checked, metrics


def per_layer(tracer: Any, run: Any, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass (names and units: BENCHMARK.json)."""
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s

    def c(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    stage_bytes = dict.fromkeys(STAGE_LABELS, 0)
    shuffle_records = histogram_records = 0
    sim_s = 0.0
    for log in run.logs():
        sim_s += log.simulated_seconds
        for label, entry in shuffle_by_stage(log).items():
            key = label if label in stage_bytes else "other"
            stage_bytes[key] += entry["bytes"]
            shuffle_records += entry["records"]
            if label == "dgreedy.histograms":
                histogram_records += entry["map_records"]
    counters = run.counters()
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    layers = tracer.layer_self_s()
    metrics: dict[str, float] = {
        "mapreduce.serde.record_size_calls": c("mapreduce.serde.record_size"),
        "mapreduce.serde.record_size_s": t("mapreduce.serde.record_size"),
        "mapreduce.runtime.jobs": c("mapreduce.runtime.run"),
        "mapreduce.runtime.self_s": own.get("mapreduce.runtime.run", 0.0),
        "mapreduce.map.task_s": t("mapreduce.map.task"),
        "mapreduce.reduce.task_s": t("mapreduce.reduce.task"),
        "mapreduce.shuffle.records": shuffle_records,
        "mapreduce.shuffle.s": t("mapreduce.shuffle.add") + t("mapreduce.shuffle.partitions"),
        "mapreduce.shuffle.bytes": sum(stage_bytes.values()),
        **{f"mapreduce.shuffle.bytes.{label}": b for label, b in stage_bytes.items()},
        "mapreduce.cluster.sim_s": sim_s,
        "core.dgreedy.histogram_records": histogram_records,
        "core.thresholding.build_synopsis_self_s": own.get(
            "core.thresholding.build_synopsis", 0.0
        ),
        "core.dp_framework.bottom_up_s": t("core.dp_framework.bottom_up"),
        "core.dp_framework.top_down_s": t("core.dp_framework.top_down"),
        "algos.greedy_abs.runs": c("algos.greedy_abs.run"),
        "algos.greedy_abs.s": t("algos.greedy_abs.run"),
        "algos.minhaarspace.combine_calls": c("algos.minhaarspace.combine_rows"),
        "algos.minhaarspace.combine_s": t("algos.minhaarspace.combine_rows"),
        "algos.minhaarspace.row_entries": tracer.counts.get(
            "algos.minhaarspace.row_entries", 0
        ),
        "algos.indirect_haar.probes": c(PROBE_SPAN),
        "serving.store.batch_s": t("serving.store.batch"),
        "serving.store.batch_self_s": own.get("serving.store.batch", 0.0),
        "serving.store.snapshot_calls": c("serving.store.snapshot"),
        "serving.store.append_s": t("serving.store.append"),
        "serving.store.create_s": t("serving.store.create"),
        "serving.cache.hits": hits,
        "serving.cache.misses": misses,
        "serving.cache.evictions": counters.get("cache_evictions", 0),
        "serving.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.cache.reconstruct_calls": c("serving.cache.reconstruct"),
        "serving.cache.reconstruct_s": t("serving.cache.reconstruct"),
        "serving.incremental.build_s": t("serving.incremental.build"),
        "serving.incremental.reused_subtrees": tracer.counts.get(
            "serving.incremental.reused_subtrees", 0
        ),
        "serving.incremental.total_subtrees": tracer.counts.get(
            "serving.incremental.total_subtrees", 0
        ),
        "serving.incremental.full_rebuilds": tracer.counts.get(
            "serving.incremental.full_rebuilds", 0
        ),
        "wavelet.synopsis.range_sum_calls": c("wavelet.synopsis.range_sum"),
        "wavelet.synopsis.range_sum_s": t("wavelet.synopsis.range_sum"),
        **{f"{layer}.layer_self_s": layers.get(layer, 0.0) for layer in LAYERS},
        "traced_wall_s": traced_wall,
        "unattributed_s": traced_wall - sum(layers.values()),
        "trace_overhead": traced_wall - untraced_wall,
    }
    return metrics


def print_table(tracer: Any, traced_wall: float, untraced_wall: float) -> None:
    """The traced pass's time by layer, then by span, ending in ``unattributed``."""
    print(f"{'layer / span':44} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}")
    layers = tracer.layer_self_s()
    for layer, seconds in layers.items():
        print(f"{layer:44} {'':>9} {'':>10} {seconds:10.4f} {seconds / traced_wall:7.1%}")
        for name in sorted(n for n in tracer.calls if n.split(".", 1)[0] == layer):
            print(
                f"  {name:42} {tracer.calls[name]:9d} {tracer.total_s[name]:10.4f} "
                f"{tracer.self_s[name]:10.4f} {tracer.self_s[name] / traced_wall:7.1%}"
            )
    unattributed = traced_wall - sum(layers.values())
    share = unattributed / traced_wall
    print(f"{'unattributed':44} {'':>9} {'':>10} {unattributed:10.4f} {share:7.1%}")
    print(f"{'traced wall':44} {'':>9} {traced_wall:10.4f}")
    overhead = traced_wall - untraced_wall
    print(
        f"trace overhead: {overhead:.4f}s ({overhead / untraced_wall:.1%} of the "
        f"untraced {untraced_wall:.4f}s)"
    )


def timed_pass(workload: Any, seed: int) -> tuple[Any, float]:
    """One set-up plus the run's operations; returns the run and its raw wall seconds.

    No host-speed measurement interrupts the pass, so that the traced
    table accounts for all of its wall time.
    """
    start = time.perf_counter()
    run = workload.setup(seed)
    for _ in range(workload.ops):
        if not run.has_room():
            break
        try:
            run.op()
        except Exception:
            traceback.print_exc()
    return run, time.perf_counter() - start


def trace(workload: Any, seed: int, seconds: float) -> tuple[Any, dict[str, float]]:
    """The traced run: the same work untraced, then traced.

    A first untraced pass warms the process; the untraced and traced
    passes that follow each repeat the same set-up and operations, so
    their wall-time difference is the tracing overhead.  The passes are
    one replay each, whatever ``seconds`` is.
    """
    timed_pass(workload, seed)
    untraced_run, untraced_wall = timed_pass(workload, seed)
    run_id = f"{workload.name}-seed{seed}-{uuid.uuid4().hex[:12]}"
    with traced(run_id) as tracer:
        run, traced_wall = timed_pass(workload, seed)
    print(f"run {run_id}: one set-up plus {workload.ops} operations per pass")
    for target in tracer.missing:
        print(f"not traced (the program has no {target})")
    print_table(tracer, traced_wall, untraced_wall)
    checked = workload.check([run])
    checked.verdict(
        run.fingerprint() == untraced_run.fingerprint(),
        f"{workload.name}: traced outputs differ from untraced ones",
    )
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return checked, per_layer(tracer, run, traced_wall, untraced_wall)


def run_benchmark(workload: Any, seed: int, seconds: float, trace_mode: bool) -> dict[str, Any]:
    """Run, report, and return the result object (the last output line)."""
    print(f"perfbench {workload.name} seed={seed} seconds={seconds} trace={int(trace_mode)}")
    checked, values = (trace if trace_mode else measure)(workload, seed, seconds)
    record = json.dumps(checked.record, sort_keys=True, default=str)
    record_path = OUT / f"record-{workload.name}-seed{seed}-trace{int(trace_mode)}.json"
    OUT.mkdir(exist_ok=True)
    record_path.write_text(record)
    print(f"record ({record_path.name}): {record}")
    report_checks(checked)
    units = PER_LAYER if trace_mode else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']} {entry['unit']}")
    return {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }


