"""The benchmark's workloads: two synopsis builds and two serving mixes.

Every workload turns a seed into its inputs with :mod:`repro.data`, and
the program only ever receives the generated arrays, through its public
entry points: :func:`repro.build_synopsis` for builds and
:class:`~repro.serving.ShardedSynopsisStore` ``create``/``append``/
``batch`` for serving.  One closed-loop client on one thread drives each
workload: :meth:`op` issues the next request only after the previous one
returned.

A workload's ``setup`` goes from input generation to the first servable
state and returns a *run*; the run's ``op`` performs one timed operation
and keeps what it needs to check the outputs afterwards, outside the
timed region (``check``).  A run makes a fixed sequence of ``ops``
operations, the same on every set-up of one seed, so the harness can
replay it and check that every replay answers alike.  Why each workload
exists is in README.md.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from repro.algos.indirect_haar import indirect_haar
from repro.analysis.sanitizer import stable_digest
from repro.data import nyct_dataset, uniform_dataset
from repro.mapreduce.cluster import RunLog, SimulatedCluster
from repro.serving import Query, QueryResult, ShardedSynopsisStore
from repro.wavelet.synopsis import WaveletSynopsis

#: Relative slack for float64 round-off wherever the benchmark compares a
#: value it recomputes with one the program reports: an exact answer with
#: served bounds, or a recomputed error with a claimed one (the program
#: accumulates errors in another order than a full reconstruction does).
ROUNDOFF = 1e-9

#: Serving client: queries per batch, values per append, keys per
#: ``range_sum``, and the compression of every series (64:1, so each keeps
#: ``n / 64`` coefficients).
BATCH = 64
APPEND = 64
RANGE_WIDTH = 64
COMPRESSION = 64

#: Inputs a build run covers, one build each: enough that a run's figures
#: do not hang on one input's Algorithm-2 search.
BUILD_INPUTS = 6


def percentiles(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    text = f"n={len(ordered)} p50={statistics.median(ordered) * 1e3:.3f}ms"
    for label, share in (("p99", 0.99), ("p90", 0.9)):
        if len(ordered) * (1 - share) >= 10:
            text += f" {label}={ordered[int(share * len(ordered))] * 1e3:.3f}ms"
            break
    return text


def _close(recomputed: float, reported: Any) -> bool:
    return reported is not None and abs(recomputed - reported) <= ROUNDOFF * max(
        1.0, abs(recomputed)
    )


def synopsis_digest(synopsis: WaveletSynopsis) -> str:
    """Digest of what a synopsis answers with: its length and coefficients."""
    return stable_digest({"n": synopsis.n, "coefficients": synopsis.coefficients})


@dataclass
class Checked:
    """Outcome of checking one run's outputs, plus its exact record."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: The error bound the outputs carry (see README.md, ``max_abs_err``).
    max_abs_err: float = 0.0
    #: Exact counts and digests: equal across commits that keep behaviour.
    record: dict[str, Any] = field(default_factory=dict)

    def verdict(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def shuffle_by_stage(log: RunLog) -> dict[str, dict[str, int]]:
    """Shuffle bytes, shuffle records and map records per stage label."""
    stages: dict[str, dict[str, int]] = {}
    for job in log.trace()["jobs"]:
        entry = stages.setdefault(
            job["stage_label"], {"jobs": 0, "bytes": 0, "records": 0, "map_records": 0}
        )
        entry["jobs"] += 1
        for stage in job["stages"]:
            if stage["name"] == "shuffle":
                entry["bytes"] += stage["bytes_out"]
                entry["records"] += stage["records_out"]
            elif stage["name"] == "map":
                entry["map_records"] += stage["records_out"]
    return stages


# -- builds -----------------------------------------------------------------


@dataclass(frozen=True)
class BuildWorkload:
    """One ``build_synopsis`` call per operation, over :data:`BUILD_INPUTS` inputs.

    A run builds each of its generated inputs once, in order.  ``budget``
    is ``n / 8`` and every other argument keeps its default.  With
    ``oracle`` set, every build must equal the centralized
    ``indirect_haar`` synopsis coefficient for coefficient; otherwise the
    error the build claims must equal the one the benchmark recomputes, to
    float64 round-off.

    The work of a build is the input values it sweeps: ``n`` per pass over
    the input, where each Algorithm-2 DP run (the search's ``dp_runs``
    probes plus the constructing run) is one pass and a build with no DP
    is one.  How many probes the search makes depends on the input (3 to
    9 on uniform data), so counting passes keeps the throughput of
    ``dindirect-haar`` comparable across seeds; the probe count itself is
    in the record and the traced run.
    """

    name: str
    algorithm: str
    dataset: str
    n: int
    oracle: bool

    #: The set-up ends when every input has its synopsis, after the builds.
    ops_in_setup = True

    @property
    def ops(self) -> int:
        """Builds per run: one per input."""
        return BUILD_INPUTS

    def inputs(self, seed: int) -> list[np.ndarray]:
        seeds = [seed * BUILD_INPUTS + index for index in range(BUILD_INPUTS)]
        if self.dataset == "nyct":
            return [nyct_dataset(self.n, seed=s) for s in seeds]
        return [uniform_dataset(self.n, (0.0, 100.0), seed=s) for s in seeds]

    def setup(self, seed: int) -> "BuildRun":
        return BuildRun(self, self.inputs(seed))

    def check(self, runs: list["BuildRun"]) -> Checked:
        """Check every build of every run (every run builds the same inputs)."""
        inputs = runs[0].data
        budget = runs[0].budget
        outputs = [output for run in runs for output in run.outputs]
        checked = Checked(attempted=sum(run.crashed for run in runs))
        checked.failed = checked.attempted
        expected = None
        if self.oracle:
            expected = [synopsis_digest(indirect_haar(x, budget, 1.0)) for x in inputs]
        errors = []
        digests: dict[int, set[str]] = {}
        for index, synopsis, _log in outputs:
            digest = synopsis_digest(synopsis)
            digests.setdefault(index, set()).add(digest)
            error = synopsis.max_abs_error(inputs[index])
            errors.append(error)
            if expected is not None:
                ok = digest == expected[index] and synopsis.size <= budget
                problem = f"{self.name}: input {index}: differs from centralized indirect_haar"
            else:
                claimed = synopsis.meta.get("claimed_error")
                ok = synopsis.size <= budget and _close(error, claimed)
                problem = (
                    f"{self.name}: input {index}: size {synopsis.size} (budget {budget}), "
                    f"recomputed error {error!r} vs claimed {claimed!r}"
                )
            checked.verdict(ok, problem)
        for index, found in sorted(digests.items()):
            # Every build of one input must agree: a second digest is a wrong output.
            checked.verdict(
                len(found) == 1, f"{self.name}: input {index}: {len(found)} distinct synopses"
            )
        checked.max_abs_err = float(np.mean(errors)) if errors else 0.0
        checked.record = {
            "inputs": [
                {
                    "synopsis_digest": synopsis_digest(synopsis),
                    "size": synopsis.size,
                    "max_abs_error": synopsis.max_abs_error(inputs[index]),
                    "jobs": log.job_count,
                    "shuffle_bytes": log.shuffle_bytes,
                    "stages": shuffle_by_stage(log),
                    "probes": synopsis.meta.get("dp_runs"),
                }
                for index, synopsis, log in runs[0].outputs
            ]
        }
        return checked


@dataclass
class BuildRun:
    """A run's inputs and every build made of them, with what the checks need."""

    workload: BuildWorkload
    data: list[np.ndarray]
    #: ``(input index, synopsis, run log)`` of every build, in order.
    outputs: list[tuple[int, WaveletSynopsis, RunLog]] = field(default_factory=list)
    #: Builds that raised instead of returning a synopsis.
    crashed: int = 0
    sim_s: list[float] = field(default_factory=list)

    @property
    def budget(self) -> int:
        return self.workload.n // 8

    def has_room(self) -> bool:
        return True

    def op(self) -> tuple[float, float]:
        """Build the next input; returns its wall seconds and its work."""
        index = (len(self.outputs) + self.crashed) % len(self.data)
        cluster = SimulatedCluster()
        start = time.perf_counter()
        try:
            synopsis = repro.build_synopsis(
                self.data[index], budget=self.budget, algorithm=self.workload.algorithm,
                cluster=cluster,
            )
        except Exception:
            self.crashed += 1
            raise
        elapsed = time.perf_counter() - start
        self.outputs.append((index, synopsis, cluster.log))
        self.sim_s.append(cluster.simulated_seconds)
        # ``dp_runs`` counts the probes; the constructing run is one more.
        probes = synopsis.meta.get("dp_runs") or 0
        return elapsed, self.workload.n * (probes + 1 if probes else 1)

    def fingerprint(self) -> list[str]:
        """Digests of every output, in order."""
        return [synopsis_digest(synopsis) for _index, synopsis, _log in self.outputs]

    def release(self) -> None:
        """Nothing to drop: the checks need every build's synopsis."""

    def logs(self) -> list[RunLog]:
        return [log for _index, _synopsis, log in self.outputs]

    def counters(self) -> dict[str, int]:
        return {}

    def describe(self) -> list[str]:
        """Report lines beyond the end-to-end metrics."""
        return [f"sim_s per build: {', '.join(f'{s:.4f}' for s in self.sim_s)}"]


# -- serving ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeWorkload:
    """Greedy series behind one store, read in batches, appended at the tail.

    Each series holds ``dataset`` values (NYCT trip times, or uniform in
    ``[0, 1000]``) in a buffer of ``n`` keys, created with ``initial`` of
    them so that every timed append fits the buffer and stays incremental.
    The store keeps ``cache_entries`` reconstructed segments of 1024
    leaves.  An operation is one client step: the append that is due
    (every ``append_every``-th step, round-robin over the series) followed
    by one batch of :data:`BATCH` queries, 7/8 ``point`` and 1/8
    ``range_sum`` over :data:`RANGE_WIDTH` keys.  Keys are uniform over
    each series, or, with ``recency_mean``, that far behind the tail on
    average (exponential).  A run makes ``steps`` steps.
    """

    name: str
    dataset: str
    series: int
    n: int
    initial: int
    append_every: int
    recency_mean: float | None
    cache_entries: int
    steps: int

    #: The set-up ends when every series is created, before the steps.
    ops_in_setup = False

    @property
    def ops(self) -> int:
        """Client steps per run."""
        return self.steps

    def inputs(self, seed: int) -> list[np.ndarray]:
        seeds = [seed * self.series + index for index in range(self.series)]
        if self.dataset == "nyct":
            return [nyct_dataset(self.n, seed=s) for s in seeds]
        return [uniform_dataset(self.n, (0.0, 1000.0), seed=s) for s in seeds]

    def setup(self, seed: int) -> "ServeRun":
        return ServeRun(self, self.inputs(seed), seed)

    def check(self, runs: list["ServeRun"]) -> Checked:
        """Check every answer, then each series against a scratch build.

        The first run's answers are checked against the exact values, and
        its series against a scratch store created from each series' final
        data: its versions must carry the same digests as the
        incrementally maintained ones.  Every later run replays the same
        steps on a fresh set-up, so it must serve the same bounds and end
        on the same digests (one check per run).
        """
        run = runs[0]
        crashed = sum(other.crashed for other in runs)
        checked = Checked(attempted=crashed, failed=crashed)
        for step, answers in enumerate(run.answers):
            bad = run.violations(answers)
            checked.verdict(not bad, f"{self.name}: step {step}: {bad[:3]}")
        for index, other in enumerate(runs[1:], start=1):
            same = len(other.answers) == len(run.answers) and all(
                mine.same(theirs) for mine, theirs in zip(run.answers, other.answers)
            )
            checked.verdict(
                same and other.fingerprint() == run.fingerprint(),
                f"{self.name}: replay {index} served other bounds or digests than replay 0",
            )
        scratch = ShardedSynopsisStore()
        guarantees = []
        digests = {}
        for index, name in enumerate(run.names):
            final = run.data[index][: run.lengths[index]]
            served = run.store.snapshot(name)
            rebuilt = scratch.create(name, final, tier="greedy", budget=run.budget)
            error = float(np.max(np.abs(served.synopsis.reconstruct()[: final.size] - final)))
            ok = served.digest == rebuilt.digest and error <= served.guarantee * (1 + ROUNDOFF)
            checked.verdict(
                ok,
                f"{self.name}: {name} v{served.version} digest {served.digest[:12]} "
                f"vs scratch {rebuilt.digest[:12]}, error {error} vs guarantee "
                f"{served.guarantee}",
            )
            guarantees.append(served.guarantee)
            digests[name] = served.digest
        checked.max_abs_err = float(np.mean(guarantees))
        checked.record = {
            "steps": len(run.answers),
            "appends": run.appends,
            "non_incremental_appends": run.non_incremental,
            "lengths": list(run.lengths),
            "version_digests": digests,
            "counters": run.store.counters(),
        }
        return checked


class Answers:
    """One batch in compact form: what was asked, and the bounds served.

    Kept as arrays rather than ``Query``/``QueryResult`` objects so the
    benchmark's own memory does not grow with the number of steps.
    """

    def __init__(self, series: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        self.series = series
        self.lo = lo
        self.hi = hi
        self.lower = np.empty(0)
        self.upper = np.empty(0)
        self.matched = False

    def record(self, queries: list[Query], results: list[QueryResult]) -> None:
        self.matched = len(results) == len(queries) and all(
            r.series == q.series and r.op == q.op for q, r in zip(queries, results)
        )
        self.lower = np.array([r.lower for r in results])
        self.upper = np.array([r.upper for r in results])

    def same(self, other: "Answers") -> bool:
        """Whether ``other`` asked the same queries and was served the same bounds."""
        return self.matched == other.matched and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(
                (self.series, self.lo, self.hi, self.lower, self.upper),
                (other.series, other.lo, other.hi, other.lower, other.upper),
            )
        )


class ServeRun:
    """One store with its series created, driven one client step at a time."""

    def __init__(self, workload: ServeWorkload, data: list[np.ndarray], seed: int) -> None:
        self.workload = workload
        self.data = data
        self.budget = workload.n // COMPRESSION
        self.names = [f"series-{index}" for index in range(workload.series)]
        self.lengths = [workload.initial] * workload.series
        self.store: ShardedSynopsisStore | None = ShardedSynopsisStore(
            cache_entries=workload.cache_entries
        )
        self.digests: list[str] = []
        #: Buffer size per series: appends up to it stay incremental.
        self.capacity = [
            self.store.create(
                name, values[: workload.initial], tier="greedy", budget=self.budget
            ).synopsis.n
            for name, values in zip(self.names, data)
        ]
        self.rng = np.random.default_rng(seed)
        self.steps = 0
        self.appends = 0
        self.non_incremental = 0
        self.crashed = 0
        self.answers: list[Answers] = []
        self.batch_s: list[float] = []
        self.append_s: list[float] = []

    def _append_due(self) -> bool:
        every = self.workload.append_every
        return self.steps % every == every - 1

    def has_room(self) -> bool:
        """Whether the next step's append (if due) still fits the buffer."""
        if not self._append_due():
            return True
        index = self.appends % self.workload.series
        return self.lengths[index] + APPEND <= self.capacity[index]

    def _queries(self) -> tuple[Answers, list[Query]]:
        """The next batch, as arrays (for the check) and as ``Query`` objects."""
        w = self.workload
        series = self.rng.integers(w.series, size=BATCH)
        lengths = np.asarray(self.lengths)[series]
        if w.recency_mean is None:
            keys = (self.rng.random(BATCH) * lengths).astype(np.int64)
        else:
            behind = self.rng.exponential(w.recency_mean, size=BATCH).astype(np.int64)
            keys = np.maximum(0, lengths - 1 - behind)
        ranged = np.arange(BATCH) % 8 == 7
        lo = np.where(ranged, np.maximum(0, keys - RANGE_WIDTH + 1), keys)
        hi = np.where(ranged, lo + RANGE_WIDTH - 1, keys)
        queries = [
            Query("range_sum", self.names[s], lo=int(a), hi=int(b))
            if r
            else Query("point", self.names[s], index=int(a))
            for s, a, b, r in zip(series, lo, hi, ranged)
        ]
        return Answers(series, lo, hi), queries

    def op(self) -> tuple[float, float]:
        """One client step; returns its wall seconds and the queries answered."""
        w = self.workload
        appended = None
        if self._append_due():
            index = self.appends % w.series
            old = self.lengths[index]
            appended = (self.names[index], self.data[index][old : old + APPEND])
            self.lengths[index] = old + APPEND
            self.appends += 1
        answers, queries = self._queries()
        self.steps += 1
        start = time.perf_counter()
        try:
            if appended is not None:
                published = self.store.append(*appended)
                mid = time.perf_counter()
                self.append_s.append(mid - start)
            else:
                mid = start
            results = self.store.batch(queries)
        except Exception:
            self.crashed += 1
            raise
        end = time.perf_counter()
        self.batch_s.append(end - mid)
        if appended is not None and published.stats.mode != "incremental":
            self.non_incremental += 1
        answers.record(queries, results)
        self.answers.append(answers)
        return end - start, BATCH

    def violations(self, answers: "Answers") -> list[str]:
        """Answers whose served ``[lower, upper]`` misses the exact answer."""
        if not answers.matched:
            return ["results do not match the queries one for one"]
        bad = []
        for s, lo, hi, lower, upper in zip(
            answers.series, answers.lo, answers.hi, answers.lower, answers.upper
        ):
            values = self.data[s]
            exact = float(values[lo]) if lo == hi else float(values[lo : hi + 1].sum())
            slack = ROUNDOFF * max(1.0, abs(exact))
            if not lower - slack <= exact <= upper + slack:
                bad.append(f"{self.names[s]}[{lo}:{hi}] in [{lower}, {upper}] misses {exact}")
        return bad

    def fingerprint(self) -> list[str]:
        """Digest of every series' current version, in series order."""
        if self.store is None:
            return self.digests
        return [self.store.snapshot(name).digest for name in self.names]

    def release(self) -> None:
        """Drop the store, keeping its digests: a replay's checks need no more.

        Without this, every replay's store would stay alive until the
        checks, and peak memory would grow with the number of replays.
        """
        self.digests = self.fingerprint()
        self.store = None

    def logs(self) -> list[RunLog]:
        return []

    def counters(self) -> dict[str, int]:
        return self.store.counters()

    def describe(self) -> list[str]:
        """Report lines beyond the end-to-end metrics."""
        lines = [f"batch latency: {percentiles(self.batch_s)}"]
        if self.append_s:
            lines.append(f"append latency: {percentiles(self.append_s)}")
        return lines


#: The four workloads, by name.  Sizes and reasons: README.md.
WORKLOADS: dict[str, BuildWorkload | ServeWorkload] = {
    "build-greedy": BuildWorkload(
        "build-greedy", algorithm="dgreedy-abs", dataset="nyct", n=1 << 12, oracle=False
    ),
    "build-dp": BuildWorkload(
        "build-dp", algorithm="dindirect-haar", dataset="uniform", n=1 << 10, oracle=True
    ),
    "serve-scan": ServeWorkload(
        "serve-scan",
        dataset="uniform",
        series=4,
        n=1 << 15,
        initial=(1 << 15) - (1 << 12),
        append_every=20,
        recency_mean=None,
        cache_entries=64,
        steps=200,
    ),
    "serve-ingest": ServeWorkload(
        "serve-ingest",
        dataset="nyct",
        series=8,
        n=1 << 14,
        initial=(1 << 13) + (1 << 10),
        append_every=1,
        recency_mean=2048.0,
        cache_entries=256,
        steps=150,
    ),
}
