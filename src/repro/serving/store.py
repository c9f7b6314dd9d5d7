"""Sharded, versioned synopsis store: the AQP serving layer.

:class:`ShardedSynopsisStore` is the one store that answers approximate
queries from wavelet synopses.  A series' tier is ``"greedy"`` or
``"dp"`` (appendable, kept current by the :mod:`repro.serving.
incremental` maintainers) or ``"static"``: a 1-D or 2-D synopsis built
once through :func:`~repro.core.thresholding.build_synopsis` or
registered prebuilt, which rejects appends (and, when 2-D, the 1-D query
ops).  The store provides:

* **Sharding** — series hash-partition across ``shards`` buckets by
  ``crc32(name)`` (never builtin ``hash``: it is salted per process and
  would shard differently across runs).  Each shard has its own lock, so
  lookups on different shards never contend.
* **Versioned snapshots** — every (re)build publishes an immutable
  :class:`SeriesVersion` by a single reference swap under the shard
  lock.  Readers resolve a snapshot once and then work lock-free on
  frozen state; a concurrent append can never expose a torn synopsis,
  only flip readers atomically from version ``v`` to ``v + 1``.  Each
  snapshot carries a :func:`~repro.analysis.sanitizer.stable_digest` of
  its payload, and the store keeps a version→digest history compatible
  with ``python -m repro.analysis --compare-digests``.
* **Batched queries** — :meth:`ShardedSynopsisStore.batch` resolves one
  snapshot per distinct series for the whole batch, so a batch observes
  a single consistent version per series.
* **Incremental re-thresholding** — appends route through the
  :mod:`repro.serving.incremental` maintainers: only the sub-trees
  overlapping the appended range are re-thresholded, then re-merged
  through the root pass, preserving each tier's guarantee
  (docs/SERVING.md).  A failed rebuild publishes nothing.
* **Reconstruction LRU** — point lookups go through a
  :class:`~repro.serving.cache.ReconstructionCache` keyed
  ``(name, version, segment)``; appends invalidate eagerly.
* **Crash-safe, validated persistence** — ``save`` renames a complete
  temporary file over the target; ``load`` re-checks each version digest.

Write concurrency is per series: a per-series mutation lock serializes
appends to the same series while appends to different series (and all
reads) proceed in parallel.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, cast

import numpy as np
from numpy.typing import ArrayLike

from repro.analysis.sanitizer import stable_digest
from repro.core.thresholding import build_synopsis, serving_error_target
from repro.data.loader import pad_to_power_of_two
from repro.exceptions import InvalidInputError, ReproError
from repro.mapreduce.cluster import SimulatedCluster
from repro.serving.cache import ReconstructionCache
from repro.serving.incremental import (
    DPMaintainer,
    GreedyMaintainer,
    MaintenanceStats,
)
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.synopsis2d import WaveletSynopsis2D

__all__ = ["Query", "QueryResult", "SeriesVersion", "ShardedSynopsisStore"]

#: Query operations understood by :meth:`ShardedSynopsisStore.batch`.
QUERY_OPS = ("point", "range_sum", "range_avg")

#: Series tiers understood by :meth:`ShardedSynopsisStore.create`.
TIERS = ("greedy", "dp", "static")

#: Store file schema written by :meth:`ShardedSynopsisStore.save`.  Schema
#: 1 files carry no version digests and still load.
SCHEMA = 2

#: Either synopsis dimensionality a static series can hold.
AnySynopsis = WaveletSynopsis | WaveletSynopsis2D

#: What a static series publishes in place of maintenance statistics.
_STATIC_STATS = MaintenanceStats("static", 0, 0, 0)


@dataclass(frozen=True)
class Query:
    """One lookup in a batch; ranges are inclusive ``[lo, hi]``."""

    op: str
    series: str
    index: int | None = None
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class QueryResult:
    """Answer plus the guarantee and version it was served under.

    ``lower``/``upper`` are deterministic bounds on the exact answer
    derived from the per-value guarantee (for sums, scaled by the range
    width).
    """

    series: str
    op: str
    value: float
    version: int
    guarantee: float
    lower: float
    upper: float


@dataclass(frozen=True)
class SeriesVersion:
    """Immutable published state of one series at one version."""

    name: str
    version: int
    tier: str
    synopsis: AnySynopsis
    length: int
    guarantee: float
    digest: str
    stats: MaintenanceStats


@dataclass
class _Series:
    """Mutable per-series state; ``lock`` serializes appends.

    ``current`` is published before any reader can see the series.  A
    static series keeps the defaults: no maintainer, no data.
    """

    name: str
    tier: str
    length: int
    current: SeriesVersion = None  # type: ignore[assignment]
    params: dict[str, Any] = field(default_factory=dict)
    maintainer: GreedyMaintainer | DPMaintainer | None = None
    buffer: np.ndarray = field(default_factory=lambda: np.empty(0))
    lock: threading.Lock = field(default_factory=threading.Lock)


def _digest(synopsis: AnySynopsis, length: int, guarantee: float) -> str:
    """Canonical digest of a published version's observable payload."""
    extent: dict[str, Any] = (
        {"shape": list(synopsis.shape)}
        if isinstance(synopsis, WaveletSynopsis2D)
        else {"n": synopsis.n}
    )
    return stable_digest(
        {
            **extent,
            "coefficients": synopsis.coefficients,
            "length": length,
            "guarantee": guarantee,
        }
    )


def _version(
    name: str,
    number: int,
    tier: str,
    synopsis: AnySynopsis,
    length: int,
    guarantee: float,
    stats: MaintenanceStats,
) -> SeriesVersion:
    digest = _digest(synopsis, length, guarantee)
    return SeriesVersion(name, number, tier, synopsis, length, guarantee, digest, stats)


def _maintainer(tier: str, params: dict[str, Any]) -> GreedyMaintainer | DPMaintainer:
    """A cold maintainer for an appendable tier from its parameters."""
    if tier == "greedy":
        return GreedyMaintainer(
            int(params["budget"]), base_leaves=int(params["base_leaves"])
        )
    if tier == "dp":
        return DPMaintainer(
            float(params["epsilon"]),
            delta=float(params["delta"]),
            subtree_leaves=int(params["subtree_leaves"]),
            rho=float(params["rho"]),
        )
    raise InvalidInputError(f"unknown serving tier {tier!r}; choose one of {TIERS}")


def _read_synopsis(entry: dict[str, Any]) -> AnySynopsis:
    """A static entry's synopsis; entries without ``kind`` are 1-D."""
    if entry.get("kind", "1d") == "2d":
        return WaveletSynopsis2D.from_dict(entry["synopsis"])
    return WaveletSynopsis.from_dict(entry["synopsis"])


def _finite_series(data: ArrayLike, what: str) -> np.ndarray:
    """``data`` as a float64 vector, or :class:`InvalidInputError`."""
    values = np.asarray(data, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise InvalidInputError(f"{what} must be a non-empty 1-D array")
    if not np.isfinite(values).all():
        raise InvalidInputError(f"{what} must be finite (no NaN or inf)")
    return values


def _integer(value: object, message: str) -> int:
    """A query field as an ``int``; bools, floats and absent fields fail."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{message}, got {value!r}")
    return int(value)


def _write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` by ``text``: a crash leaves the old file or the new one."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


class ShardedSynopsisStore:
    """Concurrent, versioned serving store over incremental maintainers."""

    def __init__(
        self,
        shards: int = 8,
        cache_entries: int = 256,
        segment_leaves: int = 1024,
        cluster: SimulatedCluster | None = None,
    ) -> None:
        if shards < 1:
            raise InvalidInputError("store needs at least one shard")
        self.shards = shards
        self._buckets: list[dict[str, _Series]] = [{} for _ in range(shards)]
        self._shard_locks = [threading.Lock() for _ in range(shards)]
        self.cache = ReconstructionCache(cache_entries, segment_leaves)
        self._cluster = cluster or SimulatedCluster()
        self._counters_lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._history_lock = threading.Lock()
        self._history: list[dict[str, Any]] = []

    # -- sharding -----------------------------------------------------------

    def _shard_of(self, name: str) -> int:
        return zlib.crc32(name.encode("utf-8")) % self.shards

    def _series(self, name: str) -> _Series:
        shard = self._shard_of(name)
        with self._shard_locks[shard]:
            series = self._buckets[shard].get(name)
        if series is None:
            raise ReproError(
                f"unknown series {name!r}; available: {self.names()}"
            )
        return series

    def names(self) -> list[str]:
        """Registered series names, sorted, across all shards."""
        found: list[str] = []
        for shard, bucket in enumerate(self._buckets):
            with self._shard_locks[shard]:
                found.extend(bucket)
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        shard = self._shard_of(name)
        with self._shard_locks[shard]:
            return name in self._buckets[shard]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    # -- bookkeeping --------------------------------------------------------

    def _count(self, key: str, by: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] = self._counters.get(key, 0) + by

    def counters(self) -> dict[str, int]:
        """Operation counters merged with the reconstruction cache's."""
        with self._counters_lock:
            merged = dict(self._counters)
        merged.update(self.cache.counters())
        return merged

    def _install(self, series: _Series, version: SeriesVersion) -> None:
        shard = self._shard_of(series.name)
        with self._shard_locks[shard]:
            series.current = version
            self._buckets[shard][series.name] = series

    def _publish(self, series: _Series, version: SeriesVersion) -> None:
        self._install(series, version)
        with self._history_lock:
            self._history.append(
                {
                    "series": version.name,
                    "version": version.version,
                    "digest": version.digest,
                    "mode": version.stats.mode,
                }
            )
        self._count(f"{version.stats.mode}_rebuilds")

    def history(self) -> list[dict[str, Any]]:
        """Chronological (series, version, digest, mode) publication log."""
        with self._history_lock:
            return [dict(entry) for entry in self._history]

    def digest_report(self, label: str = "serving") -> dict[str, Any]:
        """Version digests in the sanitizer's report schema.

        Comparable with ``python -m repro.analysis --compare-digests``:
        an incremental store and a scratch store fed the same create /
        append sequence must produce identical reports.
        """
        jobs = [
            {"job": f"serving.{e['series']}.v{e['version']}", "output": e["digest"]}
            for e in self.history()
        ]
        return {"schema": 1, "label": label, "jobs": jobs, "kernel_rows": []}

    # -- registration and maintenance ---------------------------------------

    def create(
        self,
        name: str,
        data: ArrayLike,
        tier: str = "greedy",
        budget: int = 64,
        epsilon: float | None = None,
        delta: float = 1.0,
        base_leaves: int = 1024,
        subtree_leaves: int = 1024,
        rho: float = 0.0,
        algorithm: str = "dgreedy-abs",
    ) -> SeriesVersion:
        """Register ``data`` under ``name`` and build version 1.

        ``tier="greedy"`` keeps ``budget`` coefficients; ``tier="dp"``
        pins an error target — ``epsilon`` directly, or derived from
        ``budget`` via :func:`~repro.core.thresholding.
        serving_error_target` when omitted.  ``tier="static"`` builds a
        ``budget``-coefficient synopsis once with ``algorithm`` (any of
        :data:`~repro.core.thresholding.ALGORITHMS`, other arguments at
        their defaults) and records its max-abs error against the padded
        data as the guarantee.  Re-creating a name replaces the series
        (version numbering restarts).
        """
        values = _finite_series(data, "series")
        if tier == "static":
            synopsis = build_synopsis(values, budget, algorithm=algorithm)
            padded = np.zeros(synopsis.n)
            padded[: values.size] = values
            synopsis.meta["series"] = name
            synopsis.meta["original_length"] = int(values.size)
            synopsis.meta["max_abs_guarantee"] = synopsis.max_abs_error(padded)
            return self.register(name, synopsis, length=int(values.size))
        if tier == "dp" and epsilon is None:
            epsilon = serving_error_target(values, budget, delta, rho=rho)
        params: dict[str, Any] = (
            {"budget": budget, "base_leaves": base_leaves}
            if tier == "greedy"
            else {
                "epsilon": epsilon,
                "delta": delta,
                "subtree_leaves": subtree_leaves,
                "rho": rho,
            }
        )
        maintainer = _maintainer(tier, params)
        buffer = pad_to_power_of_two(values)
        series = _Series(name, tier, int(values.size), params=params)
        self.cache.invalidate(name)
        return self._rebuild(series, maintainer, buffer, series.length, dirty=None)

    def register(
        self, name: str, synopsis: AnySynopsis, length: int | None = None
    ) -> SeriesVersion:
        """Publish a prebuilt 1-D or 2-D synopsis as a static series.

        The guarantee is ``synopsis.meta["max_abs_guarantee"]`` (``inf``
        when absent); ``length`` falls back to the synopsis'
        ``original_length`` metadata, then to its full extent.
        Re-registering a name replaces the series.
        """
        if isinstance(synopsis, WaveletSynopsis2D):
            extent = synopsis.shape[0] * synopsis.shape[1]
        else:
            extent = synopsis.n
        length = int(length or synopsis.meta.get("original_length") or extent)
        if not 0 < length <= extent:
            raise InvalidInputError(
                f"length {length} does not fit a synopsis of extent {extent}"
            )
        guarantee = float(synopsis.meta.get("max_abs_guarantee", float("inf")))
        published = _version(
            name, 1, "static", synopsis, length, guarantee, _STATIC_STATS
        )
        self.cache.invalidate(name)
        self._publish(_Series(name, "static", length), published)
        return published

    def _rebuild(
        self,
        series: _Series,
        maintainer: GreedyMaintainer | DPMaintainer,
        buffer: np.ndarray,
        length: int,
        dirty: tuple[int, int] | None,
    ) -> SeriesVersion:
        """Build from ``buffer[:length]``, then commit it and publish."""
        synopsis, stats = maintainer.build(buffer, dirty, self._cluster)
        guarantee = float(synopsis.meta["serving_guarantee"])
        synopsis.meta["series"] = series.name
        synopsis.meta["original_length"] = length
        synopsis.meta["max_abs_guarantee"] = guarantee
        number = 1 if series.current is None else series.current.version + 1
        published = _version(
            series.name, number, series.tier, synopsis, length, guarantee, stats
        )
        series.maintainer = maintainer
        series.buffer = buffer
        series.length = length
        if isinstance(maintainer, DPMaintainer):
            # the post-escalation target, so a cold maintainer resumes here
            series.params["epsilon"] = maintainer.epsilon
        self._publish(series, published)
        return published

    def append(
        self, name: str, values: ArrayLike, full_rebuild: bool = False
    ) -> SeriesVersion:
        """Append ``values`` to ``name`` and publish a new version.

        Appends that fit the current power-of-two buffer re-threshold
        only the dirtied sub-trees; growing past the buffer (or passing
        ``full_rebuild=True``, the differential baseline) rebuilds from
        scratch.  Concurrent appends to the same series serialize;
        readers continue on the previous version until the atomic swap.
        If the rebuild fails, the series keeps its previous version,
        buffer and length, and its next append rebuilds in full.
        Static series reject appends.
        """
        fresh = _finite_series(values, "appended values")
        series = self._series(name)
        with series.lock:
            maintainer = series.maintainer
            if maintainer is None:
                raise InvalidInputError(
                    f"series {name!r} is static; only greedy and dp series "
                    "accept appends"
                )
            old_length = series.length
            new_length = old_length + int(fresh.size)
            buffer = series.buffer
            if new_length <= buffer.shape[0]:
                buffer[old_length:new_length] = fresh
                dirty: tuple[int, int] | None = (old_length, new_length)
            else:
                buffer = np.zeros(
                    1 << (new_length - 1).bit_length(), dtype=np.float64
                )
                buffer[:old_length] = series.buffer[:old_length]
                buffer[old_length:new_length] = fresh
                dirty = None
            if full_rebuild:
                dirty = None
            self._count("appends")
            try:
                published = self._rebuild(
                    series, maintainer, buffer, new_length, dirty
                )
            except BaseException:
                # Drop the rejected values (the padding past the length is
                # zero) and the maintainer's half-updated caches.
                series.buffer[old_length:new_length] = 0.0
                series.maintainer = _maintainer(series.tier, series.params)
                raise
        self.cache.invalidate(name)
        return published

    # -- reads --------------------------------------------------------------

    def snapshot(self, name: str) -> SeriesVersion:
        """The current immutable version of ``name``."""
        return self._series(name).current

    def guarantee(self, name: str) -> float:
        """Published per-value max-abs guarantee of ``name``."""
        return self.snapshot(name).guarantee

    @staticmethod
    def _clip(snapshot: SeriesVersion, lo: int, hi: int) -> None:
        if lo > hi:
            raise InvalidInputError(f"empty range [{lo}, {hi}]")
        if lo < 0 or hi >= snapshot.length:
            raise InvalidInputError(
                f"range [{lo}, {hi}] out of bounds for series of length "
                f"{snapshot.length}"
            )

    def _answer(self, query: Query, snapshot: SeriesVersion) -> QueryResult:
        synopsis = cast(WaveletSynopsis, snapshot.synopsis)  # batch rejects 2-D
        if query.op == "point":
            index = _integer(query.index, "point query needs an integer index")
            self._clip(snapshot, index, index)
            value = self.cache.point(
                snapshot.name, snapshot.version, synopsis, index
            )
            slack = snapshot.guarantee
        elif query.op in ("range_sum", "range_avg"):
            message = f"{query.op} query needs integer lo and hi"
            lo = _integer(query.lo, message)
            hi = _integer(query.hi, message)
            self._clip(snapshot, lo, hi)
            if query.op == "range_sum":
                value = synopsis.range_sum(lo, hi)
                slack = (hi - lo + 1) * snapshot.guarantee
            else:
                value = synopsis.range_avg(lo, hi)
                slack = snapshot.guarantee
        else:
            raise InvalidInputError(
                f"unknown query op {query.op!r}; choose one of {QUERY_OPS}"
            )
        return QueryResult(
            series=snapshot.name,
            op=query.op,
            value=float(value),
            version=snapshot.version,
            guarantee=snapshot.guarantee,
            lower=float(value) - slack,
            upper=float(value) + slack,
        )

    def batch(self, queries: list[Query] | tuple[Query, ...]) -> list[QueryResult]:
        """Answer a batch; one snapshot per distinct series for the batch.

        All results for a given series therefore share a version, even
        if an append lands mid-batch.  A 2-D series fails the batch.
        """
        snapshots: dict[str, SeriesVersion] = {}
        results: list[QueryResult] = []
        for query in queries:
            snapshot = snapshots.get(query.series)
            if snapshot is None:
                snapshot = self.snapshot(query.series)
                if isinstance(snapshot.synopsis, WaveletSynopsis2D):
                    raise InvalidInputError(
                        f"series {query.series!r} is 2-D; the 1-D query ops "
                        "do not apply"
                    )
                snapshots[query.series] = snapshot
            results.append(self._answer(query, snapshot))
            self._count(f"{query.op}_queries")
        self._count("batches")
        self._count("queries", len(results))
        return results

    def point(self, name: str, index: int) -> float:
        """Approximate value of one element (cache-served)."""
        return self.batch([Query("point", name, index=index)])[0].value

    def range_sum(self, name: str, lo: int, hi: int) -> float:
        """Approximate sum over the inclusive range ``[lo, hi]``."""
        return self.batch([Query("range_sum", name, lo=lo, hi=hi)])[0].value

    def range_avg(self, name: str, lo: int, hi: int) -> float:
        """Approximate average over the inclusive range ``[lo, hi]``."""
        return self.batch([Query("range_avg", name, lo=lo, hi=hi)])[0].value

    def range_sum_bounds(self, name: str, lo: int, hi: int) -> tuple[float, float]:
        """Deterministic bounds on the exact range sum."""
        result = self.batch([Query("range_sum", name, lo=lo, hi=hi)])[0]
        return result.lower, result.upper

    def report(self, name: str | None = None) -> list[dict[str, Any]]:
        """Per-series summary: version, size, ratio, guarantee, tier.

        With ``name``, a single-row report for that series; an unknown
        name fails with the available-series listing.
        """
        rows: list[dict[str, Any]] = []
        for series_name in self.names() if name is None else [name]:
            snapshot = self.snapshot(series_name)
            rows.append(
                {
                    "series": series_name,
                    "version": snapshot.version,
                    "tier": snapshot.tier,
                    "length": snapshot.length,
                    "coefficients": snapshot.synopsis.size,
                    "ratio": snapshot.length / max(snapshot.synopsis.size, 1),
                    "max_abs_guarantee": snapshot.guarantee,
                    "rebuild_mode": snapshot.stats.mode,
                    "reused_subtrees": snapshot.stats.reused_subtrees,
                    "algorithm": snapshot.synopsis.meta.get("algorithm"),
                }
            )
        return rows

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize every series' current version to a JSON file.

        Greedy and DP series save their data, tier parameters (the
        post-escalation ``epsilon``) and synopsis; maintainer caches
        (DP rows, per-sub-tree greedy runs) are *not* serialized — a
        loaded store lazily falls back to one full rebuild on the first
        append to each series.  Static series save their synopsis
        (``kind: "1d" | "2d"``) and length, no data.  Every entry keeps
        its version digest for :meth:`load` to re-check.  The file is
        replaced atomically.
        """
        entries: dict[str, Any] = {}
        for name in self.names():
            series = self._series(name)
            with series.lock:
                current = series.current
                if series.maintainer is None:
                    two_d = isinstance(current.synopsis, WaveletSynopsis2D)
                    entry = {
                        "tier": series.tier,
                        "kind": "2d" if two_d else "1d",
                        "synopsis": current.synopsis.to_dict(),
                        "length": current.length,
                        "version": current.version,
                    }
                else:
                    entry = {
                        "tier": series.tier,
                        "params": dict(series.params),
                        "data": series.buffer[: series.length].tolist(),
                        "version": current.version,
                        "synopsis": current.synopsis.to_dict(),
                        "stats": asdict(current.stats),
                    }
                entries[name] = {**entry, "digest": current.digest}
        payload = {
            "schema": SCHEMA,
            "shards": self.shards,
            "cache_entries": self.cache.max_entries,
            "segment_leaves": self.cache.segment_leaves,
            "series": entries,
        }
        _write_atomically(Path(path), json.dumps(payload))

    @classmethod
    def load(
        cls, path: str | Path, cluster: SimulatedCluster | None = None
    ) -> "ShardedSynopsisStore":
        """Inverse of :meth:`save` (maintainer caches start cold).

        Also reads the flat layout of the former single-tier store — a
        ``name -> {kind, synopsis, original_length}`` map with no
        ``schema`` — registering each entry as a static series.  An
        unknown schema, a payload that is not a store, or a version
        whose recomputed digest differs from the saved one raises
        :class:`~repro.exceptions.ReproError`.
        """
        try:
            payload = json.loads(Path(path).read_text())
            schema = payload.get("schema")
            if schema not in (None, 1, SCHEMA):
                raise ReproError(f"{path} has unknown store schema {schema!r}")
            if schema is None:
                store = cls(cluster=cluster)
                for name, entry in payload.items():
                    store.register(
                        name, _read_synopsis(entry), int(entry["original_length"])
                    )
                return store
            store = cls(
                shards=int(payload["shards"]),
                cache_entries=int(payload["cache_entries"]),
                segment_leaves=int(payload["segment_leaves"]),
                cluster=cluster,
            )
            for name, entry in payload["series"].items():
                store._restore(name, entry, verify=schema == SCHEMA)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReproError(f"{path} is not a valid synopsis store: {exc!r}") from exc
        return store

    def _restore(self, name: str, entry: dict[str, Any], verify: bool) -> None:
        """Install one saved series at its saved version (no history).

        With ``verify``, the entry's saved digest must match the one
        recomputed from what was loaded.
        """
        tier = entry["tier"]
        synopsis: AnySynopsis
        if tier == "static":
            synopsis = _read_synopsis(entry)
            series = _Series(name, tier, int(entry["length"]))
            guarantee = float(synopsis.meta.get("max_abs_guarantee", float("inf")))
            stats = _STATIC_STATS
        else:
            # Stores saved before the combine-kernel knob was removed
            # carry a ``kernel`` key on DP-tier series; it chose no output.
            params = {k: v for k, v in entry["params"].items() if k != "kernel"}
            data = np.asarray(entry["data"], dtype=np.float64)
            synopsis = WaveletSynopsis.from_dict(entry["synopsis"])
            series = _Series(
                name,
                tier,
                int(data.size),
                params=params,
                maintainer=_maintainer(tier, params),
                buffer=pad_to_power_of_two(data),
            )
            guarantee = float(synopsis.meta["serving_guarantee"])
            stats = MaintenanceStats(**entry["stats"])
        published = _version(
            name, int(entry["version"]), tier, synopsis, series.length, guarantee, stats
        )
        if verify and entry["digest"] != published.digest:
            raise ReproError(
                f"series {name!r} v{published.version} does not match its saved "
                "digest; the store file was modified or corrupted"
            )
        self._install(series, published)
