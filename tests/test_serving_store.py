"""Concurrency and caching behavior of the sharded serving store.

The torn-synopsis test is the load-bearing one: reader threads hammer
batched queries while a writer appends; every snapshot a reader observes
must be internally consistent (its recomputed digest matches the digest
it was published with — a torn coefficient dict would diverge) and
versions must be monotone per reader.  The LRU tests pin the cache
counters and prove eviction never changes answers, only work.  The
static-tier tests carry the behaviours of the former single-tier store;
the failed-append and tamper tests pin that a rejected append or a
modified store file never changes what readers see.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import compare_reports
from repro.exceptions import InvalidInputError, ReproError
from repro.serving import Query, ReconstructionCache, ShardedSynopsisStore
from repro.serving.store import TIERS, _digest
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.synopsis2d import greedy_abs_2d


class TestConcurrentReaders:
    def test_readers_never_see_a_torn_synopsis(self):
        rng = np.random.default_rng(17)
        store = ShardedSynopsisStore(
            shards=4, cache_entries=32, segment_leaves=64
        )
        initial = rng.normal(50, 10, 512)
        store.create("hot", initial, tier="greedy", budget=64, base_leaves=64)
        blocks = [rng.normal(55, 8, 8) for _ in range(30)]  # stays in buffer

        stop = threading.Event()
        errors: list[BaseException] = []
        observed: dict[int, list[tuple[int, str]]] = {}

        def reader(slot: int) -> None:
            seen: list[tuple[int, str]] = []
            try:
                while not stop.is_set():
                    snapshot = store.snapshot("hot")
                    # Digest recomputed from the data the reader actually
                    # holds; a torn publish would mismatch the recorded one.
                    recomputed = _digest(
                        snapshot.synopsis, snapshot.length, snapshot.guarantee
                    )
                    assert recomputed == snapshot.digest
                    results = store.batch(
                        [
                            Query("point", "hot", index=3),
                            Query("range_sum", "hot", lo=0, hi=100),
                            Query("point", "hot", index=200),
                        ]
                    )
                    versions = {r.version for r in results}
                    assert len(versions) == 1  # one snapshot per batch
                    seen.append((snapshot.version, snapshot.digest))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            observed[slot] = seen

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for block in blocks:
            store.append("hot", block)
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors, errors
        history = {
            (entry["version"]): entry["digest"] for entry in store.history()
        }
        for seen in observed.values():
            assert seen, "reader made no observations"
            versions = [version for version, _ in seen]
            assert versions == sorted(versions)  # monotone per reader
            for version, digest in seen:
                assert history[version] == digest
        assert store.snapshot("hot").version == 1 + len(blocks)

    def test_appends_to_different_series_do_not_interfere(self):
        rng = np.random.default_rng(3)
        store = ShardedSynopsisStore(shards=4)
        store.create("a", rng.normal(0, 1, 100), budget=16, base_leaves=8)
        store.create("b", rng.normal(5, 1, 100), budget=16, base_leaves=8)
        errors: list[BaseException] = []

        def writer(name: str) -> None:
            try:
                for _ in range(10):
                    store.append(name, rng.normal(0, 1, 2))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert store.snapshot("a").version == 11
        assert store.snapshot("b").version == 11


class TestReconstructionCache:
    def test_hit_miss_counters(self):
        store = ShardedSynopsisStore(cache_entries=8, segment_leaves=8)
        store.create("s", np.arange(64.0), budget=64, base_leaves=8)
        store.point("s", 0)  # miss: builds segment 0
        store.point("s", 3)  # hit: same segment
        store.point("s", 9)  # miss: segment 1
        counters = store.counters()
        assert counters["cache_misses"] == 2
        assert counters["cache_hits"] == 1
        assert counters["point_queries"] == 3

    def test_append_invalidates_and_version_keys_miss(self):
        store = ShardedSynopsisStore(cache_entries=8, segment_leaves=8)
        store.create("s", np.arange(30.0), budget=32, base_leaves=4)
        store.point("s", 2)
        assert store.counters()["cache_entries"] == 1
        store.append("s", [99.0])
        assert store.counters()["cache_entries"] == 0  # eager purge
        store.point("s", 2)  # rebuilt under the new version key
        assert store.counters()["cache_misses"] == 2

    def test_eviction_under_small_budget_still_answers_correctly(self):
        store = ShardedSynopsisStore(cache_entries=2, segment_leaves=4)
        data = np.arange(64.0)
        store.create("s", data, budget=64, base_leaves=4)
        synopsis = store.snapshot("s").synopsis
        for index in [0, 10, 20, 30, 40, 50, 60, 5, 15]:
            assert store.point("s", index) == pytest.approx(
                synopsis.point_query(index), abs=1e-9
            )
        counters = store.counters()
        assert counters["cache_evictions"] >= 1
        assert counters["cache_entries"] <= 2

    def test_cache_rejects_bad_config(self):
        with pytest.raises(InvalidInputError):
            ReconstructionCache(max_entries=0)
        with pytest.raises(InvalidInputError):
            ReconstructionCache(segment_leaves=3)


class TestStoreApi:
    def test_unknown_series_lists_available_names(self):
        store = ShardedSynopsisStore()
        store.create("known", np.arange(16.0), budget=8, base_leaves=4)
        with pytest.raises(ReproError, match=r"known"):
            store.snapshot("missing")
        with pytest.raises(ReproError, match=r"missing"):
            store.append("missing", [1.0])

    def test_batch_validates_queries(self):
        store = ShardedSynopsisStore()
        store.create("s", np.arange(16.0), budget=8, base_leaves=4)
        with pytest.raises(InvalidInputError):
            store.batch([Query("point", "s")])  # no index
        with pytest.raises(InvalidInputError):
            store.batch([Query("range_sum", "s", lo=3)])  # no hi
        with pytest.raises(InvalidInputError):
            store.batch([Query("median", "s", index=1)])
        with pytest.raises(InvalidInputError):
            store.batch([Query("point", "s", index=16)])  # out of range
        with pytest.raises(InvalidInputError):
            store.batch([Query("range_sum", "s", lo=5, hi=4)])
        # Only integers (not bools) index a series.
        for bad in (3.5, "3", True, None):
            with pytest.raises(InvalidInputError, match="integer index"):
                store.batch([Query("point", "s", index=bad)])
        for lo, hi in ((1.0, 4), (1, "4"), (1, 4.0), (False, 4)):
            with pytest.raises(InvalidInputError, match="integer lo and hi"):
                store.batch([Query("range_avg", "s", lo=lo, hi=hi)])
        assert store.batch([Query("point", "s", index=np.int64(3))])[0].value == (
            store.point("s", 3)
        )

    def test_report_and_membership(self):
        store = ShardedSynopsisStore()
        store.create("s", np.arange(30.0), budget=16, base_leaves=4)
        store.append("s", [1.0, 2.0])  # fits the 32-leaf buffer
        assert "s" in store and "t" not in store
        assert len(store) == 1
        (row,) = store.report()
        assert row["series"] == "s"
        assert row["version"] == 2
        assert row["length"] == 32
        assert row["rebuild_mode"] == "incremental"

    def test_sharding_is_deterministic_and_spreads(self):
        store = ShardedSynopsisStore(shards=4)
        names = [f"series-{i}" for i in range(32)]
        shards = [store._shard_of(name) for name in names]
        assert shards == [store._shard_of(name) for name in names]
        assert len(set(shards)) > 1

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ShardedSynopsisStore(shards=2, cache_entries=16, segment_leaves=16)
        store.create("g", rng.normal(10, 2, 100), tier="greedy", budget=32,
                     base_leaves=8)
        store.create("d", rng.normal(5, 1, 40), tier="dp", epsilon=1.5,
                     subtree_leaves=8)
        store.append("g", rng.normal(10, 2, 10))
        path = tmp_path / "store.json"
        store.save(path)
        loaded = ShardedSynopsisStore.load(path)
        assert loaded.names() == ["d", "g"]
        for name in loaded.names():
            assert loaded.snapshot(name).digest == store.snapshot(name).digest
            assert loaded.snapshot(name).version == store.snapshot(name).version
        assert loaded.point("g", 7) == pytest.approx(store.point("g", 7))
        # A post-load append works (cold caches force one full rebuild)
        # and matches the original store's incremental result exactly.
        block = rng.normal(10, 2, 5)
        reloaded_version = loaded.append("g", block)
        original_version = store.append("g", block)
        assert reloaded_version.stats.mode == "full"
        assert original_version.stats.mode == "incremental"
        assert reloaded_version.digest == original_version.digest

    def test_load_ignores_a_persisted_kernel_param(self, tmp_path):
        # Older store files carry params["kernel"] on DP-tier series; it
        # never chose any output, so loading must drop it silently.
        rng = np.random.default_rng(13)
        store = ShardedSynopsisStore(shards=2)
        store.create("d", rng.normal(5, 1, 40), tier="dp", epsilon=1.5,
                     subtree_leaves=8)
        clean_path = tmp_path / "clean.json"
        store.save(clean_path)
        payload = json.loads(clean_path.read_text())
        assert "kernel" not in payload["series"]["d"]["params"]
        payload["series"]["d"]["params"]["kernel"] = "parallel"
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))

        clean = ShardedSynopsisStore.load(clean_path)
        legacy = ShardedSynopsisStore.load(legacy_path)
        assert legacy.snapshot("d").digest == clean.snapshot("d").digest
        assert legacy.point("d", 3) == clean.point("d", 3)
        assert legacy.range_sum("d", 2, 30) == clean.range_sum("d", 2, 30)
        block = rng.normal(5, 1, 8)
        assert legacy.append("d", block).digest == clean.append("d", block).digest
        resaved = tmp_path / "resaved.json"
        legacy.save(resaved)
        assert "kernel" not in json.loads(resaved.read_text())["series"]["d"]["params"]

    def test_digest_reports_compare_clean_across_modes(self):
        rng = np.random.default_rng(21)
        initial = rng.normal(0, 4, 90)
        blocks = [rng.normal(0, 4, 7) for _ in range(3)]
        incremental = ShardedSynopsisStore()
        scratch = ShardedSynopsisStore()
        incremental.create("s", initial, budget=24, base_leaves=8)
        scratch.create("s", initial, budget=24, base_leaves=8)
        for block in blocks:
            incremental.append("s", block)
            scratch.append("s", block, full_rebuild=True)
        mismatches = compare_reports(
            incremental.digest_report(label="incremental"),
            scratch.digest_report(label="scratch"),
        )
        assert mismatches == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected_before_any_change(self, bad):
        store = ShardedSynopsisStore()
        poisoned = np.arange(16.0)
        poisoned[5] = bad
        for tier in TIERS:
            with pytest.raises(InvalidInputError, match="finite"):
                store.create("x", poisoned, tier=tier, budget=8, base_leaves=4,
                             subtree_leaves=4)
        assert "x" not in store
        store.create("s", np.arange(16.0), budget=8, base_leaves=4)
        before = store.snapshot("s")
        with pytest.raises(InvalidInputError, match="finite"):
            store.append("s", [1.0, bad])
        assert store.snapshot("s") is before
        assert store.append("s", [1.0]).length == 17

    @pytest.mark.parametrize(
        "tier, params",
        [
            ("greedy", {"budget": 24, "base_leaves": 8}),
            ("dp", {"epsilon": 1.5, "subtree_leaves": 8}),
        ],
    )
    def test_failed_append_keeps_the_prior_version(self, tier, params):
        rng = np.random.default_rng(29)
        initial = rng.normal(0, 4, 90)
        good = [rng.normal(0, 4, 7) for _ in range(3)]
        store = ShardedSynopsisStore()
        scratch = ShardedSynopsisStore()
        for target in (store, scratch):
            target.create("s", initial, tier=tier, **params)
            target.append("s", good[0])
        before = store.snapshot("s")
        point = store.point("s", 3)

        # The injected rebuild runs to completion, so the maintainer's
        # caches hold the rejected values, then fails before publishing.
        maintainer = store._series("s").maintainer
        real_build = maintainer.build

        def build_then_fail(*args, **kwargs):
            real_build(*args, **kwargs)
            raise RuntimeError("injected rebuild failure")

        maintainer.build = build_then_fail
        with pytest.raises(RuntimeError, match="injected"):
            store.append("s", rng.normal(40, 4, 12))  # longer than the next block
        assert store.snapshot("s") is before
        assert store.point("s", 3) == point
        with pytest.raises(InvalidInputError, match="out of bounds"):
            store.point("s", before.length)  # rejected values are not served

        for block in good[1:]:
            published = store.append("s", block)
            expected = scratch.append("s", block)
            assert published.version == expected.version
            assert published.length == expected.length
            assert published.digest == expected.digest
        assert store.history()[-2]["mode"] == "full"  # caches were dropped

    def test_save_is_atomic_when_a_write_fails(self, tmp_path, monkeypatch):
        store = ShardedSynopsisStore()
        store.create("s", np.arange(40.0), budget=8, base_leaves=8)
        path = tmp_path / "store.json"
        store.save(path)
        saved = path.read_bytes()
        store.append("s", [1.0, 2.0])

        def disk_full(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.serving.store.os.fsync", disk_full)
        with pytest.raises(OSError, match="no space"):
            store.save(path)
        assert path.read_bytes() == saved
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind
        assert ShardedSynopsisStore.load(path).snapshot("s").version == 1

    def test_load_rejects_tampered_and_foreign_files(self, tmp_path):
        rng = np.random.default_rng(37)
        store = ShardedSynopsisStore()
        store.create("g", rng.normal(10, 2, 60), budget=16, base_leaves=8)
        store.create("c", rng.normal(10, 2, 60), tier="static", budget=16,
                     algorithm="greedy-abs")
        path = tmp_path / "store.json"
        store.save(path)
        payload = json.loads(path.read_text())
        assert payload["series"]["g"]["digest"] == store.snapshot("g").digest

        for name in ("g", "c"):
            tampered = json.loads(path.read_text())
            coefficients = tampered["series"][name]["synopsis"]["coefficients"]
            key = next(iter(coefficients))
            coefficients[key] += 1.0
            bad = tmp_path / f"tampered_{name}.json"
            bad.write_text(json.dumps(tampered))
            with pytest.raises(ReproError, match="digest"):
                ShardedSynopsisStore.load(bad)

        unknown = dict(payload, schema=99)
        foreign = {
            "unknown_schema.json": json.dumps(unknown),
            "list.json": "[1, 2, 3]",
            "synopsis.json": json.dumps(store.snapshot("g").synopsis.to_dict()),
            "truncated.json": path.read_text()[:100],
            "no_series.json": json.dumps({"schema": 2, "shards": 2}),
        }
        for file_name, text in foreign.items():
            bad = tmp_path / file_name
            bad.write_text(text)
            with pytest.raises(ReproError):
                ShardedSynopsisStore.load(bad)


@pytest.fixture
def static_store():
    store = ShardedSynopsisStore()
    rng = np.random.default_rng(0)
    store.create("trips", rng.uniform(0, 1000, size=500), tier="static",
                 budget=64, algorithm="greedy-abs")
    store.create("wind", rng.uniform(0, 360, size=300), tier="static",
                 budget=32, algorithm="conventional")
    return store


class TestStaticTier:
    def test_names_and_membership(self, static_store):
        assert static_store.names() == ["trips", "wind"]
        assert "trips" in static_store and "missing" not in static_store
        assert len(static_store) == 2

    def test_create_records_guarantee(self, static_store):
        assert static_store.guarantee("trips") < float("inf")
        snapshot = static_store.snapshot("trips")
        assert snapshot.tier == "static"
        assert snapshot.synopsis.meta["max_abs_guarantee"] == snapshot.guarantee

    def test_recreating_replaces(self, static_store):
        before = static_store.guarantee("trips")
        static_store.create("trips", np.zeros(500), tier="static", budget=4,
                            algorithm="greedy-abs")
        assert static_store.guarantee("trips") == 0.0
        assert static_store.guarantee("trips") != before

    def test_rejects_empty_series(self, static_store):
        with pytest.raises(InvalidInputError):
            static_store.create("bad", [], tier="static", budget=4)

    def test_unknown_series(self, static_store):
        with pytest.raises(ReproError):
            static_store.point("missing", 0)

    def test_append_is_rejected(self, static_store):
        before = static_store.snapshot("trips")
        with pytest.raises(InvalidInputError, match="static"):
            static_store.append("trips", [1.0])
        assert static_store.snapshot("trips") is before

    def test_point_within_guarantee(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 1000, size=500)
        fresh = ShardedSynopsisStore()
        fresh.create("x", data, tier="static", budget=64, algorithm="greedy-abs")
        guarantee = fresh.guarantee("x")
        for i in (0, 250, 499):
            assert abs(fresh.point("x", i) - data[i]) <= guarantee + 1e-9

    def test_range_queries(self, static_store):
        total = static_store.range_sum("trips", 0, 99)
        average = static_store.range_avg("trips", 0, 99)
        assert average == pytest.approx(total / 100)

    def test_range_bounds_contain_exact_sum(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1000, size=256)
        fresh = ShardedSynopsisStore()
        fresh.create("x", data, tier="static", budget=32, algorithm="greedy-abs")
        lo, hi = 10, 99
        lower, upper = fresh.range_sum_bounds("x", lo, hi)
        exact = data[lo : hi + 1].sum()
        assert lower - 1e-6 <= exact <= upper + 1e-6

    def test_out_of_bounds_rejected(self, static_store):
        with pytest.raises(InvalidInputError):
            static_store.point("trips", 500)  # original length, padding excluded
        with pytest.raises(InvalidInputError):
            static_store.range_sum("wind", 100, 399)
        with pytest.raises(InvalidInputError):
            static_store.range_sum("wind", 50, 40)

    def test_clip_edge_cases(self, static_store):
        # Inverted range (even in-bounds endpoints).
        with pytest.raises(InvalidInputError, match="empty range"):
            static_store.range_avg("trips", 10, 9)
        # Negative lo.
        with pytest.raises(InvalidInputError, match="out of bounds"):
            static_store.range_sum("trips", -1, 5)
        # hi exactly at the original length (first padded index).
        with pytest.raises(InvalidInputError, match="out of bounds"):
            static_store.range_sum("wind", 0, 300)
        # Single-element range at both extremes is fine.
        assert static_store.range_sum("wind", 0, 0) == pytest.approx(
            static_store.point("wind", 0)
        )
        assert static_store.range_sum("wind", 299, 299) == pytest.approx(
            static_store.point("wind", 299)
        )

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1000).map(float),
            min_size=2,
            max_size=120,
        ),
        st.data(),
    )
    def test_range_sum_bounds_tightness_property(self, data, draw):
        """Bounds always contain the exact sum and are exactly
        ``width * guarantee`` wide around the approximate answer."""
        fresh = ShardedSynopsisStore()
        fresh.create("x", data, tier="static", budget=8, algorithm="greedy-abs")
        n = len(data)
        lo = draw.draw(st.integers(min_value=0, max_value=n - 1))
        hi = draw.draw(st.integers(min_value=lo, max_value=n - 1))
        lower, upper = fresh.range_sum_bounds("x", lo, hi)
        exact = float(np.sum(np.asarray(data)[lo : hi + 1]))
        assert lower - 1e-6 <= exact <= upper + 1e-6
        width = (hi - lo + 1) * fresh.guarantee("x")
        approx = fresh.range_sum("x", lo, hi)
        assert upper - approx == pytest.approx(width, abs=1e-9)
        assert approx - lower == pytest.approx(width, abs=1e-9)

    def test_report_rows(self, static_store):
        rows = static_store.report()
        assert [row["series"] for row in rows] == ["trips", "wind"]
        assert all(row["ratio"] > 1 for row in rows)
        assert rows[0]["length"] == 500
        assert [row["algorithm"] for row in rows] == ["GreedyAbs", "CONV"]

    def test_save_load_roundtrip(self, static_store, tmp_path):
        path = tmp_path / "store.json"
        static_store.save(path)
        saved = json.loads(path.read_text())["series"]["trips"]
        assert "data" not in saved and saved["kind"] == "1d"
        loaded = ShardedSynopsisStore.load(path)
        assert loaded.names() == static_store.names()
        assert loaded.point("trips", 7) == pytest.approx(static_store.point("trips", 7))
        assert loaded.guarantee("wind") == pytest.approx(static_store.guarantee("wind"))
        for name in loaded.names():
            assert loaded.snapshot(name).digest == static_store.snapshot(name).digest
        # Original lengths preserved: bounds checks still apply.
        with pytest.raises(InvalidInputError):
            loaded.point("wind", 300)

    def test_report_for_single_series_and_miss(self, static_store):
        (row,) = static_store.report("wind")
        assert row["series"] == "wind"
        # Regression: a miss must raise the available-names ReproError,
        # never a raw KeyError escaping from the series map.
        with pytest.raises(ReproError, match=r"trips") as excinfo:
            static_store.report("missing")
        assert not isinstance(excinfo.value, KeyError)
        with pytest.raises(ReproError, match=r"available.*wind") as excinfo:
            static_store.guarantee("missing")
        assert not isinstance(excinfo.value, KeyError)

    def test_save_load_roundtrip_with_2d_and_none_length(self, static_store, tmp_path):
        rng = np.random.default_rng(4)
        grid = rng.uniform(0, 10, size=(8, 16))
        static_store.register("cube", greedy_abs_2d(grid, budget=24))
        # length=None falls back to the synopsis' own extent.
        bare = WaveletSynopsis(n=64, coefficients={0: 3.0, 5: -1.0}, meta={})
        static_store.register("bare", bare, length=None)
        assert static_store.snapshot("cube").length == 8 * 16
        assert static_store.snapshot("bare").length == 64
        assert static_store.guarantee("bare") == float("inf")

        path = tmp_path / "store.json"
        static_store.save(path)
        loaded = ShardedSynopsisStore.load(path)
        assert loaded.names() == ["bare", "cube", "trips", "wind"]
        cube = loaded.snapshot("cube").synopsis
        original = static_store.snapshot("cube").synopsis
        assert cube.shape == (8, 16)
        assert cube.coefficients == original.coefficients
        assert cube.cell_query(3, 7) == pytest.approx(original.cell_query(3, 7))
        assert loaded.snapshot("cube").digest == static_store.snapshot("cube").digest
        assert loaded.point("bare", 0) == pytest.approx(static_store.point("bare", 0))
        # 1-D query ops refuse the 2-D series instead of misreading it,
        # even when it is not the batch's first series.
        with pytest.raises(InvalidInputError, match="2-D"):
            loaded.point("cube", 0)
        with pytest.raises(InvalidInputError, match="2-D"):
            loaded.batch([Query("point", "trips", index=0), Query("point", "cube", index=0)])
        # 2-D series still appear in reports.
        row = next(r for r in loaded.report() if r["series"] == "cube")
        assert row["coefficients"] == cube.size

    def test_register_rejects_a_length_past_the_extent(self, static_store):
        bare = WaveletSynopsis(n=64, coefficients={0: 3.0}, meta={})
        with pytest.raises(InvalidInputError, match="extent"):
            static_store.register("bare", bare, length=65)
        assert "bare" not in static_store

    def test_loads_the_former_flat_store_layout(self, tmp_path):
        # Files written by the former single-tier store: a name -> entry
        # map without a schema; entries from before the ``kind`` tag are 1-D.
        rng = np.random.default_rng(6)
        data = rng.uniform(0, 100, size=100)
        reference = ShardedSynopsisStore()
        reference.create("line", data, tier="static", budget=16,
                         algorithm="greedy-abs")
        reference.register("cube", greedy_abs_2d(rng.uniform(0, 10, (4, 8)), 8))
        line = reference.snapshot("line").synopsis
        flat = {
            "line": {"synopsis": line.to_dict(), "original_length": 100},
            "cube": {
                "kind": "2d",
                "synopsis": reference.snapshot("cube").synopsis.to_dict(),
                "original_length": 32,
            },
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(flat))
        loaded = ShardedSynopsisStore.load(path)
        assert loaded.names() == ["cube", "line"]
        assert loaded.snapshot("line").tier == "static"
        assert loaded.snapshot("line").digest == reference.snapshot("line").digest
        assert loaded.snapshot("cube").digest == reference.snapshot("cube").digest
        assert loaded.range_sum("line", 3, 60) == reference.range_sum("line", 3, 60)
        with pytest.raises(InvalidInputError):
            loaded.point("line", 100)
