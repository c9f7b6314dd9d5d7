"""In-memory span tracing for the benchmark's traced run.

The program itself has no span model outside its MapReduce stage trace,
so the benchmark records spans from its own files: :func:`traced` swaps
a timing wrapper in for each public function listed in :data:`PATCHES`
(at the module or class where callers look it up), and restores the
originals on exit.  Each call becomes one span — name, start, end,
parent span — and every span of one run shares the tracer's ``run_id``.

Spans stay in compact arrays while the run lasts (a ``dgreedy-abs``
build makes about 250k ``record_size`` calls) and are written out by
:meth:`Tracer.write` when it ends.  Self time — a span's duration minus
the time its child spans cover — is accumulated per span name as spans
close, so the per-layer table needs no second pass over the arrays.

Only the thread that created the tracer records spans; the program runs
single-threaded under the default ``LocalRuntime`` and memory shuffle.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

#: ``(module, attribute path, span name)``: the functions the traced run
#: wraps.  ``record_size``, ``run_map_task`` and ``run_reduce_task`` are
#: patched in ``repro.mapreduce.runtime`` because that is the namespace
#: the runtime resolves them from; ``combine_rows`` is bound in two
#: modules (the in-sub-tree level walk and the layered driver's top
#: layers) and is patched in both.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro", "build_synopsis", "core.thresholding.build_synopsis"),
    ("repro.mapreduce.runtime", "LocalRuntime.run", "mapreduce.runtime.run"),
    ("repro.mapreduce.runtime", "run_map_task", "mapreduce.map.task"),
    ("repro.mapreduce.runtime", "run_reduce_task", "mapreduce.reduce.task"),
    ("repro.mapreduce.runtime", "record_size", "mapreduce.serde.record_size"),
    ("repro.mapreduce.shuffle", "MemoryShuffle.add_records", "mapreduce.shuffle.add"),
    ("repro.mapreduce.shuffle", "MemoryShuffle.partitions", "mapreduce.shuffle.partitions"),
    ("repro.algos.greedy_abs", "GreedyAbsTree.run_to_exhaustion", "algos.greedy_abs.run"),
    ("repro.algos.minhaarspace", "combine_rows", "algos.minhaarspace.combine_rows"),
    ("repro.core.dp_framework", "combine_rows", "algos.minhaarspace.combine_rows"),
    ("repro.core.dp_framework", "LayeredDPDriver.bottom_up", "core.dp_framework.bottom_up"),
    ("repro.core.dp_framework", "LayeredDPDriver.top_down", "core.dp_framework.top_down"),
    ("repro.serving.store", "ShardedSynopsisStore.create", "serving.store.create"),
    ("repro.serving.store", "ShardedSynopsisStore.append", "serving.store.append"),
    ("repro.serving.store", "ShardedSynopsisStore.batch", "serving.store.batch"),
    ("repro.serving.store", "ShardedSynopsisStore.snapshot", "serving.store.snapshot"),
    ("repro.serving.cache", "reconstruct_segment", "serving.cache.reconstruct"),
    ("repro.serving.incremental", "GreedyMaintainer.build", "serving.incremental.build"),
    ("repro.wavelet.synopsis", "WaveletSynopsis.range_sum", "wavelet.synopsis.range_sum"),
)

#: Span name of one Algorithm-2 probe (a solver call made by the search).
PROBE_SPAN = "algos.indirect_haar.probe"

#: The repository's modules, in table order; a span's layer is the first
#: component of its name.
LAYERS = ("mapreduce", "core", "algos", "serving", "wavelet")


class Tracer:
    """Records spans and per-name totals for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.thread = threading.get_ident()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open spans: ``[span index, time covered by children]``.
        self._stack: list[list[Any]] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        #: Counts read off return values (combine-row widths, rebuild stats).
        self.counts: dict[str, float] = {}
        #: Patch targets the program does not have (see :func:`traced`).
        self.missing: list[str] = []

    def count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` with every call on the tracer's thread recorded as a span."""
        name_index = self._id(name)

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self.thread:
                return function(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(name_index)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            started = time.perf_counter()
            self.start.append(started)
            self.end.append(0.0)
            frame = [index, 0.0]
            self._stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                self._stack.pop()
                self.end[index] = ended
                duration = ended - started
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (first component of the span name)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        """Write every span as ``.npz`` columns: name id, parent index, start, end.

        ``names`` maps a name id to the span name; a parent of -1 marks a
        root span.  Times are ``time.perf_counter`` seconds.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _combine_width(tracer: Tracer, row: Any) -> None:
    tracer.count("algos.minhaarspace.row_entries", len(row))


def _rebuild_stats(tracer: Tracer, result: Any) -> None:
    _synopsis, stats = result
    tracer.count("serving.incremental.reused_subtrees", stats.reused_subtrees)
    tracer.count("serving.incremental.total_subtrees", stats.total_subtrees)
    tracer.count("serving.incremental.full_rebuilds", stats.mode == "full")


_ON_RESULT: dict[str, Callable[[Tracer, Any], None]] = {
    "algos.minhaarspace.combine_rows": _combine_width,
    "serving.incremental.build": _rebuild_stats,
}


def _wrap_probe_search(tracer: Tracer, search: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap Algorithm 2's search so each solver call is a probe span."""

    @functools.wraps(search)
    def wrapper(solver: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return search(tracer.wrap(PROBE_SPAN, solver), *args, **kwargs)

    return wrapper


@contextmanager
def traced(run_id: str) -> Iterator[Tracer]:
    """Install the span wrappers for the duration of the block.

    A target the program no longer has is skipped and listed in
    ``tracer.missing``; its per-layer metrics then read 0.
    """
    tracer = Tracer(run_id)
    restore: list[tuple[Any, str, Any]] = []

    def resolve(module_name: str, path: str) -> tuple[Any, str, Any] | None:
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        if owner is None or attribute not in vars(owner):
            return None
        return owner, attribute, vars(owner)[attribute]

    try:
        for module_name, path, span in PATCHES:
            found = resolve(module_name, path)
            if found is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            owner, attribute, original = found
            restore.append(found)
            setattr(owner, attribute, tracer.wrap(span, original, _ON_RESULT.get(span)))
        found = resolve("repro.core.dindirect", "indirect_haar_search")
        if found is None:
            tracer.missing.append("repro.core.dindirect.indirect_haar_search")
        else:
            owner, attribute, original = found
            restore.append(found)
            setattr(owner, attribute, _wrap_probe_search(tracer, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
