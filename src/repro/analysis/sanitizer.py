"""Runtime determinism sanitizer: hash what the runtimes actually produce.

The static analyses (:mod:`repro.analysis.races`,
:mod:`repro.analysis.pickling`) argue that the three runtimes are
schedule-independent.  This module is the dynamic cross-check: under
``repro build --sanitize out.json`` the driver hashes

* every job's final output (and per-partition shuffle streams, when the
  job reduces) in driver order, and
* every DP kernel sub-tree row table (``_run_levels`` output), collected
  concurrently and canonicalized by sorting,

into a small JSON report.  Two runs whose reports match produced
bit-identical data; CI compares local/thread/process builds this way, so
a scheduling bug the static rules missed still fails the pipeline.

Deliberately dependency-free within the repo (stdlib + numpy only): the
runtime modules import :func:`current` without pulling the analyzer in.

The active sanitizer is a module global guarded by a lock; observation
methods take the instance lock, so concurrent kernel workers may call
:meth:`Sanitizer.observe_kernel_rows` directly.  (The race detector
verifies this file too — the guarded writes are its clean exemplar.)
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "SANITIZER_SCHEMA_VERSION",
    "Sanitizer",
    "activate",
    "compare_reports",
    "current",
    "deactivate",
    "stable_digest",
]

SANITIZER_SCHEMA_VERSION = 1


def _update(hasher: "hashlib._Hash", value: Any, depth: int = 0) -> None:
    """Feed ``value`` into ``hasher`` as canonical type-tagged bytes.

    Canonical means: equal values hash equal regardless of dict insert
    order, set order, or numpy memory layout — and *not* via ``repr``,
    which truncates large arrays.
    """
    if depth > 32:
        raise ValueError("sanitizer digest: structure too deeply nested")
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        hasher.update(b"I" + str(value).encode())
    elif isinstance(value, float):
        hasher.update(b"F" + struct.pack(">d", value))
    elif isinstance(value, str):
        hasher.update(b"S" + value.encode("utf-8"))
    elif isinstance(value, bytes):
        hasher.update(b"Y" + value)
    elif isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        hasher.update(b"A" + str(contiguous.dtype).encode())
        hasher.update(str(contiguous.shape).encode())
        hasher.update(contiguous.tobytes())
    elif isinstance(value, np.generic):
        hasher.update(b"G" + str(value.dtype).encode())
        _update(hasher, value.item(), depth + 1)
    elif isinstance(value, (list, tuple)):
        hasher.update(b"L" if isinstance(value, list) else b"T")
        hasher.update(str(len(value)).encode())
        for item in value:
            _update(hasher, item, depth + 1)
    elif isinstance(value, dict):
        entries = sorted(
            (stable_digest(key), stable_digest(item)) for key, item in value.items()
        )
        hasher.update(b"D" + str(len(entries)).encode())
        for key_digest, item_digest in entries:
            hasher.update(key_digest.encode())
            hasher.update(item_digest.encode())
    elif isinstance(value, (set, frozenset)):
        hasher.update(b"E" + str(len(value)).encode())
        for item_digest in sorted(stable_digest(item) for item in value):
            hasher.update(item_digest.encode())
    elif is_dataclass(value) and not isinstance(value, type):
        hasher.update(b"C" + type(value).__name__.encode())
        for item in fields(value):
            hasher.update(item.name.encode())
            _update(hasher, getattr(value, item.name), depth + 1)
    elif hasattr(value, "__dict__"):
        hasher.update(b"O" + type(value).__name__.encode())
        for name in sorted(vars(value)):
            hasher.update(name.encode())
            _update(hasher, vars(value)[name], depth + 1)
    else:
        hasher.update(b"R" + repr(value).encode())


def stable_digest(value: Any) -> str:
    """Canonical sha256 hex digest of an arbitrary result structure."""
    hasher = hashlib.sha256()
    _update(hasher, value)
    return hasher.hexdigest()


class Sanitizer:
    """Collects digests from one traced run; see the module docstring."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._lock = threading.Lock()
        self._jobs: list[dict[str, Any]] = []
        self._kernel_digests: list[str] = []

    def observe_job_output(self, job_name: str, output: Any) -> None:
        """Hash one job's final output (driver order — deterministic)."""
        digest = stable_digest(output)
        with self._lock:
            self._jobs.append({"job": job_name, "output": digest})

    def observe_partitions(self, job_name: str, partitions: list[Any]) -> None:
        """Hash each shuffle partition stream a reduce job consumed."""
        digests = [stable_digest(partition) for partition in partitions]
        with self._lock:
            self._jobs.append({"job": job_name, "partitions": digests})

    def observe_kernel_rows(self, rows: Any) -> None:
        """Hash one kernel sub-tree's row table.

        Called from the DP combine path, possibly concurrently (sub-tree
        map tasks on the thread-pool runtime); the digest list is
        canonicalized by sorting in :meth:`report`, so collection order
        cannot matter.
        """
        digest = stable_digest(rows)
        with self._lock:
            self._kernel_digests.append(digest)

    def report(self) -> dict[str, Any]:
        with self._lock:
            return {
                "schema": SANITIZER_SCHEMA_VERSION,
                "label": self.label,
                "jobs": list(self._jobs),
                "kernel_rows": sorted(self._kernel_digests),
            }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


_ACTIVE: Sanitizer | None = None
_ACTIVE_LOCK = threading.Lock()


def activate(sanitizer: Sanitizer) -> Sanitizer:
    """Install ``sanitizer`` as the process-wide active instance."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a sanitizer is already active")
        _ACTIVE = sanitizer
    return sanitizer


def deactivate() -> Sanitizer | None:
    """Remove and return the active sanitizer (None when inactive)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        active, _ACTIVE = _ACTIVE, None
    return active


def current() -> Sanitizer | None:
    """The active sanitizer, or None — the runtimes' fast-path check."""
    return _ACTIVE


def compare_reports(left: dict[str, Any], right: dict[str, Any]) -> list[str]:
    """Human-readable mismatches between two reports; empty = identical.

    ``label`` is excluded (two runs being compared are *supposed* to
    differ in runtime); everything hashed must match.
    """
    problems: list[str] = []
    if left.get("schema") != right.get("schema"):
        problems.append(
            f"schema mismatch: {left.get('schema')} != {right.get('schema')}"
        )
        return problems
    left_jobs = left.get("jobs", [])
    right_jobs = right.get("jobs", [])
    if len(left_jobs) != len(right_jobs):
        problems.append(
            f"job-record count mismatch: {len(left_jobs)} != {len(right_jobs)}"
        )
    for position, (a, b) in enumerate(zip(left_jobs, right_jobs)):
        if a != b:
            problems.append(
                f"job record {position} ({a.get('job')!r}) differs: {a} != {b}"
            )
    if left.get("kernel_rows", []) != right.get("kernel_rows", []):
        problems.append("kernel row digests differ")
    return problems
