"""Tiny-size self-test of the benchmark.

Runs every workload at a toy size, traced and untraced, and checks that

* each run emits exactly the metrics ``BENCHMARK.json`` lists, with
  their units, as finite numbers, and passes its output checks;
* a deliberately corrupted answer — a served bound moved off the exact
  value, a build with one coefficient changed — is counted as failed;
* the command exits non-zero, without printing a result, in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's own files.

Run it from the repository root; it takes a minute or two::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from collections.abc import Callable, Iterator
from typing import Any

from run import ROOT, import_program

TINY_SECONDS = 0.3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny_workloads() -> dict[str, Any]:
    from workloads import WORKLOADS

    sizes = {
        "build-greedy": {"n": 1 << 10},
        "build-dp": {"n": 1 << 8},
        "serve-scan": {"n": 1 << 12, "initial": (1 << 12) - (1 << 10), "steps": 30},
        "serve-ingest": {
            "n": 1 << 12,
            "initial": (1 << 12) - (1 << 10),
            "recency_mean": 128.0,
            "steps": 20,
        },
    }
    return {name: dataclasses.replace(WORKLOADS[name], **sizes[name]) for name in WORKLOADS}


def quietly(workload: Any, trace: bool) -> dict[str, Any]:
    from harness import run_benchmark

    with contextlib.redirect_stdout(io.StringIO()):
        return run_benchmark(workload, seed=3, seconds=TINY_SECONDS, trace_mode=trace)


@contextlib.contextmanager
def patched(owner: Any, attribute: str, make: Callable[[Any], Any]) -> Iterator[None]:
    original = getattr(owner, attribute)
    setattr(owner, attribute, make(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def corrupt_answers(batch: Callable[..., Any]) -> Callable[..., Any]:
    """``batch`` with the first answer's bounds moved far above the value."""

    def corrupted(self: Any, queries: Any) -> Any:
        results = batch(self, queries)
        first = results[0]
        results[0] = dataclasses.replace(
            first, lower=first.upper + 1e6, upper=first.upper + 2e6
        )
        return results

    return corrupted


def corrupt_build(build: Callable[..., Any]) -> Callable[..., Any]:
    """``build_synopsis`` with the overall average raised by one."""

    def corrupted(*args: Any, **kwargs: Any) -> Any:
        synopsis = build(*args, **kwargs)
        synopsis.coefficients[0] = synopsis.coefficients.get(0, 0.0) + 1.0
        return synopsis

    return corrupted


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, workload in tiny_workloads().items():
        for trace, table in ((False, "end_to_end"), (True, "per_layer")):
            result = quietly(workload, trace)
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{name}: result keys {sorted(result)}",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name}: {result}")
            expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[table]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics {got} != {wanted}")
            for key, entry in result["metrics"].items():
                value = entry["value"]
                expect(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    f"{name}: {key} = {value!r}",
                )
            if not trace:
                for key, entry in result["metrics"].items():
                    expect(entry["value"] > 0, f"{name}: end-to-end {key} is not positive")
        print(f"ok   {name}: every metric emitted, outputs checked")


def check_corruption() -> None:
    import repro
    from repro.serving import ShardedSynopsisStore

    workloads = tiny_workloads()
    cases = [
        ("serve-scan", ShardedSynopsisStore, "batch", corrupt_answers),
        ("serve-ingest", ShardedSynopsisStore, "batch", corrupt_answers),
        ("build-greedy", repro, "build_synopsis", corrupt_build),
        ("build-dp", repro, "build_synopsis", corrupt_build),
    ]
    for name, owner, attribute, corrupt in cases:
        with patched(owner, attribute, corrupt):
            result = quietly(workloads[name], trace=False)
        expect(
            result["failed"] >= 1 and not result["correct"],
            f"{name}: corrupted outputs not counted: {result}",
        )
        ratio = result["failed"] / result["attempted"]
        print(f"ok   {name}: corrupted outputs counted, fail_ratio={ratio:.3f}")


def check_bare_directory() -> None:
    """The command must fail, printing no result, without the program sources."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    command = spec["command"] + [
        "--workload", "build-dp", "--seed", "1", "--seconds", "1", "--trace", "0"
    ]
    finished = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(finished.returncode != 0, "bare directory run exited 0")
    expect('"correct"' not in finished.stdout, "bare directory run printed a result")
    print(f"ok   bare directory: exit code {finished.returncode}, no result")


def main() -> int:
    import_program()
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
