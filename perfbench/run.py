"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload build-greedy --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: replays of one seed's work
(a fresh set-up, then a fixed sequence of operations driven by one
closed-loop client) until ``--seconds`` have passed, at least three.
Timings are corrected for the speed of a shared host (``hostspeed.py``);
``setup_s`` is the median set-up and ``work_per_s`` uses each
operation's median over the replays.  The outputs are checked outside
the timed region.  ``--trace 1`` runs one replay untraced and one traced
on one seed and reports the per-layer metrics of the traced one.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  Spans, timing samples and the exact record of
each run are written under ``.perfbench_out/``.  README.md explains the
workloads, the metrics and how to read the traced table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from harness import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
