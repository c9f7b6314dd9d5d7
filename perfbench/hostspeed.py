"""Host-speed correction for timings taken on a shared machine.

On a host shared with other tenants, the same CPU-bound code runs up to
about 2x slower for spells of a second to a minute, and CPU time rises
with wall time, so these are slow spells of the host, not lost time
slices.  A spell that covers a whole run moves every statistic taken
inside it, medians and minima alike.

The benchmark therefore times a fixed *reference pass* right before and
right after each timed interval: interpreter-bound dict, list and call
work plus small numpy operations, the mix the program itself runs, and
in about equal time random reads over a working set of a few megabytes,
the order of the serving cache and a synopsis' coefficient table, which
a neighbour that contends for the caches slows down more.  The
host's slowdown over the interval is the mean of the two measurements,
each the median of :data:`PASSES` reference passes, divided by
:data:`REFERENCE_S`; a timing is reported divided by that slowdown, that
is, in seconds of a host running the reference pass at its nominal speed.
Run as a script, this module prints the reference pass's time on the
current host::

    python3 perfbench/hostspeed.py
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Seconds of one reference pass at full speed on a 2-core x86-64 cloud
#: host with CPython 3 and numpy (about the fastest tenth of the passes timed
#: by ``python3 perfbench/hostspeed.py``).  Only a scale: every corrected
#: timing is proportional to it.
REFERENCE_S = 0.002

#: Reference passes per measurement; the measurement is their median.
PASSES = 3

#: The memory-bound part's working set: 1 MB of floats read at random
#: positions and a dict of 16k entries.
_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(1 << 17)
_POSITIONS = _RNG.integers(0, 1 << 17, 1 << 13)
_TABLE = {int(key): float(key) for key in _RNG.integers(0, 1 << 40, 1 << 14)}
_KEYS = list(_TABLE)


def reference_pass() -> float:
    """Run the fixed reference work once; returns its wall seconds."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(6000):
        key = (i * 7919) % 263
        table[key] = table.get(key, 0.0) + i * 0.5
    rows = [sorted(table.values())[j : j + 8] for j in range(0, 256, 8)]
    total = sum(max(row) - min(row) for row in rows if row)
    values = np.linspace(0.0, total, 4096)
    for _ in range(8):
        values = np.sort(np.abs(np.diff(values, prepend=values[-1])))
        values = np.cumsum(values) * 0.5
    for _ in range(12):
        total += float(_VALUES[_POSITIONS].sum())
    for key in _KEYS:
        total += _TABLE[key]
    return time.perf_counter() - start


def slowdown() -> float:
    """The host's current slowdown against :data:`REFERENCE_S` (1 = nominal).

    The garbage collector is off during the passes: a collection there
    would walk the program's heap and charge its cost to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(reference_pass() for _ in range(PASSES)) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    times = sorted(reference_pass() for _ in range(2000))
    print(
        f"reference pass: fastest tenth {times[len(times) // 10] * 1e3:.3f} ms, "
        f"median {statistics.median(times) * 1e3:.3f} ms "
        f"(REFERENCE_S = {REFERENCE_S * 1e3:.3f} ms)"
    )


if __name__ == "__main__":
    main()
