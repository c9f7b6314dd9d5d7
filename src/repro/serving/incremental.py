"""Incremental re-thresholding: rebuild only what an append dirtied.

Two maintenance tiers, one per thresholding family:

* :class:`DPMaintainer` — MinHaarSpace at a *pinned* error target.  The
  layered DP's per-sub-tree rows are pure functions of ``(sub-tree
  data, epsilon, delta, kernel)``, so a :class:`~repro.core.dp_framework.
  DPRowCache` carried across builds lets :meth:`~repro.core.dp_framework.
  LayeredDPDriver.bottom_up` re-run only the sub-trees overlapping the
  appended leaf range (:func:`~repro.core.partitioning.dirty_subtrees`)
  and re-merge through the same finalize/traceback — **bit-identical**
  to a from-scratch build at the same parameters (``rho = 0``; the
  differential suite in ``tests/test_serving_incremental.py`` proves it
  across all three runtimes).
* :class:`GreedyMaintainer` — a *compositional* greedy tier.  Exact
  incremental DGreedyAbs is impossible (one new average perturbs every
  root coefficient and hence every base sub-tree's incoming error), so
  the serving tier decomposes ``d_i = avg_j + detail_i`` instead: each
  base sub-tree is greedy-thresholded in isolation with zero incoming
  error (:func:`~repro.core.dgreedy.base_subtree_greedy`), the root
  sub-tree over the averages (:func:`~repro.core.dgreedy.
  root_subtree_greedy`), and the published guarantee is the triangle
  inequality's ``e_root + max_j e_j`` (proof sketch in
  docs/SERVING.md).  An append recomputes only the dirtied base runs
  plus the (cheap, ``R``-element) root run; cached runs are pure
  functions of their slice, so incremental == scratch bit-for-bit.

Growing ``N`` past the current power of two invalidates every cached
sub-tree (the tree re-shapes), so both maintainers detect the length
change and fall back to a full rebuild — amortized-rare under append
workloads (doubling happens ``O(log N)`` times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.greedy_abs import greedy_abs
from repro.algos.minhaarspace import approx_params, min_haar_space
from repro.core.dgreedy import base_subtree_greedy, root_subtree_greedy
from repro.core.dp_framework import DPRowCache, LayeredDPDriver, MinHaarSpaceDP
from repro.core.partitioning import (
    dirty_base_range,
    local_to_global,
    root_base_partition,
)
from repro.exceptions import InfeasibleErrorBound, InvalidInputError
from repro.mapreduce.cluster import SimulatedCluster
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import is_power_of_two

__all__ = ["MaintenanceStats", "GreedyMaintainer", "DPMaintainer"]

#: Feasibility-escalation bound: the DP maintainer doubles a pinned
#: epsilon at most this many times before giving up (2^64 covers any
#: float64 data range).
_MAX_EPSILON_ESCALATIONS = 64


@dataclass(frozen=True)
class MaintenanceStats:
    """What one rebuild actually recomputed.

    ``mode`` is ``"full"`` (every sub-tree ran), ``"incremental"`` (only
    the dirty slice ran), or ``"centralized"`` (the series is too small
    for a sub-tree partition and was rebuilt whole).
    """

    mode: str
    dirty_subtrees: int
    total_subtrees: int
    reused_subtrees: int


class GreedyMaintainer:
    """Compositional greedy tier: per-sub-tree runs cached across appends."""

    tier = "greedy"

    def __init__(self, budget: int, base_leaves: int = 1024) -> None:
        if budget < 0:
            raise InvalidInputError("budget must be non-negative")
        if not is_power_of_two(base_leaves) or base_leaves < 2:
            raise InvalidInputError("base_leaves must be a power of two >= 2")
        self.budget = budget
        self.base_leaves = base_leaves
        self._n = 0
        self._complete = False
        self._averages = np.empty(0, dtype=np.float64)
        self._local_errors = np.empty(0, dtype=np.float64)
        self._local_retained: list[dict[int, float]] = []

    def _allocation(self, n: int, root_size: int) -> tuple[int, int]:
        """Deterministic budget split: (root budget, per-sub-tree budget).

        Root-first: the root tree is only ``R`` of the ``N`` slots, and
        retaining it *fully* makes the cross-sub-tree term of the
        guarantee vanish (``e_root = 0``), leaving just ``max_j e_j`` —
        so the root gets up to ``R`` coefficients before the remainder
        splits evenly across base sub-trees.  A pure function of
        ``(budget, n, root_size)``, so incremental and scratch builds
        always allocate identically.
        """
        if self.budget <= 0:
            return 0, 0
        b_root = min(self.budget, root_size)
        return b_root, (self.budget - b_root) // root_size

    def build(
        self,
        values: ArrayLike,
        dirty: tuple[int, int] | None = None,
        cluster: SimulatedCluster | None = None,
    ) -> tuple[WaveletSynopsis, MaintenanceStats]:
        """(Re)build the synopsis; ``dirty`` is the appended leaf range.

        ``values`` is the full padded buffer.  ``dirty=None`` — or any
        state mismatch (length change, no complete prior build) — forces
        a full rebuild.  ``cluster`` is accepted for interface symmetry
        with :class:`DPMaintainer`; this tier runs driver-side.
        """
        data = np.asarray(values, dtype=np.float64)
        if data.ndim != 1 or not is_power_of_two(int(data.shape[0])):
            raise InvalidInputError("serving buffer length must be a power of two")
        n = int(data.shape[0])
        if n != self._n or not self._complete:
            dirty = None
        if n < 4:
            self._n = n
            self._complete = False
            synopsis = greedy_abs(data, self.budget)
            guarantee = float(synopsis.meta["max_abs_error"])
            synopsis.meta.update(
                {"algorithm": "ServingGreedy", "serving_guarantee": guarantee}
            )
            return synopsis, MaintenanceStats("centralized", 1, 1, 0)

        base = self.base_leaves if self.base_leaves < n else n // 2
        root_size, _ = root_base_partition(n, base)
        if dirty is None:
            first, last = 0, root_size
            if n != self._n or len(self._local_retained) != root_size:
                self._n = n
                self._averages = np.zeros(root_size, dtype=np.float64)
                self._local_errors = np.zeros(root_size, dtype=np.float64)
                self._local_retained = [{} for _ in range(root_size)]
        else:
            first, last = dirty_base_range(n, base, dirty[0], dirty[1])

        b_root, b_base = self._allocation(n, root_size)
        for j in range(first, last):
            retained, error, average = base_subtree_greedy(
                data[j * base : (j + 1) * base], b_base
            )
            self._local_retained[j] = retained
            self._local_errors[j] = error
            self._averages[j] = average
        root_retained, root_error = root_subtree_greedy(self._averages, b_root)

        coefficients: dict[int, float] = dict(root_retained)
        for j, retained in enumerate(self._local_retained):
            subtree_root = root_size + j
            for node, value in retained.items():
                coefficients[local_to_global(subtree_root, node)] = value
        worst_local = float(np.max(self._local_errors))
        guarantee = float(root_error) + worst_local
        self._complete = True
        dirty_count = last - first
        synopsis = WaveletSynopsis(
            n=n,
            coefficients=coefficients,
            meta={
                "algorithm": "ServingGreedy",
                "budget": self.budget,
                "base_leaves": base,
                "serving_guarantee": guarantee,
                "root_error": float(root_error),
                "worst_local_error": worst_local,
            },
        )
        mode = "full" if dirty_count == root_size else "incremental"
        return synopsis, MaintenanceStats(
            mode, dirty_count, root_size, root_size - dirty_count
        )


class DPMaintainer:
    """Pinned-epsilon MinHaarSpace tier with a row cache across appends."""

    tier = "dp"

    def __init__(
        self,
        epsilon: float,
        delta: float = 1.0,
        subtree_leaves: int = 1024,
        rho: float = 0.0,
    ) -> None:
        if epsilon < 0:
            raise InvalidInputError("epsilon must be non-negative")
        if delta <= 0:
            raise InvalidInputError("delta must be strictly positive")
        if not is_power_of_two(subtree_leaves) or subtree_leaves < 2:
            raise InvalidInputError("subtree_leaves must be a power of two >= 2")
        if rho < 0:
            raise InvalidInputError("rho must be non-negative")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.subtree_leaves = subtree_leaves
        self.rho = float(rho)
        self._n = 0
        self._complete = False
        self._cache = DPRowCache()

    def build(
        self,
        values: ArrayLike,
        dirty: tuple[int, int] | None = None,
        cluster: SimulatedCluster | None = None,
    ) -> tuple[WaveletSynopsis, MaintenanceStats]:
        """(Re)build at the pinned epsilon; ``dirty`` is the appended range.

        When appended data makes the pinned target infeasible the
        maintainer *escalates*: epsilon doubles (cache cleared, full
        rebuild) until the DP is feasible again — a deterministic pure
        function of ``(data, initial epsilon)``, so incremental and
        scratch stores escalate identically (docs/SERVING.md).
        """
        data = np.asarray(values, dtype=np.float64)
        if data.ndim != 1 or not is_power_of_two(int(data.shape[0])):
            raise InvalidInputError("serving buffer length must be a power of two")
        n = int(data.shape[0])
        cluster = cluster or SimulatedCluster()
        if n != self._n or not self._complete:
            self._cache.clear()
            self._n = n
            dirty = None
        for _attempt in range(_MAX_EPSILON_ESCALATIONS):
            try:
                return self._build_once(data, n, cluster, dirty)
            except InfeasibleErrorBound:
                self.epsilon *= 2.0
                self._cache.clear()
                self._complete = False
                dirty = None
        raise InfeasibleErrorBound(
            f"serving DP error target did not become feasible within "
            f"{_MAX_EPSILON_ESCALATIONS} doublings (epsilon={self.epsilon})"
        )

    def _build_once(
        self,
        data: np.ndarray,
        n: int,
        cluster: SimulatedCluster,
        dirty: tuple[int, int] | None,
    ) -> tuple[WaveletSynopsis, MaintenanceStats]:
        epsilon_dp, delta_eff = approx_params(self.epsilon, self.delta, n, self.rho)
        if n == 1:
            with cluster.driver():
                solution = min_haar_space(data, self.epsilon, self.delta, rho=self.rho)
            synopsis = solution.synopsis
            synopsis.meta.update(
                {
                    "algorithm": "ServingDP",
                    "serving_guarantee": epsilon_dp,
                    "epsilon_target": self.epsilon,
                }
            )
            self._complete = False
            return synopsis, MaintenanceStats("centralized", 1, 1, 0)

        dp = MinHaarSpaceDP(epsilon_dp, delta_eff)
        driver = LayeredDPDriver(dp, cluster, self.subtree_leaves)
        result = driver.bottom_up(data, cache=self._cache, dirty_range=dirty)
        with cluster.driver():
            size, error, chosen = dp.finalize(result.top_row, result.overall_average)
        coefficients: dict[int, float] = {}
        if chosen != 0:
            coefficients[0] = chosen * delta_eff
        coefficients.update(driver.top_down(n, result.row_store, chosen))
        self._complete = True

        height = min(self.subtree_leaves.bit_length() - 1, n.bit_length() - 1)
        leaf_count = 1 << height
        total = n // leaf_count
        if dirty is None:
            dirty_count = total
        else:
            first, last = dirty_base_range(n, leaf_count, dirty[0], dirty[1])
            dirty_count = last - first
        synopsis = WaveletSynopsis(
            n=n,
            coefficients=coefficients,
            meta={
                "algorithm": "ServingDP",
                "epsilon_target": self.epsilon,
                "delta": delta_eff,
                "rho": self.rho,
                "dp_size": size,
                "max_abs_error": error,
                "serving_guarantee": epsilon_dp,
            },
        )
        mode = "full" if dirty_count == total else "incremental"
        return synopsis, MaintenanceStats(mode, dirty_count, total, total - dirty_count)
