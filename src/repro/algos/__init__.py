"""Centralized thresholding algorithms (the paper's baselines).

* :func:`greedy_abs` / :func:`greedy_rel` — Karras & Mamoulis's one-pass
  greedy heuristics for max-abs / max-rel error (Section 5.1, 5.4);
* :func:`min_haar_space` — the dual-problem DP (Problem 2);
* :func:`indirect_haar` — Problem 1 via binary search over the dual
  (Algorithm 2);
* :func:`conventional_synopsis` — the L2-optimal baseline (Section 2.3).
"""

from repro.algos.conventional import (
    conventional_synopsis,
    largest_coefficient,
    top_b_indices,
)
from repro.algos.greedy_abs import (
    GreedyAbsTree,
    GreedyRun,
    Removal,
    greedy_abs,
    greedy_abs_order,
)
from repro.algos.greedy_rel import GreedyRelTree, greedy_rel, greedy_rel_order
from repro.algos.heap import AddressableMinHeap
from repro.algos.indirect_haar import indirect_haar, indirect_haar_search
from repro.algos.minhaarspace import (
    DualSolution,
    MRow,
    approx_params,
    combine_rows,
    combine_rows_restricted,
    compute_subtree_rows,
    compute_subtree_rows_restricted,
    effective_delta,
    finalize_root,
    finalize_root_restricted,
    leaf_row,
    min_haar_space,
    min_haar_space_restricted,
    traceback_subtree,
)

__all__ = [
    "AddressableMinHeap",
    "DualSolution",
    "GreedyAbsTree",
    "GreedyRelTree",
    "GreedyRun",
    "MRow",
    "Removal",
    "approx_params",
    "combine_rows",
    "combine_rows_restricted",
    "compute_subtree_rows",
    "compute_subtree_rows_restricted",
    "effective_delta",
    "conventional_synopsis",
    "finalize_root",
    "finalize_root_restricted",
    "greedy_abs",
    "greedy_abs_order",
    "greedy_rel",
    "greedy_rel_order",
    "indirect_haar",
    "indirect_haar_search",
    "largest_coefficient",
    "leaf_row",
    "min_haar_space",
    "min_haar_space_restricted",
    "top_b_indices",
    "traceback_subtree",
]
