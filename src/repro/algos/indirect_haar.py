"""IndirectHaar: answering Problem 1 through the dual DP (Algorithm 2).

The primal problem (budget ``B``, minimize max-abs error) is solved by
binary search over the error bound: each probe runs MinHaarSpace (or its
distributed twin DMHaarSpace — the solver is injected) and compares the
resulting synopsis size against ``B``.

The search brackets are the paper's (Algorithm 2, lines 1-2): the error of
the conventional ``B``-term synopsis above, and the ``(B+1)``-largest
coefficient magnitude below.  Because the solution space is quantized by
``delta``, the upper bracket is re-expanded when quantization makes it
infeasible, and the search also terminates once the bracket shrinks below
one quantum.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from numpy.typing import ArrayLike

from repro.algos.conventional import conventional_synopsis, largest_coefficient
from repro.algos.minhaarspace import DualSolution, min_haar_space
from repro.exceptions import InfeasibleErrorBound, InvalidInputError
from repro.wavelet.synopsis import WaveletSynopsis
from repro.wavelet.transform import haar_transform

__all__ = ["indirect_haar", "indirect_haar_search", "search_resolution"]

Solver = Callable[[float], DualSolution]


def search_resolution(error_high: float, delta: float, n: int, rho: float) -> float:
    """Binary-search step matched to the solver's grid resolution.

    The exact DP resolves error bounds to within ``delta``, so Algorithm 2
    terminates once its bracket shrinks below one quantum.  The
    approximate tier's grid is the coarsened ``delta'`` of
    :func:`~repro.algos.minhaarspace.approx_params` — searching finer
    than that re-solves near-identical coarse DPs for no gain (each one a
    full distributed pass in DIndirectHaar).  The resolution is evaluated
    at the upper bracket, the scale of every epsilon the search can
    probe; the winning synopsis then satisfies ``error <= (1 + rho) *
    (E_exact + resolution)``.
    """
    if rho <= 0:
        return delta
    from repro.algos.minhaarspace import approx_params

    _, coarse = approx_params(max(error_high, delta), delta, n, rho)
    return max(delta, coarse)


def indirect_haar_search(
    solver: Solver,
    error_low: float,
    error_high: float,
    budget: int,
    delta: float,
    max_iterations: int = 48,
) -> tuple[DualSolution, int]:
    """Algorithm 2's binary search, decoupled from how probes are solved.

    Returns ``(best_solution, solver_runs)``; the best solution is the one
    with minimum achieved error among all probes of size <= ``budget``.

    Probes are memoized: re-probing an already-solved ``epsilon`` (the
    optimality check of lines 9-11 frequently lands on one) returns the
    cached :class:`DualSolution` without touching the solver, and any
    probe at or below the tightest bound already known to fail — too big
    for the budget, or quantization-infeasible — is answered from that
    failure by the same monotonicity the bracket updates rely on
    (shrinking ``epsilon`` never shrinks the minimum size).  ``runs``
    counts actual solver invocations, so skipped probes are visible as a
    lower ``dp_runs`` in the synopsis metadata.
    """
    if budget < 0:
        raise InvalidInputError("budget must be non-negative")
    if delta <= 0:
        raise InvalidInputError("delta must be strictly positive")

    runs = 0
    best: DualSolution | None = None
    cache: dict[float, DualSolution | None] = {}
    # Largest epsilon known to fail (over budget or infeasible), with its
    # recorded outcome: every probe at or below it is implied.
    failed_at = -np.inf
    failed_result: DualSolution | None = None

    def probe(epsilon: float) -> DualSolution | None:
        nonlocal runs, best, failed_at, failed_result
        clamped = max(epsilon, delta)
        if clamped in cache:
            return cache[clamped]
        if clamped <= failed_at:
            return failed_result
        runs += 1
        try:
            solution: DualSolution | None = solver(clamped)
        except InfeasibleErrorBound:
            solution = None
        cache[clamped] = solution
        if solution is None or solution.size > budget:
            if clamped > failed_at:
                failed_at = clamped
                failed_result = solution
        elif best is None or solution.max_error < best.max_error:
            best = solution
        return solution

    # Quantization may make the nominal upper bracket infeasible: expand.
    e_high = max(error_high, delta)
    expansion_guard = 0
    while expansion_guard < 32:
        solution = probe(e_high)
        if solution is not None and solution.size <= budget:
            break
        e_high *= 2.0
        expansion_guard += 1
    if best is None:
        raise InfeasibleErrorBound(
            "could not find any feasible synopsis within the budget"
        )

    e_low = min(error_low, e_high)
    finished = False
    iterations = 0
    while not finished and iterations < max_iterations and e_high - e_low > delta:
        iterations += 1
        e_mid = (e_high + e_low) / 2.0
        solution = probe(e_mid)
        if solution is None:  # quantization-infeasible: treat as too tight
            e_low = e_mid
            continue
        if solution.size <= budget:
            achieved = solution.max_error
            if achieved > e_mid:
                # Only the approximate tier lands here: the achieved error
                # may exceed the probe's bound by up to its (1 + rho)
                # inflation, so the lines 9-11 shortcut below (which jumps
                # the bracket to the achieved error) would *raise* e_high.
                # Bisect on the bound itself instead.
                e_high = e_mid
                continue
            # Optimality check (lines 9-11): can a strictly smaller error
            # bound still fit the budget?
            tighter = probe(achieved - delta)
            if tighter is None or tighter.size > budget:
                finished = True
            else:
                e_high = min(achieved, e_high - delta)
        else:
            e_low = e_mid

    return best, runs


def indirect_haar(
    data: ArrayLike,
    budget: int,
    delta: float,
    solver: Solver | None = None,
    max_iterations: int = 48,
    restricted: bool = False,
    rho: float = 0.0,
) -> WaveletSynopsis:
    """Centralized IndirectHaar: best max-abs synopsis within ``budget``.

    ``solver`` defaults to centralized MinHaarSpace over ``data``
    (unrestricted, as the paper's footnote 2; ``restricted=True`` swaps in
    the classic restricted search space); the distributed driver passes
    DMHaarSpace instead.

    ``rho > 0`` answers every probe with the approximate DP tier
    (:func:`repro.algos.minhaarspace.approx_params`): the synopsis still
    respects ``budget``, and because each probe at bound ``e`` achieves
    error at most ``(1 + rho) * e``, the search's winner has error at
    most ``(1 + rho) * (E_exact + delta)`` where ``E_exact`` is the
    exact search's result.  ``rho`` is ignored when an explicit
    ``solver`` is supplied.
    """
    values = np.asarray(data, dtype=np.float64)
    coefficients = haar_transform(values)

    conventional = conventional_synopsis(values, budget)
    error_high = conventional.max_abs_error(values)
    if error_high == 0.0:  # lint: ignore[KC002]
        conventional.meta.update({"algorithm": "IndirectHaar", "dp_runs": 0, "rho": rho})
        return conventional
    error_low = largest_coefficient(coefficients, budget + 1)

    if solver is None:
        if restricted:
            from repro.algos.minhaarspace import min_haar_space_restricted

            solver = lambda epsilon: min_haar_space_restricted(  # noqa: E731
                values, epsilon, delta, rho=rho
            )
        else:
            solver = lambda epsilon: min_haar_space(  # noqa: E731
                values, epsilon, delta, rho=rho
            )

    best, runs = indirect_haar_search(
        solver,
        error_low,
        error_high,
        budget,
        search_resolution(error_high, delta, int(values.shape[0]), rho),
        max_iterations,
    )
    synopsis = best.synopsis
    synopsis.meta.update(
        {
            "algorithm": "IndirectHaar",
            "budget": budget,
            "delta": delta,
            "rho": rho,
            "max_abs_error": best.max_error,
            "dp_runs": runs,
        }
    )
    return synopsis
