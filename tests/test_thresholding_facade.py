"""Tests for the build_synopsis facade."""

import numpy as np
import pytest

from repro import ALGORITHMS, WaveletSynopsis, build_synopsis
from repro.exceptions import InvalidInputError


def uniform_data(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 1000, size=n)


class TestFacade:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_runs_and_respects_budget(self, algorithm):
        data = uniform_data(256, seed=1)
        budget = 32
        synopsis = build_synopsis(
            data, budget, algorithm=algorithm, subtree_leaves=64, delta=4.0
        )
        assert isinstance(synopsis, WaveletSynopsis)
        assert synopsis.size <= budget
        assert synopsis.n == 256

    def test_default_is_dgreedy_abs(self):
        data = uniform_data(128, seed=2)
        synopsis = build_synopsis(data, 16, subtree_leaves=32)
        assert synopsis.meta["algorithm"] == "DGreedyAbs"

    def test_padding_non_power_of_two(self):
        data = uniform_data(100, seed=3)
        synopsis = build_synopsis(data, 16, algorithm="greedy-abs")
        assert synopsis.n == 128
        # Reconstruction over the original prefix is still meaningful.
        approximation = synopsis.reconstruct()[:100]
        assert np.max(np.abs(approximation - data)) < 1000.0

    def test_padding_can_be_disabled(self):
        with pytest.raises(InvalidInputError):
            build_synopsis(uniform_data(100), 16, algorithm="greedy-abs", pad=False)

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidInputError):
            build_synopsis(uniform_data(64), 8, algorithm="magic")

    def test_max_error_algorithms_beat_conventional(self):
        data = uniform_data(256, seed=4)
        budget = 32
        conventional = build_synopsis(data, budget, algorithm="conventional")
        for algorithm in ("greedy-abs", "dgreedy-abs", "indirect-haar"):
            synopsis = build_synopsis(
                data, budget, algorithm=algorithm, subtree_leaves=64, delta=1.0
            )
            assert synopsis.max_abs_error(data) <= conventional.max_abs_error(data) * 1.05

    def test_cluster_log_is_reported(self):
        from repro.mapreduce import SimulatedCluster

        cluster = SimulatedCluster()
        data = uniform_data(128, seed=5)
        synopsis = build_synopsis(
            data, 16, algorithm="dgreedy-abs", cluster=cluster, subtree_leaves=32
        )
        assert synopsis.meta["cluster"]["jobs"] == cluster.log.job_count
        assert cluster.simulated_seconds > 0

    def test_point_and_range_queries_work_end_to_end(self):
        data = uniform_data(256, seed=6)
        synopsis = build_synopsis(data, 64, algorithm="greedy-abs")
        exact_sum = data[10:50].sum()
        approx_sum = synopsis.range_sum(10, 49)
        assert abs(approx_sum - exact_sum) / exact_sum < 0.5


class TestNonFiniteData:
    """NaN/inf data fails cleanly before any algorithm or job runs."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_rejected_before_any_job(self, algorithm, bad):
        from repro.mapreduce import SimulatedCluster

        data = uniform_data(64, seed=7)
        data[5] = bad
        cluster = SimulatedCluster()
        with pytest.raises(InvalidInputError, match="finite"):
            build_synopsis(
                data, 8, algorithm=algorithm, cluster=cluster, subtree_leaves=16
            )
        assert cluster.log.jobs == []
