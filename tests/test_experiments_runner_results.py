"""Tests for the experiment runner, result containers and reporting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ValidationError
from repro.core.descriptive import VotingEstimator
from repro.core.total_error import SwitchTotalErrorEstimator
from repro.experiments.reporting import render_series_table, render_summary, series_to_csv
from repro.experiments.results import EstimateSeries, ExperimentResult, TracePoint, build_series
from repro.experiments.runner import EstimationRunner, RunnerConfig
from repro.experiments.scm import sample_clean_minimum


class TestRunnerConfig:
    def test_checkpoints_default_spacing(self):
        config = RunnerConfig(num_checkpoints=5)
        assert config.resolve_checkpoints(100) == [20, 40, 60, 80, 100]

    def test_checkpoints_when_columns_fewer_than_requested(self):
        config = RunnerConfig(num_checkpoints=20)
        assert config.resolve_checkpoints(4) == [1, 2, 3, 4]

    def test_explicit_checkpoints_filtered_to_range(self):
        config = RunnerConfig(checkpoints=[5, 10, 500])
        assert config.resolve_checkpoints(50) == [5, 10]

    def test_explicit_checkpoints_never_empty(self):
        config = RunnerConfig(checkpoints=[500])
        assert config.resolve_checkpoints(50) == [50]

    def test_invalid_permutations_rejected(self):
        with pytest.raises(Exception):
            RunnerConfig(num_permutations=0)


class TestEstimationRunner:
    def test_accepts_registry_names_and_instances(self, noisy_crowd_simulation):
        runner = EstimationRunner(["voting", SwitchTotalErrorEstimator()], RunnerConfig(num_permutations=2, num_checkpoints=4))
        result = runner.run(noisy_crowd_simulation.matrix, ground_truth=20.0)
        assert set(result.series) == {"voting", "switch_total"}

    def test_duplicate_estimator_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            EstimationRunner([VotingEstimator(), VotingEstimator()])

    def test_empty_estimator_list_rejected(self):
        with pytest.raises(ValueError):
            EstimationRunner([])

    def test_series_lengths_match_checkpoints(self, noisy_crowd_simulation):
        runner = EstimationRunner(["voting"], RunnerConfig(num_permutations=3, num_checkpoints=6))
        result = runner.run(noisy_crowd_simulation.matrix)
        series = result.series["voting"]
        assert len(series.points) == len(result.metadata["checkpoints"])
        assert all(len(p.values) == 3 for p in series.points)

    def test_voting_series_is_permutation_invariant_at_full_prefix(self, noisy_crowd_simulation):
        runner = EstimationRunner(["voting"], RunnerConfig(num_permutations=4, num_checkpoints=3))
        result = runner.run(noisy_crowd_simulation.matrix)
        final = result.series["voting"].final()
        # At the full prefix every permutation sees the same votes.
        assert final.std == 0.0

    def test_ground_truth_and_metadata_recorded(self, noisy_crowd_simulation):
        runner = EstimationRunner(["voting"], RunnerConfig(num_permutations=2, num_checkpoints=3))
        result = runner.run(noisy_crowd_simulation.matrix, ground_truth=20.0, metadata={"tag": "x"})
        assert result.ground_truth == 20.0
        assert result.metadata["tag"] == "x"
        assert result.metadata["num_permutations"] == 2

    def test_runner_deterministic_for_seed(self, noisy_crowd_simulation):
        config = RunnerConfig(num_permutations=3, num_checkpoints=4, seed=5)
        a = EstimationRunner(["switch_total"], config).run(noisy_crowd_simulation.matrix)
        b = EstimationRunner(["switch_total"], config).run(noisy_crowd_simulation.matrix)
        assert a.series["switch_total"].means == b.series["switch_total"].means


class TestEngines:
    NAMES = ["voting", "nominal", "chao92", "vchao92", "extrapolation", "switch", "switch_total"]

    def test_invalid_engine_rejected(self):
        with pytest.raises(Exception, match="engine"):
            RunnerConfig(engine="tensor")

    def test_serial_engine_runs_in_process_only(self):
        with pytest.raises(ValidationError, match="serial engine runs in-process"):
            RunnerConfig(engine="serial", n_jobs=2)
        assert RunnerConfig(engine="serial", n_jobs=1).n_jobs == 1

    def test_default_engine_is_batch(self, noisy_crowd_simulation):
        config = RunnerConfig(num_permutations=2, num_checkpoints=3)
        assert config.engine == "batch"
        result = EstimationRunner(["voting"], config).run(noisy_crowd_simulation.matrix)
        assert result.metadata["engine"] == "batch"

    def test_batch_engine_identical_to_serial_engine(self, noisy_crowd_simulation):
        """The tensor engine must not move a single float on any estimator.

        Permutation counts straddle 8, numpy's pairwise-summation block:
        below it a mean or std reduced along the wrong axis still agrees.
        """
        matrix = noisy_crowd_simulation.matrix
        for num_permutations in (1, 8, 12, 33):
            shared = dict(num_permutations=num_permutations, num_checkpoints=5, seed=21)
            batch = EstimationRunner(
                self.NAMES, RunnerConfig(engine="batch", **shared)
            ).run(matrix)
            serial = EstimationRunner(
                self.NAMES, RunnerConfig(engine="serial", **shared)
            ).run(matrix)
            assert batch.metadata["checkpoints"] == serial.metadata["checkpoints"]
            for name in self.NAMES:
                pairs = zip(batch.series[name].points, serial.series[name].points, strict=True)
                for a, b in pairs:
                    assert len(a.values) == num_permutations
                    assert (a.num_tasks, a.values, a.mean, a.std) == (
                        b.num_tasks,
                        b.values,
                        b.mean,
                        b.std,
                    ), (name, num_permutations)

    def test_batch_engine_chunked_dispatch_identical(self, noisy_crowd_simulation):
        """Chunked n_jobs dispatch of the batch engine changes nothing."""
        matrix = noisy_crowd_simulation.matrix
        shared = dict(num_permutations=5, num_checkpoints=4, seed=13, engine="batch")
        one = EstimationRunner(
            ["chao92", "switch_total"], RunnerConfig(n_jobs=1, **shared)
        ).run(matrix)
        three = EstimationRunner(
            ["chao92", "switch_total"], RunnerConfig(n_jobs=3, **shared)
        ).run(matrix)
        for name in ("chao92", "switch_total"):
            for a, b in zip(one.series[name].points, three.series[name].points):
                assert a.values == b.values


class TestParallelRunner:
    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(Exception):
            RunnerConfig(n_jobs=0)

    def test_parallel_results_identical_to_serial(self, noisy_crowd_simulation):
        """n_jobs must not change a single estimate: only the scheduling moves."""
        matrix = noisy_crowd_simulation.matrix
        names = ["voting", "chao92", "vchao92", "switch", "switch_total"]
        serial = EstimationRunner(
            names, RunnerConfig(num_permutations=4, num_checkpoints=5, seed=21, n_jobs=1)
        ).run(matrix, ground_truth=20.0)
        parallel = EstimationRunner(
            names, RunnerConfig(num_permutations=4, num_checkpoints=5, seed=21, n_jobs=3)
        ).run(matrix, ground_truth=20.0)
        assert serial.metadata["checkpoints"] == parallel.metadata["checkpoints"]
        for name in names:
            for a, b in zip(serial.series[name].points, parallel.series[name].points):
                assert a.values == b.values
                assert a.num_tasks == b.num_tasks

    def test_pool_never_larger_than_trial_count(self, noisy_crowd_simulation):
        config = RunnerConfig(num_permutations=2, num_checkpoints=3, seed=1, n_jobs=16)
        result = EstimationRunner(["voting"], config).run(noisy_crowd_simulation.matrix)
        assert result.metadata["n_jobs"] == 2

    def test_broken_multiprocessing_falls_back_to_serial(
        self, noisy_crowd_simulation, monkeypatch
    ):
        """Platforms without usable multiprocessing warn and run serially."""
        import repro.experiments.runner as runner_module

        def broken_get_context(*args, **kwargs):
            raise OSError("sem_open is not implemented on this platform")

        matrix = noisy_crowd_simulation.matrix
        serial = EstimationRunner(
            ["voting", "chao92"],
            RunnerConfig(num_permutations=3, num_checkpoints=4, seed=9, n_jobs=1),
        ).run(matrix)

        monkeypatch.setattr(
            runner_module.multiprocessing, "get_context", broken_get_context
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            fallback = EstimationRunner(
                ["voting", "chao92"],
                RunnerConfig(num_permutations=3, num_checkpoints=4, seed=9, n_jobs=4),
            ).run(matrix)

        assert fallback.metadata["n_jobs"] == 1
        for name in ("voting", "chao92"):
            assert fallback.series[name].means == serial.series[name].means


def _reference_series(checkpoints, per_trial):
    """One checkpoint at a time, as ``build_series`` once reduced them."""
    points = []
    for index, num_tasks in enumerate(checkpoints):
        values = tuple(float(trial[index]) for trial in per_trial)
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        points.append((num_tasks, mean, std, values))
    return points


class TestBuildSeries:
    @given(
        num_trials=st.integers(min_value=1, max_value=300),
        num_checkpoints=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_checkpoint_reduction(self, num_trials, num_checkpoints, seed):
        """Every mean and std is bit-identical to the 1-D reduction of its column."""
        rng = np.random.default_rng(seed)
        # Log-uniform over 1e-3 .. 1e6, so sums mix magnitudes.
        trials = 10.0 ** rng.uniform(-3.0, 6.0, size=(num_trials, num_checkpoints))
        checkpoints = list(range(10, 10 * num_checkpoints + 1, 10))
        series = build_series("demo", checkpoints, trials)
        expected = _reference_series(checkpoints, trials.tolist())
        assert len(series.points) == len(expected)
        for point, (num_tasks, mean, std, values) in zip(series.points, expected):
            assert point.num_tasks == num_tasks
            assert point.values == values
            assert all(type(value) is float for value in point.values)
            assert repr(point.mean) == repr(mean)
            assert repr(point.std) == repr(std)

    def test_accepts_nested_lists_and_a_single_trial(self):
        series = build_series("demo", [1, 2], [[3.0, 4.5]])
        assert [(p.mean, p.std, p.values) for p in series.points] == [
            (3.0, 0.0, (3.0,)),
            (4.5, 0.0, (4.5,)),
        ]


class TestResultContainers:
    def _series(self):
        return build_series("demo", [10, 20], [[5.0, 8.0], [7.0, 10.0]])

    def test_build_series_aggregates_trials(self):
        series = self._series()
        assert series.x == [10, 20]
        assert series.means == [6.0, 9.0]
        assert series.points[0].values == (5.0, 7.0)

    def test_value_at_picks_closest_checkpoint(self):
        series = self._series()
        assert series.value_at(12) == 6.0
        assert series.value_at(100) == 9.0

    def test_final_and_srmse(self):
        series = self._series()
        assert series.final().num_tasks == 20
        # final values are (8, 10) against truth 10: RMSE = sqrt((4 + 0) / 2).
        assert series.srmse(10.0) == pytest.approx(((4 + 0) / 2) ** 0.5 / 10)

    def test_mean_absolute_error(self):
        series = self._series()
        assert series.mean_absolute_error(10.0) == pytest.approx((4.0 + 1.0) / 2)

    def test_empty_series_raises(self):
        series = EstimateSeries(estimator_name="empty")
        with pytest.raises(ValueError):
            series.value_at(1)
        assert series.final() is None

    def test_experiment_result_tables(self):
        result = ExperimentResult(name="exp", ground_truth=10.0)
        result.add_series(self._series())
        assert result.final_estimates() == {"demo": 9.0}
        assert "demo" in result.srmse_table()

    def test_srmse_table_empty_without_truth(self):
        result = ExperimentResult(name="exp")
        result.add_series(self._series())
        assert result.srmse_table() == {}


class TestReporting:
    def _result(self):
        result = ExperimentResult(name="report-demo", ground_truth=10.0)
        result.add_series(build_series("a", [1, 2, 3], [[1.0, 2.0, 3.0]]))
        result.add_series(build_series("b", [1, 2, 3], [[2.0, 4.0, 6.0]]))
        return result

    def test_table_contains_headers_and_truth(self):
        table = render_series_table(self._result())
        assert "tasks" in table and "a" in table and "b" in table and "truth" in table

    def test_table_row_limit(self):
        table = render_series_table(self._result(), max_rows=2)
        data_lines = [line for line in table.splitlines()[3:] if line.strip()]
        assert len(data_lines) <= 3

    def test_table_for_empty_result(self):
        assert "(no series)" in render_series_table(ExperimentResult(name="empty"))

    def test_csv_round_trip_shape(self):
        csv = series_to_csv(self._result())
        lines = csv.strip().splitlines()
        assert lines[0] == "tasks,a,b,truth"
        assert len(lines) == 4

    def test_summary_mentions_every_estimator(self):
        summary = render_summary(self._result())
        assert "a:" in summary and "b:" in summary


class TestSampleCleanMinimum:
    def test_paper_formula(self):
        # 3 workers x S records / p records-per-task.
        assert sample_clean_minimum(100, workers_per_record=3, records_per_task=10) == 30

    def test_rounds_up(self):
        assert sample_clean_minimum(101, workers_per_record=3, records_per_task=10) == 31

    def test_zero_sample(self):
        assert sample_clean_minimum(0) == 0

    def test_invalid_arguments(self):
        with pytest.raises(Exception):
            sample_clean_minimum(-1)
        with pytest.raises(Exception):
            sample_clean_minimum(10, workers_per_record=0)
