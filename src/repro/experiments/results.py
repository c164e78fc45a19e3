"""Result containers shared by the experiment harness and the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.metrics import scaled_rmse


@dataclass(frozen=True)
class TracePoint:
    """One point of an estimate trace.

    Attributes
    ----------
    num_tasks:
        Position on the x-axis (number of worker-task columns consumed).
    mean:
        Mean estimate across the permutation trials.
    std:
        Sample standard deviation across trials (0 for a single trial).
    values:
        The per-trial estimates the mean/std summarise.
    """

    num_tasks: int
    mean: float
    std: float
    values: tuple


@dataclass
class EstimateSeries:
    """The trace of one estimator across the task stream.

    Attributes
    ----------
    estimator_name:
        Name of the estimator that produced the trace.
    points:
        Trace points ordered by ``num_tasks``.
    """

    estimator_name: str
    points: List[TracePoint] = field(default_factory=list)

    @property
    def x(self) -> List[int]:
        """The task counts of the trace."""
        return [p.num_tasks for p in self.points]

    @property
    def means(self) -> List[float]:
        """The mean estimates of the trace."""
        return [p.mean for p in self.points]

    @property
    def stds(self) -> List[float]:
        """The per-point standard deviations."""
        return [p.std for p in self.points]

    def final(self) -> Optional[TracePoint]:
        """The last point of the trace (``None`` for an empty trace)."""
        return self.points[-1] if self.points else None

    def value_at(self, num_tasks: int) -> float:
        """Mean estimate at the trace point closest to ``num_tasks``."""
        if not self.points:
            raise ValueError("the series is empty")
        closest = min(self.points, key=lambda p: abs(p.num_tasks - num_tasks))
        return closest.mean

    def srmse(self, truth: float) -> float:
        """Scaled RMSE of the final point's per-trial estimates against ``truth``."""
        final = self.final()
        if final is None:
            raise ValueError("the series is empty")
        return scaled_rmse(final.values, truth)

    def mean_absolute_error(self, truth: float) -> float:
        """Mean absolute error of the trace means against ``truth``."""
        if not self.points:
            raise ValueError("the series is empty")
        return float(np.mean([abs(p.mean - truth) for p in self.points]))


@dataclass
class ExperimentResult:
    """The complete output of one experiment (one figure panel).

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"figure3_restaurant"``).
    series:
        One :class:`EstimateSeries` per estimator, keyed by estimator name.
    ground_truth:
        The true value the estimates should converge to (errors or
        switches, depending on the panel).
    metadata:
        Workload parameters, dataset summaries, SCM cost, extrapolation
        bands — anything the report should carry along.
    """

    name: str
    series: Dict[str, EstimateSeries] = field(default_factory=dict)
    ground_truth: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_series(self, series: EstimateSeries) -> None:
        """Attach a series, keyed by its estimator name."""
        self.series[series.estimator_name] = series

    def estimator_names(self) -> List[str]:
        """Names of the estimators present in the result."""
        return sorted(self.series)

    def final_estimates(self) -> Dict[str, float]:
        """Final mean estimate of every series."""
        return {
            name: series.final().mean
            for name, series in self.series.items()
            if series.final() is not None
        }

    def srmse_table(self) -> Dict[str, float]:
        """Scaled RMSE of every series against the ground truth."""
        if self.ground_truth is None or self.ground_truth == 0:
            return {}
        return {name: series.srmse(self.ground_truth) for name, series in self.series.items()}


def build_series(
    estimator_name: str,
    checkpoints: Sequence[int],
    per_trial_estimates: Union[np.ndarray, Sequence[Sequence[float]]],
) -> EstimateSeries:
    """Assemble an :class:`EstimateSeries` from per-trial estimate traces.

    Parameters
    ----------
    estimator_name:
        Name to attach to the series.
    checkpoints:
        The task counts, one per trace point.
    per_trial_estimates:
        An ``(R, m)`` array (or nested sequence): ``per_trial_estimates[t][i]``
        is trial ``t``'s estimate at checkpoint ``i``; every trial must
        cover every checkpoint.

    Every checkpoint's mean and sample standard deviation (0 for a single
    trial) come from one reduction each along the last axis of a
    C-contiguous ``(m, R)`` copy, so each row is summed exactly as the
    1-D reduction of that checkpoint's values would be; reducing the
    ``(R, m)`` array along axis 0 would not be (numpy sums a strided axis
    in another order).
    """
    trials = np.asarray(per_trial_estimates, dtype=np.float64).reshape(
        len(per_trial_estimates), len(checkpoints)
    )
    columns = np.ascontiguousarray(trials.T)  # (m, R)
    num_trials = columns.shape[1]
    means = columns.mean(axis=1) if num_trials else np.zeros(len(columns))
    stds = columns.std(axis=1, ddof=1) if num_trials > 1 else np.zeros(len(columns))
    return EstimateSeries(
        estimator_name=estimator_name,
        points=[
            TracePoint(num_tasks=int(num_tasks), mean=mean, std=std, values=tuple(values))
            for num_tasks, mean, std, values in zip(
                checkpoints, means.tolist(), stds.tolist(), columns.tolist()
            )
        ],
    )
