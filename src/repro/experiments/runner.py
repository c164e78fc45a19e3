"""The estimation runner: estimators x task-stream prefixes x permutations.

Every figure in the paper plots estimates against the number of consumed
tasks, averaged over ``r = 10`` random permutations of the workers.  The
runner implements exactly that loop:

1. take a fully collected vote matrix,
2. draw ``num_permutations`` random column orders,
3. evaluate every estimator at every checkpoint of every permutation —
   by default through the cross-permutation tensor engine
   (:class:`~repro.core.state.PermutationBatch`): the matrix's votes
   are read once and placed in every permutation, the checkpoint count
   tables become one ``(permutations x checkpoints x items)`` pass and
   all switch scans collapse into a single scan, shared by every
   estimator,
4. aggregate per-checkpoint means and standard deviations into
   :class:`~repro.experiments.results.EstimateSeries`.

``RunnerConfig(engine="serial")`` keeps the classic one-permutation-at-a-
time sweep loop in-process (useful for benchmarking the batch engine
against it); both engines produce bit-identical estimates.

Permutations are independent of each other, so the loop parallelises
across processes: ``RunnerConfig(n_jobs=4)`` farms contiguous chunks of
permutation orders out to a :mod:`multiprocessing` pool — the matrix and
estimators ship once per worker (pool initializer), and each task carries
only its chunk's column-order index arrays, which every worker evaluates
through its own :class:`PermutationBatch`.  The permutation orders are
drawn *before* dispatch from the same seeded generator the serial path
uses, so results are bit-identical for any ``n_jobs`` and either engine
(pinned by ``tests/test_experiments_runner_results.py`` and the golden
scenario suite).
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.rng import RandomState, derive_rng, ensure_rng
from repro.common.validation import check_int
from repro.core.base import EstimatorProtocol, batch_estimates, sweep_estimates
from repro.core.registry import get_estimator
from repro.core.state import PermutationBatch, matrix_sweep_states
from repro.crowd.response_matrix import ResponseMatrix
from repro.experiments.results import EstimateSeries, ExperimentResult, build_series

#: Recognised evaluation engines.
ENGINES = ("batch", "serial")


@dataclass(frozen=True)
class RunnerConfig:
    """Configuration of an estimation run.

    Parameters
    ----------
    num_permutations:
        Number of random column permutations to average over (the paper
        uses 10).
    num_checkpoints:
        Number of evenly spaced prefix lengths at which the estimators are
        evaluated.  Ignored when ``checkpoints`` is given explicitly.
    checkpoints:
        Explicit prefix lengths to evaluate at.
    seed:
        Seed for the permutation randomness.
    n_jobs:
        Worker processes to spread the permutation trials over.  ``1``
        (the default) runs in-process; higher values use a
        :mod:`multiprocessing` pool fed one contiguous chunk of
        permutation orders per worker.  Results are identical for any
        value.
    engine:
        ``"batch"`` (default) evaluates all permutations through the
        cross-permutation tensor engine
        (:class:`~repro.core.state.PermutationBatch`); ``"serial"`` keeps
        the classic one-permutation-at-a-time sweep loop, in-process
        only (``n_jobs=1``).  Results are bit-identical; only the
        wall-clock differs.
    """

    num_permutations: int = 10
    num_checkpoints: int = 20
    checkpoints: Optional[Sequence[int]] = None
    seed: Optional[int] = 0
    n_jobs: int = 1
    engine: str = "batch"

    def __post_init__(self) -> None:
        check_int(self.num_permutations, "num_permutations", minimum=1)
        check_int(self.num_checkpoints, "num_checkpoints", minimum=1)
        check_int(self.n_jobs, "n_jobs", minimum=1)
        if self.engine not in ENGINES:
            raise ValidationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.engine == "serial" and self.n_jobs > 1:
            raise ValidationError(
                f"the serial engine runs in-process: n_jobs must be 1, got {self.n_jobs}"
            )

    def resolve_checkpoints(self, num_columns: int) -> List[int]:
        """The prefix lengths to evaluate for a matrix with ``num_columns`` columns."""
        if self.checkpoints is not None:
            points = sorted({int(c) for c in self.checkpoints if 0 < int(c) <= num_columns})
            return points or [num_columns]
        if num_columns <= self.num_checkpoints:
            return list(range(1, num_columns + 1))
        step = num_columns / self.num_checkpoints
        points = sorted({int(round(step * (i + 1))) for i in range(self.num_checkpoints)})
        return [p for p in points if p >= 1]


def _evaluate_permutation(
    matrix: ResponseMatrix,
    order: Optional[np.ndarray],
    estimators: List[EstimatorProtocol],
    checkpoints: List[int],
) -> Dict[str, np.ndarray]:
    """Evaluate every estimator's sweep for one permutation trial.

    The body of the serial engine's loop, which runs each estimator's
    scalar core per checkpoint.  The sweep states are built once and
    shared by all estimators of the trial.
    """
    permuted = matrix if order is None else matrix.permute_columns(order)
    states = matrix_sweep_states(permuted, checkpoints)
    return {
        estimator.name: np.array(
            [
                result.estimate
                for result in sweep_estimates(
                    estimator, permuted, checkpoints, states=states
                )
            ],
            dtype=np.float64,
        )
        for estimator in estimators
    }


def _evaluate_permutation_batch(
    matrix: ResponseMatrix,
    orders: List[Optional[np.ndarray]],
    estimators: List[EstimatorProtocol],
    checkpoints: List[int],
) -> List[Dict[str, np.ndarray]]:
    """Evaluate a chunk of permutation trials through one tensor batch.

    The body of both the serial batch path and the pool workers of the
    chunked dispatch, guaranteeing the two run identical code.  Returns
    one ``{estimator: estimates}`` dict per order, in order — the same
    shape the per-permutation loop produces; each value is that
    permutation's row of the estimator's ``(R, m)`` estimate array.
    """
    batch = PermutationBatch(
        matrix,
        orders,
        checkpoints,
        reads_switch_scan=any(
            getattr(estimator, "reads_switch_scan", False) for estimator in estimators
        ),
    )
    per_estimator = {
        estimator.name: batch_estimates(estimator, batch).estimates
        for estimator in estimators
    }
    return [
        {name: estimates[p] for name, estimates in per_estimator.items()}
        for p in range(batch.num_permutations)
    ]


def _chunk_orders(
    orders: List[Optional[np.ndarray]], num_chunks: int
) -> List[List[Optional[np.ndarray]]]:
    """Split the trial orders into at most ``num_chunks`` contiguous chunks."""
    size, extra = divmod(len(orders), num_chunks)
    chunks, start = [], 0
    for index in range(num_chunks):
        end = start + size + (1 if index < extra else 0)
        if end > start:
            chunks.append(orders[start:end])
        start = end
    return chunks


#: Per-process trial context installed by the pool initializer: only the
#: permutation orders travel per task, not the (identical) matrix.
_worker_context: Dict[str, object] = {}


def _init_worker(
    matrix: ResponseMatrix,
    estimators: List[EstimatorProtocol],
    checkpoints: List[int],
) -> None:
    """Install the shared trial inputs in a pool worker (once per process)."""
    _worker_context["args"] = (matrix, estimators, checkpoints)


def _evaluate_order_chunk(
    orders: List[Optional[np.ndarray]],
) -> List[Dict[str, np.ndarray]]:
    """Pool task: one chunk of batched trials against the installed context."""
    matrix, estimators, checkpoints = _worker_context["args"]
    return _evaluate_permutation_batch(matrix, orders, estimators, checkpoints)


class EstimationRunner:
    """Evaluate a set of estimators over a vote matrix's task stream.

    Parameters
    ----------
    estimators:
        Estimator instances or registry names.
    config:
        Runner configuration.
    """

    def __init__(
        self,
        estimators: Sequence,
        config: Optional[RunnerConfig] = None,
    ) -> None:
        self.estimators: List[EstimatorProtocol] = [
            get_estimator(e) if isinstance(e, str) else e for e in estimators
        ]
        if not self.estimators:
            raise ValidationError("at least one estimator is required")
        names = [est.name for est in self.estimators]
        if len(set(names)) != len(names):
            raise ValidationError(f"estimator names must be unique, got {names}")
        self.config = config or RunnerConfig()

    def _permutation_orders(
        self, matrix: ResponseMatrix, seed: RandomState
    ) -> List[Optional[np.ndarray]]:
        """Column orders per trial, drawn sequentially from the seeded rng.

        Trial 0 always evaluates the original column order (``None``); the
        sequential draw keeps the orders — and therefore every estimate —
        independent of ``n_jobs`` and identical to earlier serial runs.
        The orders stay integer arrays, so checking them is one sort each.
        """
        rng = ensure_rng(seed if seed is not None else derive_rng(self.config.seed, 101))
        orders: List[Optional[np.ndarray]] = [None]
        for _ in range(1, self.config.num_permutations):
            orders.append(rng.permutation(matrix.num_columns))
        return orders

    def run(
        self,
        matrix: ResponseMatrix,
        *,
        ground_truth: Optional[float] = None,
        name: str = "experiment",
        metadata: Optional[Dict[str, object]] = None,
        seed: RandomState = None,
    ) -> ExperimentResult:
        """Run the permutation-averaged evaluation.

        Parameters
        ----------
        matrix:
            The fully collected worker-response matrix.
        ground_truth:
            The true number of errors (or switches), recorded in the result
            for scoring.
        name:
            Experiment name recorded in the result.
        metadata:
            Extra metadata to carry along.
        seed:
            Permutation seed; defaults to the runner config's seed.
        """
        checkpoints = self.config.resolve_checkpoints(matrix.num_columns)
        orders = self._permutation_orders(matrix, seed)
        engine = self.config.engine

        n_jobs = min(self.config.n_jobs, len(orders))
        trial_results = None
        if n_jobs > 1:
            # The matrix and estimators are identical across trials, so they
            # ship once per worker process (initializer) rather than once
            # per task; only the column-order index arrays travel with the
            # tasks, one chunk of orders per task.
            # Platforms without usable multiprocessing (no /dev/shm, no
            # sem_open, sandboxed interpreters) fail at pool *construction*
            # and degrade to the serial path — results are identical either
            # way, only wall-clock differs.  Errors raised while evaluating
            # (inside pool.map) are real and propagate.
            try:
                pool = multiprocessing.get_context().Pool(
                    n_jobs,
                    initializer=_init_worker,
                    initargs=(matrix, self.estimators, checkpoints),
                )
            except (ImportError, NotImplementedError, OSError, PermissionError) as error:
                warnings.warn(
                    f"multiprocessing is unavailable on this platform ({error!r}); "
                    f"falling back to serial execution (n_jobs=1)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                n_jobs = 1
            else:
                with pool:
                    chunk_results = pool.map(
                        _evaluate_order_chunk, _chunk_orders(orders, n_jobs)
                    )
                trial_results = [trial for chunk in chunk_results for trial in chunk]
        if trial_results is None:
            if engine == "batch":
                trial_results = _evaluate_permutation_batch(
                    matrix, orders, self.estimators, checkpoints
                )
            else:
                trial_results = [
                    _evaluate_permutation(matrix, order, self.estimators, checkpoints)
                    for order in orders
                ]

        experiment = ExperimentResult(
            name=name,
            ground_truth=ground_truth,
            metadata=dict(metadata or {}),
        )
        for estimator in self.estimators:
            per_trial = np.stack([trial[estimator.name] for trial in trial_results])
            experiment.add_series(build_series(estimator.name, checkpoints, per_trial))
        experiment.metadata.setdefault("num_permutations", self.config.num_permutations)
        experiment.metadata.setdefault("checkpoints", list(checkpoints))
        experiment.metadata.setdefault("n_jobs", n_jobs)
        experiment.metadata.setdefault("engine", engine)
        return experiment
