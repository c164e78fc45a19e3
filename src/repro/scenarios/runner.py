"""Scenario execution: one spec, four evaluation modes, one trajectory.

:class:`ScenarioRunner` turns a declarative
:class:`~repro.scenarios.spec.Scenario` into a
:class:`ScenarioTrajectory`: it simulates the crowd, then evaluates every
listed estimator at every checkpoint through all four evaluation paths —
the batch single-prefix path (``estimate``), the incremental sweep engine
(``estimate_sweep`` over shared tables), the streaming session and the
cross-permutation tensor engine
(:class:`~repro.core.state.PermutationBatch`) — and verifies they agree
*exactly*.  The trajectory serialises to a canonical JSON document
(sorted keys, two-space indent, shortest-repr floats) so that a golden
file diff is stable and byte-for-byte reproducible from
``repro scenario run <name> --seed <seed>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.exceptions import ConfigurationError
from repro.core.base import EstimateResult, batch_estimates, sweep_estimates
from repro.core.registry import get_estimator
from repro.core.state import PermutationBatch, matrix_sweep_states
from repro.crowd.simulator import CrowdSimulation, CrowdSimulator, SimulationConfig
from repro.scenarios.spec import Scenario
from repro.streaming.session import StreamingSession

#: The evaluation modes every scenario is pushed through.
MODES = ("batch", "sweep", "streaming", "perm_batch")

#: Golden-file format version (bump when the payload layout changes).
#: 2: added the ``perm_batch`` mode and its equivalence flag (PR 4).
FORMAT_VERSION = 2


@dataclass
class ScenarioTrajectory:
    """The canonical result of one scenario run.

    ``estimates``/``observed`` hold the per-estimator checkpoint series
    (the sweep engine's values — the other two modes are verified equal);
    ``equivalence`` records the cross-mode comparison outcome.
    """

    scenario: Scenario
    seed: int
    checkpoints: List[int]
    num_items: int
    true_errors: int
    num_columns: int
    total_votes: int
    estimates: Dict[str, List[float]]
    observed: Dict[str, List[float]]
    equivalence: Dict[str, bool] = field(default_factory=dict)
    #: Deterministic serving-traffic counters, present only for scenarios
    #: with a dynamics block (``None`` keeps pre-dynamics goldens stable).
    dynamics_stats: Optional[Dict[str, int]] = None

    def payload(self) -> Dict[str, object]:
        """The JSON document recorded in golden files."""
        payload: Dict[str, object] = {
            "format_version": FORMAT_VERSION,
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "dataset": {"num_items": self.num_items, "true_errors": self.true_errors},
            "checkpoints": list(self.checkpoints),
            "num_columns": self.num_columns,
            "total_votes": self.total_votes,
            "modes": list(MODES),
            "equivalence": dict(self.equivalence),
            "trajectories": {
                name: {
                    "estimate": list(self.estimates[name]),
                    "observed": list(self.observed[name]),
                }
                for name in sorted(self.estimates)
            },
        }
        if self.dynamics_stats is not None:
            payload["dynamics"] = dict(self.dynamics_stats)
        return payload

    def canonical_json(self) -> str:
        """Deterministic JSON text (no trailing newline).

        ``repro scenario run`` prints exactly this string; golden files
        store it plus one trailing newline, making CLI stdout and golden
        content byte-identical.
        """
        return json.dumps(self.payload(), sort_keys=True, indent=2, ensure_ascii=True)


def _series_equal(a: List[EstimateResult], b: List[EstimateResult]) -> bool:
    """Exact (bitwise) equality of two checkpoint result series."""
    return all(
        x.estimate == y.estimate and x.observed == y.observed for x, y in zip(a, b)
    ) and len(a) == len(b)


class ScenarioRunner:
    """Execute scenarios and emit canonical trajectories.

    :meth:`run` raises :class:`~repro.common.exceptions.ConfigurationError`
    when the batch, sweep and streaming paths disagree (they never should;
    a mismatch means an estimator broke the shared-state contract).
    """

    def simulate(self, scenario: Scenario, seed: Optional[int] = None) -> CrowdSimulation:
        """Run just the crowd simulation of ``scenario``.

        A traced scenario has no crowd to simulate: its recorded columns
        rebuild the matrix verbatim (the dataset / regime / assignment
        specs and the seed are ignored — a trace *is* its own data).
        """
        seed = scenario.seed if seed is None else int(seed)
        if scenario.trace is not None:
            from repro.scenarios.replay import simulate_trace

            return simulate_trace(scenario.trace)
        dataset = scenario.dataset.build(seed)
        config = SimulationConfig(
            num_tasks=scenario.num_tasks,
            items_per_task=scenario.items_per_task,
            tasks_per_worker=scenario.tasks_per_worker,
            worker_regime=scenario.regime.build(),
            seed=seed,
        )
        simulator = CrowdSimulator(
            dataset, config, assigner_builder=scenario.assignment.builder()
        )
        return simulator.run()

    def run(self, scenario: Scenario, seed: Optional[int] = None) -> ScenarioTrajectory:
        """Simulate ``scenario`` and evaluate it through every mode."""
        seed = scenario.seed if seed is None else int(seed)
        simulation = self.simulate(scenario, seed)
        matrix = simulation.matrix
        # Series are keyed by the *registry* names the scenario lists (the
        # self-describing golden contract); the instances' self-declared
        # names are only used to address the streaming session, so aliases
        # whose instances share a name cannot be disambiguated — reject
        # them up front instead of collapsing two series into one.
        estimators = [(name, get_estimator(name)) for name in scenario.estimators]
        instance_names = [instance.name for _, instance in estimators]
        if len(set(instance_names)) != len(instance_names):
            raise ConfigurationError(
                f"scenario {scenario.name!r} estimators {list(scenario.estimators)} "
                f"resolve to duplicate instance names {instance_names}; registry "
                "aliases of the same estimator cannot be evaluated side by side"
            )
        checkpoints = scenario.checkpoints(matrix.num_columns)

        # Sweep mode: shared tables across estimators — the canonical values.
        states = matrix_sweep_states(matrix, checkpoints)
        sweep: Dict[str, List[EstimateResult]] = {
            name: sweep_estimates(instance, matrix, checkpoints, states=states)
            for name, instance in estimators
        }

        # Batch mode: the classic one-prefix-at-a-time path.
        batch: Dict[str, List[EstimateResult]] = {
            name: [instance.estimate(matrix, checkpoint) for checkpoint in checkpoints]
            for name, instance in estimators
        }

        # Streaming mode: feed columns one at a time, snapshot at checkpoints.
        session = StreamingSession(
            matrix.item_ids, [instance for _, instance in estimators], keep_votes=False
        )
        wanted = set(checkpoints)
        streaming: Dict[str, List[EstimateResult]] = {name: [] for name, _ in estimators}
        workers = matrix.column_workers
        for column in range(matrix.num_columns):
            session.add_column(matrix.column_votes(column), workers[column])
            if session.num_columns in wanted:
                for name, instance in estimators:
                    streaming[name].append(session.estimate(instance.name))

        # Cross-permutation tensor engine: one single-permutation batch must
        # reproduce the sweep exactly (the runner's default path).
        tensor_batch = PermutationBatch(matrix, [None], checkpoints)
        perm_batch: Dict[str, List[EstimateResult]] = {
            name: batch_estimates(instance, tensor_batch)[0]
            for name, instance in estimators
        }

        equivalence = {
            "batch_vs_sweep": all(
                _series_equal(batch[name], sweep[name]) for name in sweep
            ),
            "streaming_vs_sweep": all(
                _series_equal(streaming[name], sweep[name]) for name in sweep
            ),
            "perm_batch_vs_sweep": all(
                _series_equal(perm_batch[name], sweep[name]) for name in sweep
            ),
        }

        # Dynamic scenarios additionally travel the serving path: the same
        # matrix, delivered as bursty / duplicated / reordered / abandoned
        # traffic, must serve estimates bit-identical to the acknowledged
        # batch replay oracle.
        dynamics_stats: Optional[Dict[str, int]] = None
        if scenario.dynamics is not None:
            from repro.scenarios.dynamics import drive_scenario

            drive = drive_scenario(scenario, matrix)
            equivalence["serving_vs_replay"] = drive.serving_matches_replay
            dynamics_stats = drive.stats()

        if not all(equivalence.values()):
            failing = sorted(key for key, ok in equivalence.items() if not ok)
            raise ConfigurationError(
                f"scenario {scenario.name!r} modes disagree: {failing} — an estimator "
                "violated the batch/sweep/streaming/perm_batch equivalence contract"
            )

        return ScenarioTrajectory(
            scenario=scenario,
            seed=seed,
            checkpoints=checkpoints,
            num_items=matrix.num_items,
            true_errors=simulation.true_error_count,
            num_columns=matrix.num_columns,
            total_votes=matrix.total_votes(),
            estimates={
                name: [result.estimate for result in series]
                for name, series in sweep.items()
            },
            observed={
                name: [result.observed for result in series]
                for name, series in sweep.items()
            },
            equivalence=equivalence,
            dynamics_stats=dynamics_stats,
        )
