"""Robustness study (Figure 7 of the paper).

Three simulated regimes over the 1000-pair / 100-duplicate population, each
traced against the number of tasks:

* (a) false negatives only (10 % miss rate),
* (b) false positives only (1 % false-alarm rate),
* (c) both error types together.

The estimators compared are Chao92, V-CHAO, SWITCH and VOTING; the expected
shapes are: Chao92 converges fastest when there are no false positives but
blows up as soon as there are any; V-CHAO is robust in the evenly-spread
simulation but converges slowly; SWITCH is accurate in all three regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.chao92 import Chao92Estimator
from repro.core.descriptive import VotingEstimator
from repro.core.total_error import SwitchTotalErrorEstimator
from repro.core.vchao92 import VChao92Estimator
from repro.crowd.simulator import CrowdSimulator, SimulationConfig
from repro.crowd.worker import WorkerProfile
from repro.data.synthetic import SyntheticPairConfig, generate_synthetic_pairs
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import EstimationRunner, RunnerConfig


@dataclass
class RobustnessConfig:
    """Parameters of the Figure 7 robustness traces.

    Parameters
    ----------
    num_items / num_errors:
        Simulated population (1000 / 100 in the paper).
    num_tasks:
        Length of the task stream.
    items_per_task:
        Items per task (15 in the paper).
    false_negative_rate / false_positive_rate:
        The two error rates (10 % and 1 % in the paper).
    num_permutations:
        Worker permutations averaged per checkpoint.
    num_checkpoints:
        Number of x-axis points.
    seed:
        Root seed.
    """

    num_items: int = 1000
    num_errors: int = 100
    num_tasks: int = 150
    items_per_task: int = 15
    false_negative_rate: float = 0.10
    false_positive_rate: float = 0.01
    num_permutations: int = 5
    num_checkpoints: int = 15
    seed: int = 0


#: The three regimes of Figure 7, keyed by panel name.
SCENARIOS = ("false_negatives_only", "false_positives_only", "both")


def scenario_profile(scenario: str, config: RobustnessConfig) -> WorkerProfile:
    """The worker profile of one Figure 7 panel."""
    if scenario == "false_negatives_only":
        return WorkerProfile.false_negative_only(config.false_negative_rate)
    if scenario == "false_positives_only":
        return WorkerProfile.false_positive_only(config.false_positive_rate)
    if scenario == "both":
        return WorkerProfile(
            false_negative_rate=config.false_negative_rate,
            false_positive_rate=config.false_positive_rate,
        )
    raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


def run_robustness_scenario(
    scenario: str,
    config: Optional[RobustnessConfig] = None,
) -> ExperimentResult:
    """Run one Figure 7 panel and return the estimator traces."""
    config = config or RobustnessConfig()
    profile = scenario_profile(scenario, config)
    dataset = generate_synthetic_pairs(
        SyntheticPairConfig(num_items=config.num_items, num_errors=config.num_errors),
        seed=config.seed,
    )
    simulation = CrowdSimulator(
        dataset,
        SimulationConfig(
            num_tasks=config.num_tasks,
            items_per_task=config.items_per_task,
            worker_profile=profile,
            seed=config.seed,
        ),
    ).run()
    runner = EstimationRunner(
        [
            Chao92Estimator(),
            VChao92Estimator(),
            SwitchTotalErrorEstimator(),
            VotingEstimator(),
        ],
        RunnerConfig(
            num_permutations=config.num_permutations,
            num_checkpoints=config.num_checkpoints,
            seed=config.seed,
        ),
    )
    return runner.run(
        simulation.matrix,
        ground_truth=float(simulation.true_error_count),
        name=f"robustness-{scenario}",
        metadata={
            "scenario": scenario,
            "false_negative_rate": profile.false_negative_rate,
            "false_positive_rate": profile.false_positive_rate,
            "num_tasks": config.num_tasks,
            "items_per_task": config.items_per_task,
        },
    )

