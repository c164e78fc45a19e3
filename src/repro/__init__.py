"""repro — a reproduction of the DQM data-quality metric (VLDB 2017).

The library estimates how many errors remain undetected in a dataset after
crowd-based (or otherwise fallible) cleaning, using only the matrix of
worker votes — no ground truth, no complete rule set.

Quickstart
----------
>>> from repro import (
...     SyntheticPairConfig, generate_synthetic_pairs,
...     SimulationConfig, CrowdSimulator, WorkerProfile,
...     SwitchTotalErrorEstimator,
... )
>>> dataset = generate_synthetic_pairs(SyntheticPairConfig(num_items=500, num_errors=50))
>>> config = SimulationConfig(
...     num_tasks=80, items_per_task=15,
...     worker_profile=WorkerProfile(false_negative_rate=0.1, false_positive_rate=0.01),
...     seed=0,
... )
>>> simulation = CrowdSimulator(dataset, config).run()
>>> result = SwitchTotalErrorEstimator().estimate(simulation.matrix)
>>> round(result.estimate) > 0
True

Package layout
--------------
* :mod:`repro.core` — the estimators (Chao92, vChao92, SWITCH, baselines).
* :mod:`repro.crowd` — workers, tasks, the vote matrix and consensus.
* :mod:`repro.data` — synthetic datasets matching the paper's evaluation.
* :mod:`repro.er` — entity-resolution similarity, blocking and heuristics.
* :mod:`repro.prioritization` — heuristic-prioritised estimation.
* :mod:`repro.streaming` — online estimation sessions over live vote streams.
* :mod:`repro.serving` — the multi-tenant serving layer: named durable
  sessions, idempotent ingestion, cached estimates, snapshot/restore.
* :mod:`repro.experiments` — the harness that regenerates every figure.
* :mod:`repro.scenarios` — the declarative scenario suite (adversarial
  crowd regimes, three-mode runner, golden trajectories).
"""

from repro._lazy import lazy_surface

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".common": "DIRTY CLEAN UNSEEN Label",
        ".core": (
            "EstimateResult NominalEstimator VotingEstimator Chao92Estimator VChao92Estimator "
            "ExtrapolationEstimator SwitchEstimator SwitchTotalErrorEstimator available_estimators "
            "get_estimator scaled_rmse"
        ),
        ".crowd": "ResponseMatrix Worker WorkerPool WorkerProfile CrowdSimulator SimulationConfig",
        ".data": (
            "Record Dataset PairDataset RestaurantDatasetConfig generate_restaurant_dataset "
            "ProductDatasetConfig generate_product_dataset AddressDatasetConfig "
            "generate_address_dataset SyntheticPairConfig generate_synthetic_pairs"
        ),
        ".er": "CrowdERPipeline HeuristicBand",
        ".prioritization": "EpsilonGreedyPrioritizer",
        ".streaming": (
            "StreamingSession SessionSnapshot EstimationService SessionStore MemorySessionStore "
            "DirectorySessionStore"
        ),
    },
)
__all__.insert(0, "__version__")
