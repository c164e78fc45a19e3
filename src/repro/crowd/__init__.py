"""Crowd substrate: workers, tasks, votes and consensus.

Everything the estimators consume is produced here.  The central data
structure is :class:`~repro.crowd.response_matrix.ResponseMatrix`, the
``N x K`` matrix ``I`` of Problem 1 in the paper whose entries are
``{dirty, clean, unseen}``.  The rest of the package simulates how such a
matrix comes to be:

* :mod:`~repro.crowd.worker` — parametric worker models with false-positive
  and false-negative rates,
* :mod:`~repro.crowd.assignment` — task construction (p random items per
  task, uniform or ε-prioritised sampling, fixed-quorum assignment),
* :mod:`~repro.crowd.simulator` — the end-to-end crowd simulation that
  replaces the paper's Amazon Mechanical Turk deployment,
* :mod:`~repro.crowd.consensus` — nominal / majority-vote aggregation,
* :mod:`~repro.crowd.em` — Dawid–Skene expectation-maximisation label
  aggregation (an extension used for ablations).
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".response_matrix": "ResponseMatrix",
        ".worker": (
            "Worker WorkerPool WorkerProfile WorkerRegime HomogeneousRegime MixtureRegime "
            "DriftRegime CliqueRegime CliqueWorker CrossSessionCliqueRegime StratifiedRegime "
            "StratifiedWorker"
        ),
        ".assignment": (
            "Task UniformRandomAssigner PrioritizedAssigner SkewedAssigner FixedQuorumAssigner"
        ),
        ".simulator": "CrowdSimulator CrowdSimulation SimulationConfig",
        ".consensus": "nominal_labels majority_labels majority_vote_counts",
        ".em": "dawid_skene DawidSkeneResult",
    },
)
