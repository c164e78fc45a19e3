"""Declarative scenario suite: specs, catalogue, runner and goldens.

This package is the regression surface of the estimator library.  A
:class:`Scenario` describes a complete workload (dataset x worker regime
x assignment x estimators x checkpoints) as plain data; the catalogue
registers ~20 named scenarios including the adversarial crowd regimes
(spammers, colluding cliques, accuracy drift, abandoning workers,
class-imbalanced errors, skewed attention) and the dynamic serving
regimes (bursty churn, duplicate storms, reordered deliveries,
cross-session collusion campaigns); :class:`ScenarioRunner` executes any
of them through the batch, sweep, streaming and perm-batch evaluation
paths — plus the serving path for scenarios with a
:class:`SessionDynamics` block — and emits one canonical JSON
trajectory; the golden helpers pin those trajectories byte-for-byte
under ``tests/golden/``.  The replay codec
(:func:`scenario_from_wal` / :func:`scenarios_from_fleet_report`) turns
any recorded session log into a traced scenario, so production traffic
becomes a golden regression test too.

Quick use::

    from repro.scenarios import ScenarioRunner, get_scenario
    trajectory = ScenarioRunner().run(get_scenario("cross-session-collusion"))
    print(trajectory.equivalence["serving_vs_replay"])
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".spec": (
            "Scenario DatasetSpec RegimeSpec AssignmentSpec SessionDynamics TraceSpec "
            "ADVERSARIAL_TAG"
        ),
        ".replay": (
            "TRACE_TAG TraceSimulation trace_matrix scenario_from_wal scenarios_from_fleet_report"
        ),
        ".runner": "ScenarioRunner ScenarioTrajectory MODES",
        ".dynamics": "DynamicDriveReport build_delivery_plans drive_scenario",
        ".catalog": (
            "register_scenario unregister_scenario get_scenario available_scenarios "
            "adversarial_scenarios"
        ),
        ".golden": (
            "default_golden_dir golden_path read_golden write_golden record_scenarios "
            "check_scenario check_scenarios"
        ),
    },
)
