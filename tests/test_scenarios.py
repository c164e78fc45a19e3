"""Unit tests for the scenario subsystem: specs, runner, golden helpers."""

from __future__ import annotations

import json

import pytest

from repro.common.exceptions import ConfigurationError
from repro.crowd.worker import (
    CliqueRegime,
    DriftRegime,
    HomogeneousRegime,
    MixtureRegime,
    StratifiedRegime,
)
from repro.scenarios import (
    AssignmentSpec,
    DatasetSpec,
    RegimeSpec,
    Scenario,
    ScenarioRunner,
    available_scenarios,
    get_scenario,
    read_golden,
    record_scenarios,
    register_scenario,
    unregister_scenario,
    write_golden,
)
from repro.scenarios.golden import check_scenario


class TestDatasetSpec:
    def test_synthetic_build_is_deterministic_per_seed(self):
        spec = DatasetSpec("synthetic", {"num_items": 50, "num_errors": 10})
        a, b = spec.build(3), spec.build(3)
        assert a.dirty_ids == b.dirty_ids
        assert len(a) == 50 and a.num_dirty == 10
        assert spec.build(4).dirty_ids != a.dirty_ids

    def test_address_build(self):
        spec = DatasetSpec("address", {"num_records": 60, "num_errors": 6})
        dataset = spec.build(1)
        assert len(dataset) == 60 and dataset.num_dirty == 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown dataset kind"):
            DatasetSpec("csv-upload").build(0)

    def test_unknown_params_rejected_with_remediation(self):
        with pytest.raises(ConfigurationError, match="num_item"):
            DatasetSpec("synthetic", {"num_item": 50}).build(0)
        with pytest.raises(ConfigurationError, match="num_record"):
            DatasetSpec("address", {"num_record": 50}).build(0)

    def test_per_dataset_seed_param_rejected(self):
        """Dataset randomness derives from the scenario root seed; a
        params-level 'seed' would be a silently ignored knob."""
        with pytest.raises(ConfigurationError, match="seed"):
            DatasetSpec("synthetic", {"num_items": 50, "seed": 42}).build(0)

    def test_round_trip(self):
        spec = DatasetSpec("synthetic", {"num_items": 50, "num_errors": 10})
        assert DatasetSpec.from_dict(spec.to_dict()) == spec


class TestRegimeSpec:
    def test_each_kind_builds_its_regime_class(self):
        profile = {"false_negative_rate": 0.1, "false_positive_rate": 0.02}
        cases = {
            "homogeneous": ({"profile": profile}, HomogeneousRegime),
            "mixture": ({"components": [[1.0, profile]]}, MixtureRegime),
            "drift": ({"start": profile, "end": profile, "horizon": 5}, DriftRegime),
            "cliques": ({"profile": profile, "colluder_profile": profile}, CliqueRegime),
            "stratified": (
                {"profile": profile, "stratum_profiles": {"0": profile}},
                StratifiedRegime,
            ),
        }
        for kind, (params, regime_cls) in cases.items():
            regime = RegimeSpec(kind, params, completion_rate=0.9).build()
            assert isinstance(regime, regime_cls)
            assert regime.completion_rate == 0.9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown regime kind"):
            RegimeSpec("telepathic").build()

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="colluder_profil"):
            RegimeSpec("cliques", {"colluder_profil": {}}).build()

    def test_omitted_params_fall_back_to_regime_defaults(self):
        """An unspecified colluder_profile keeps the class default (not oracle)."""
        regime = RegimeSpec("cliques", {"num_cliques": 3}).build()
        assert regime.num_cliques == 3
        assert regime.colluder_profile == CliqueRegime().colluder_profile
        assert regime.colluder_profile.false_negative_rate > 0.0

    def test_typoed_profile_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="fn_rate"):
            RegimeSpec("homogeneous", {"profile": {"fn_rate": 0.3}}).build()

    def test_round_trip(self):
        spec = RegimeSpec(
            "mixture",
            {"components": [[0.6, {"false_negative_rate": 0.1}], [0.4, {}]]},
            completion_rate=0.8,
        )
        assert RegimeSpec.from_dict(spec.to_dict()) == spec


class TestAssignmentSpec:
    def test_uniform_means_no_builder(self):
        assert AssignmentSpec("uniform").builder() is None

    def test_skewed_builder_produces_assigner(self):
        build = AssignmentSpec("skewed", {"exponent": 1.5}).builder()
        assigner = build(list(range(30)), 5, 0)
        task = assigner.next_task()
        assert len(task.item_ids) == 5
        assert assigner.exponent == 1.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown assignment kind"):
            AssignmentSpec("round-robin").builder()

    def test_unknown_params_rejected_for_both_kinds(self):
        with pytest.raises(ConfigurationError, match="exponant"):
            AssignmentSpec("skewed", {"exponant": 3.0}).builder()
        with pytest.raises(ConfigurationError, match="exponent"):
            AssignmentSpec("uniform", {"exponent": 2.0}).builder()


class TestScenarioSpec:
    def test_full_round_trip_through_json(self):
        scenario = get_scenario("colluding-cliques")
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario

    def test_validation_rejects_degenerate_specs(self):
        with pytest.raises(ConfigurationError, match="non-empty name"):
            Scenario(name="", description="x")
        with pytest.raises(ConfigurationError, match="no estimators"):
            Scenario(name="x", description="x", estimators=())

    def test_from_dict_rejects_unknown_keys(self):
        """A typoed top-level key fails loudly instead of taking defaults."""
        with pytest.raises(ConfigurationError, match="num_task"):
            Scenario.from_dict({"name": "x", "description": "d", "num_task": 40})

    def test_minimal_dict_builds_like_minimal_constructor(self):
        """from_dict with only name/description uses the dataclass defaults."""
        from_dict = Scenario.from_dict({"name": "minimal", "description": "d"})
        direct = Scenario(name="minimal", description="d")
        assert from_dict == direct
        assert from_dict.estimators == direct.estimators

    def test_checkpoints_are_even_and_bounded(self):
        scenario = get_scenario("baseline-uniform")
        points = scenario.checkpoints(80)
        assert len(points) == scenario.num_checkpoints
        assert points[-1] == 80
        assert points == sorted(set(points))
        assert scenario.checkpoints(3) == [1, 2, 3]


class TestScenarioRegistry:
    def test_duplicate_registration_rejected_with_remedy(self):
        scenario = get_scenario("fp-heavy")
        with pytest.raises(ConfigurationError, match="overwrite=True"):
            register_scenario(scenario)
        register_scenario(scenario, overwrite=True)  # no-op replace is fine

    def test_unknown_scenario_error_lists_available(self):
        with pytest.raises(ConfigurationError, match="baseline-uniform"):
            get_scenario("not-a-scenario")

    def test_register_and_unregister_custom_scenario(self):
        scenario = Scenario(
            name="custom-test-scenario",
            description="registry round-trip",
            dataset=DatasetSpec("synthetic", {"num_items": 30, "num_errors": 5}),
            num_tasks=10,
        )
        try:
            register_scenario(scenario)
            assert "custom-test-scenario" in available_scenarios()
            assert get_scenario("CUSTOM-test-scenario") == scenario
        finally:
            unregister_scenario("custom-test-scenario")
        assert "custom-test-scenario" not in available_scenarios()


class TestScenarioRunner:
    def test_seed_override_changes_the_trajectory(self):
        runner = ScenarioRunner()
        scenario = get_scenario("baseline-uniform")
        default = runner.run(scenario)
        same = runner.run(scenario, seed=scenario.seed)
        other = runner.run(scenario, seed=scenario.seed + 1)
        assert default.canonical_json() == same.canonical_json()
        assert default.canonical_json() != other.canonical_json()
        assert other.seed == scenario.seed + 1

    def test_trajectory_payload_shape(self):
        trajectory = ScenarioRunner().run(get_scenario("perfect-crowd"))
        payload = trajectory.payload()
        assert payload["dataset"]["true_errors"] == trajectory.true_errors
        assert set(payload["trajectories"]) == set(
            get_scenario("perfect-crowd").estimators
        )
        # Canonical text is stable JSON: parse -> dump round-trips.
        text = trajectory.canonical_json()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text

    def test_perfect_crowd_converges_to_truth(self):
        trajectory = ScenarioRunner().run(get_scenario("perfect-crowd"))
        assert trajectory.estimates["voting"][-1] == float(trajectory.true_errors)

    def test_aliased_estimators_rejected_up_front(self):
        """Registry aliases resolving to the same instance name can't be
        evaluated side by side — the runner refuses instead of silently
        collapsing two series into one."""
        from repro.core.descriptive import VotingEstimator
        from repro.core.registry import register_estimator, unregister_estimator

        register_estimator("voting-alias-test", VotingEstimator, overwrite=True)
        scenario = Scenario(
            name="alias-collision",
            description="two registry names, one instance name",
            dataset=DatasetSpec("synthetic", {"num_items": 30, "num_errors": 5}),
            estimators=("voting", "voting-alias-test"),
            num_tasks=10,
        )
        try:
            with pytest.raises(ConfigurationError, match="duplicate instance names"):
                ScenarioRunner().run(scenario)
        finally:
            unregister_estimator("voting-alias-test")

    def test_strict_runner_flags_broken_equivalence(self, monkeypatch):
        """A state-estimator that diverges from its batch path is caught."""
        from repro.core.descriptive import VotingEstimator

        runner = ScenarioRunner()
        original = VotingEstimator.estimate

        def broken_estimate(self, matrix, upto=None):
            result = original(self, matrix, upto)
            return type(result)(estimate=result.estimate + 1.0, observed=result.observed)

        monkeypatch.setattr(VotingEstimator, "estimate", broken_estimate)
        with pytest.raises(ConfigurationError, match="modes disagree"):
            runner.run(get_scenario("fp-heavy"))


class TestGoldenHelpers:
    def test_write_read_check_round_trip_in_tmpdir(self, tmp_path):
        runner = ScenarioRunner()
        trajectory = runner.run(get_scenario("fn-heavy"))
        path = write_golden(trajectory, tmp_path)
        assert path == tmp_path / "fn-heavy.json"
        assert read_golden("fn-heavy", tmp_path) == trajectory.canonical_json() + "\n"
        ok, diff = check_scenario("fn-heavy", directory=tmp_path, runner=runner)
        assert ok and diff == ""

    def test_check_reports_drift_with_a_diff(self, tmp_path):
        runner = ScenarioRunner()
        trajectory = runner.run(get_scenario("fn-heavy"))
        text = trajectory.canonical_json().replace(
            '"format_version"', '"stale": true, "format_version"'
        )
        (tmp_path / "fn-heavy.json").write_text(text + "\n", encoding="utf-8")
        ok, diff = check_scenario("fn-heavy", directory=tmp_path, runner=runner)
        assert not ok
        assert "stale" in diff and "---" in diff

    def test_missing_golden_names_the_record_command(self, tmp_path):
        with pytest.raises(ConfigurationError, match="record"):
            read_golden("fn-heavy", tmp_path)

    def test_record_scenarios_writes_selected_names(self, tmp_path):
        paths = record_scenarios(["fp-heavy", "fn-heavy"], directory=tmp_path)
        assert sorted(p.name for p in paths) == ["fn-heavy.json", "fp-heavy.json"]
