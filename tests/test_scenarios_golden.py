"""The golden-trajectory regression gate.

Every registered scenario is replayed at its default seed and compared
byte-for-byte against its golden file under ``tests/golden/``; the same
run asserts the batch == sweep == streaming equivalence contract on the
scenario's regime.  A failure here means an estimator's trajectory moved
on some crowd regime — if the movement is intentional, re-record with
``python -m repro scenario record`` and commit the diff as the
reviewable evidence of the behaviour change.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    ADVERSARIAL_TAG,
    ScenarioRunner,
    adversarial_scenarios,
    available_scenarios,
    get_scenario,
    golden_path,
    read_golden,
)
from repro.scenarios.runner import MODES
from repro.scenarios.spec import Scenario

ALL_SCENARIOS = available_scenarios()


@pytest.fixture(scope="module")
def runner() -> ScenarioRunner:
    return ScenarioRunner()


class TestCatalogueShape:
    def test_catalogue_meets_the_coverage_floor(self):
        """The acceptance bar: >= 12 scenarios, >= 4 adversarial regimes,
        >= 6 dynamic/collusion serving scenarios."""
        assert len(ALL_SCENARIOS) >= 12
        assert len(adversarial_scenarios()) >= 4
        dynamic = [
            name
            for name in ALL_SCENARIOS
            if get_scenario(name).dynamics is not None
        ]
        assert len(dynamic) >= 6
        collusion_kinds = {
            get_scenario(name).regime.kind for name in dynamic
        }
        assert "cross_session_cliques" in collusion_kinds

    def test_adversarial_scenarios_cover_the_distinct_regime_families(self):
        kinds = {get_scenario(name).regime.kind for name in adversarial_scenarios()}
        assert {"mixture", "cliques", "drift", "stratified"} <= kinds
        assignments = {
            get_scenario(name).assignment.kind for name in adversarial_scenarios()
        }
        assert "skewed" in assignments

    def test_every_scenario_has_a_golden_file(self):
        for name in ALL_SCENARIOS:
            assert golden_path(name).exists(), (
                f"scenario {name!r} has no golden file; run "
                "'python -m repro scenario record'"
            )

    def test_no_orphaned_golden_files(self):
        recorded = {path.stem for path in golden_path("x").parent.glob("*.json")}
        assert recorded == set(ALL_SCENARIOS)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
class TestGoldenReplay:
    def test_replay_is_byte_identical_and_modes_agree(self, runner, name):
        """One run pins both guarantees: golden stability + mode equivalence.

        The runner raises if batch, sweep and streaming disagree, so
        reaching the byte comparison already certifies the equivalence
        contract for this scenario's regime.
        """
        scenario = get_scenario(name)
        trajectory = runner.run(scenario)
        expected_keys = {
            "batch_vs_sweep": True,
            "streaming_vs_sweep": True,
            "perm_batch_vs_sweep": True,
        }
        if scenario.dynamics is not None:
            # Dynamic scenarios additionally travel the serving path and
            # must match the acknowledged-batch replay oracle bit for bit.
            expected_keys["serving_vs_replay"] = True
        assert trajectory.equivalence == expected_keys
        assert trajectory.canonical_json() + "\n" == read_golden(name)

    def test_golden_payload_is_self_describing(self, name):
        """The stored document embeds a spec that rebuilds the scenario."""
        payload = json.loads(read_golden(name))
        assert payload["format_version"] == 2
        assert payload["modes"] == list(MODES)
        rebuilt = Scenario.from_dict(payload["scenario"])
        assert rebuilt == get_scenario(name)
        assert payload["seed"] == rebuilt.seed
        # Serving-traffic counters are pinned exactly when (and only
        # when) the scenario declares session dynamics.
        assert ("dynamics" in payload) == (rebuilt.dynamics is not None)
        trajectories = payload["trajectories"]
        assert set(trajectories) == set(rebuilt.estimators)
        for series in trajectories.values():
            assert len(series["estimate"]) == len(payload["checkpoints"])
            assert len(series["observed"]) == len(payload["checkpoints"])

    def test_adversarial_tag_matches_helper(self, name):
        scenario = get_scenario(name)
        assert scenario.is_adversarial == (ADVERSARIAL_TAG in scenario.tags)
        assert scenario.is_adversarial == (name in adversarial_scenarios())
