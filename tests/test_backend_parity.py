"""Strict scenario runs of the batch engine.

:class:`~repro.scenarios.runner.ScenarioRunner` in strict mode raises if
the ``perm_batch`` mode (the :class:`~repro.core.state.PermutationBatch`
engine) disagrees with the serial sweep, so a plain run *is* the
assertion; every equivalence flag is checked as well.  The ``numpy`` id
names the batch engine's scan path as benchmark entries record it.  The
byte comparison of every golden lives in ``tests/test_scenarios_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.runner import ScenarioRunner


@pytest.mark.parametrize("scan_path", ["numpy"])
class TestGoldenScenarioParity:
    # One scenario per regime family keeps the cost bounded.
    SCENARIOS = ("baseline-uniform", "spammer-infested", "fp-heavy")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_strict_run_passes(self, scan_path, name):
        assert name in available_scenarios()
        trajectory = ScenarioRunner().run(get_scenario(name))
        assert trajectory.equivalence["perm_batch_vs_sweep"]
        assert all(trajectory.equivalence.values()), trajectory.equivalence
