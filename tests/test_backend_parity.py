"""Strict scenario runs of the batch engine on each scan path.

:class:`~repro.scenarios.runner.ScenarioRunner` in strict mode raises if
the ``perm_batch`` mode (the :class:`~repro.core.state.PermutationBatch`
engine) disagrees with the serial sweep, so a plain run *is* the
assertion; every equivalence flag is checked as well.  The runs repeat
once per scan path of the batch engine: ``numpy`` (the vectorised
reference) and ``fused`` (the :mod:`repro.core._scan_kernels` loops,
forced on; compiled where numba is installed, interpreted elsewhere).
The byte comparison of every golden on the fused path lives in
``tests/test_scenarios_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.core import state
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.runner import ScenarioRunner


@pytest.mark.parametrize("fused", [False, True], ids=["numpy", "fused"])
class TestGoldenScenarioParity:
    # One scenario per regime family keeps the cost per scan path bounded.
    SCENARIOS = ("baseline-uniform", "spammer-infested", "fp-heavy")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_strict_run_passes(self, fused, name, monkeypatch):
        assert name in available_scenarios()
        monkeypatch.setattr(state, "_FUSED_SCANS", fused)
        trajectory = ScenarioRunner(strict=True).run(get_scenario(name))
        assert trajectory.equivalence["perm_batch_vs_sweep"]
        assert all(trajectory.equivalence.values()), trajectory.equivalence
