"""Golden-trajectory persistence and drift checking.

A golden file is the canonical JSON trajectory of one registered
scenario at its default seed, stored under ``tests/golden/<name>.json``.
``record`` (re)writes them; ``check`` replays the scenario and compares
byte-for-byte.  Any estimator change that moves a single float on any
regime shows up as a golden diff — intentional changes re-record via
``python -m repro scenario record`` and the diff documents exactly which
trajectories moved.
"""

from __future__ import annotations

import difflib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.exceptions import ConfigurationError
from repro.scenarios.catalog import available_scenarios, get_scenario
from repro.scenarios.runner import ScenarioRunner, ScenarioTrajectory


def default_golden_dir() -> Path:
    """The in-repo golden directory (``tests/golden`` next to ``src``)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(name: str, directory: Optional[Path] = None) -> Path:
    """Where the golden file of scenario ``name`` lives."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    return directory / f"{str(name).lower()}.json"


def write_golden(
    trajectory: ScenarioTrajectory, directory: Optional[Path] = None
) -> Path:
    """Persist a trajectory as its scenario's golden file."""
    path = golden_path(trajectory.scenario.name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trajectory.canonical_json() + "\n", encoding="utf-8")
    return path


def read_golden(name: str, directory: Optional[Path] = None) -> str:
    """The stored golden text of scenario ``name``.

    Raises
    ------
    repro.common.exceptions.ConfigurationError
        If no golden file has been recorded for the scenario.
    """
    path = golden_path(name, directory)
    if not path.exists():
        raise ConfigurationError(
            f"no golden file for scenario {name!r} at {path}; record it with "
            "'python -m repro scenario record'"
        )
    return path.read_text(encoding="utf-8")


def record_scenarios(
    names: Optional[Iterable[str]] = None,
    *,
    directory: Optional[Path] = None,
    runner: Optional[ScenarioRunner] = None,
) -> List[Path]:
    """Run and record golden files for ``names`` (default: every scenario)."""
    runner = runner or ScenarioRunner()
    paths = []
    for name in list(names) if names else available_scenarios():
        trajectory = runner.run(get_scenario(name))
        paths.append(write_golden(trajectory, directory))
    return paths


def check_scenario(
    name: str,
    *,
    directory: Optional[Path] = None,
    runner: Optional[ScenarioRunner] = None,
) -> Tuple[bool, str]:
    """Replay one scenario and diff it against its golden file.

    Returns ``(ok, message)`` where ``message`` is a unified diff on
    mismatch (empty on success).
    """
    runner = runner or ScenarioRunner()
    expected = read_golden(name, directory)
    actual = runner.run(get_scenario(name)).canonical_json() + "\n"
    if actual == expected:
        return True, ""
    diff = "\n".join(
        difflib.unified_diff(
            expected.splitlines(),
            actual.splitlines(),
            fromfile=f"golden/{name}.json",
            tofile=f"replay/{name}.json",
            lineterm="",
        )
    )
    return False, diff


def check_scenarios(
    names: Optional[Iterable[str]] = None,
    *,
    directory: Optional[Path] = None,
) -> Dict[str, Tuple[bool, str]]:
    """Replay ``names`` (default: all) against their golden files."""
    runner = ScenarioRunner()
    return {
        name: check_scenario(name, directory=directory, runner=runner)
        for name in (list(names) if names else available_scenarios())
    }
