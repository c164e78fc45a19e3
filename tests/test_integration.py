"""Integration tests: full pipelines from raw data to estimates.

These exercise the paths a downstream user would run: dataset generation →
(optional) entity-resolution stage one → crowd simulation → estimation →
reporting, and check the qualitative claims of the paper hold end to end.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Set

import pytest

from repro import (
    Chao92Estimator,
    CrowdERPipeline,
    CrowdSimulator,
    HeuristicBand,
    SimulationConfig,
    SwitchTotalErrorEstimator,
    VChao92Estimator,
    VotingEstimator,
    WorkerProfile,
    generate_address_dataset,
    generate_restaurant_dataset,
    generate_synthetic_pairs,
)
from repro.core.remaining import data_quality_report
from repro.data.address import AddressDatasetConfig
from repro.data.restaurant import RestaurantDatasetConfig
from repro.data.synthetic import SyntheticPairConfig
from repro.experiments.reporting import render_series_table, series_to_csv
from repro.experiments.runner import EstimationRunner, RunnerConfig

#: Every package with a public surface.
PACKAGES = (
    "repro",
    "repro.common",
    "repro.core",
    "repro.crowd",
    "repro.data",
    "repro.er",
    "repro.prioritization",
    "repro.streaming",
    "repro.serving",
    "repro.experiments",
    "repro.scenarios",
)


def loaded_modules(code: str) -> Set[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_root, env.get("PYTHONPATH"))))
    output = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return set(output.split())


def within(modules: Set[str], packages) -> Set[str]:
    """The members of ``modules`` that are one of ``packages`` or inside one."""
    return {
        module
        for module in modules
        if any(module == package or module.startswith(package + ".") for package in packages)
    }


class TestPublicApi:
    def test_version_and_exports(self):
        import repro

        assert repro.__version__
        for package in PACKAGES:
            module = importlib.import_module(package)
            assert len(set(module.__all__)) == len(module.__all__), package
            star = {}
            exec(f"from {package} import *", star)
            listed = dir(module)
            for name in module.__all__:
                assert getattr(module, name) is star[name], (package, name)
                assert name in listed, (package, name)
            with pytest.raises(AttributeError, match=f"'{package}' has no attribute 'nope'"):
                getattr(module, "nope")

    def test_registry_matches_exports(self):
        from repro import available_estimators, get_estimator

        for name in available_estimators():
            estimator = get_estimator(name)
            assert hasattr(estimator, "estimate")


class TestImportedModules:
    """A process imports only the modules it calls."""

    def test_import_repro_loads_only_the_surface_helper(self):
        assert within(loaded_modules("import repro"), ["repro"]) == {"repro", "repro._lazy"}

    def test_a_shard_worker_loads_no_front_or_figure_code(self):
        modules = loaded_modules("import repro.serving.workers")
        assert "repro.serving.workers" in modules
        unused = [
            "repro.serving.http",
            "repro.serving.loadgen",
            "repro.experiments",
            "repro.scenarios",
            "repro.er",
            "http.server",
        ]
        assert within(modules, unused) == set()

    def test_building_the_cli_parser_loads_no_experiment(self):
        modules = loaded_modules("from repro import cli\ncli._build_parser()")
        assert "repro.cli" in modules
        assert within(modules, ["repro.experiments"]) == set()


class TestEntityResolutionPipeline:
    def test_restaurant_end_to_end(self):
        dataset = generate_restaurant_dataset(
            RestaurantDatasetConfig(num_records=120, num_duplicated_entities=15), seed=17
        )
        pipeline = CrowdERPipeline(
            HeuristicBand(0.5, 0.9), fields=("name", "address", "city")
        )
        stage_one = pipeline.run(dataset)
        items = stage_one.candidates.as_item_dataset()
        assert len(items) > 0

        simulation = CrowdSimulator(
            items,
            SimulationConfig(
                num_tasks=200,
                items_per_task=min(10, len(items)),
                worker_profile=WorkerProfile(false_negative_rate=0.2, false_positive_rate=0.03),
                seed=17,
            ),
        ).run()
        estimate = SwitchTotalErrorEstimator().estimate(simulation.matrix)
        truth = items.num_dirty
        assert estimate.estimate == pytest.approx(truth, abs=max(3.0, 0.5 * truth))

    def test_runner_and_reporting_round_trip(self):
        dataset = generate_synthetic_pairs(SyntheticPairConfig(num_items=300, num_errors=30), seed=19)
        simulation = CrowdSimulator(
            dataset,
            SimulationConfig(
                num_tasks=80,
                items_per_task=15,
                worker_profile=WorkerProfile(false_negative_rate=0.15, false_positive_rate=0.01),
                seed=19,
            ),
        ).run()
        runner = EstimationRunner(
            [SwitchTotalErrorEstimator(), VChao92Estimator(), VotingEstimator()],
            RunnerConfig(num_permutations=3, num_checkpoints=6, seed=19),
        )
        result = runner.run(simulation.matrix, ground_truth=30.0, name="integration")
        table = render_series_table(result)
        csv = series_to_csv(result)
        assert "switch_total" in table
        assert csv.count("\n") == 7  # header + 6 checkpoints
        assert result.srmse_table()["switch_total"] < 1.0


class TestAddressPipeline:
    def test_quality_report_converges_to_high_quality(self):
        dataset = generate_address_dataset(AddressDatasetConfig(num_records=300, num_errors=27), seed=23)
        simulation = CrowdSimulator(
            dataset,
            SimulationConfig(
                num_tasks=350,
                items_per_task=10,
                worker_profile=WorkerProfile(false_negative_rate=0.2, false_positive_rate=0.02),
                seed=23,
            ),
        ).run()
        early = data_quality_report(simulation.matrix, upto=40)
        late = data_quality_report(simulation.matrix)
        assert late.quality_score > 0.8
        assert late.estimated_remaining_errors <= early.estimated_remaining_errors + 5
        assert late.estimated_total_errors == pytest.approx(27, rel=0.4)


class TestPaperClaims:
    """The headline qualitative claims, checked on a single shared simulation."""

    @pytest.fixture(scope="class")
    def fp_simulation(self):
        dataset = generate_synthetic_pairs(SyntheticPairConfig(num_items=1000, num_errors=100), seed=29)
        return CrowdSimulator(
            dataset,
            SimulationConfig(
                num_tasks=150,
                items_per_task=15,
                worker_profile=WorkerProfile(false_negative_rate=0.1, false_positive_rate=0.01),
                seed=29,
            ),
        ).run()

    def test_chao92_overestimates_with_false_positives(self, fp_simulation):
        estimate = Chao92Estimator().estimate(fp_simulation.matrix).estimate
        assert estimate > 1.15 * fp_simulation.true_error_count

    def test_switch_is_most_accurate(self, fp_simulation):
        truth = fp_simulation.true_error_count
        switch_error = abs(
            SwitchTotalErrorEstimator().estimate(fp_simulation.matrix).estimate - truth
        )
        chao_error = abs(Chao92Estimator().estimate(fp_simulation.matrix).estimate - truth)
        voting_error = abs(VotingEstimator().estimate(fp_simulation.matrix).estimate - truth)
        assert switch_error < chao_error
        assert switch_error <= voting_error + 2

    def test_estimates_improve_with_more_tasks(self, fp_simulation):
        truth = fp_simulation.true_error_count
        estimator = SwitchTotalErrorEstimator()
        early = abs(estimator.estimate(fp_simulation.matrix, upto=30).estimate - truth)
        late = abs(estimator.estimate(fp_simulation.matrix).estimate - truth)
        assert late <= early + 5
