"""Benchmark of the fused scan kernels on the wide sweep.

Times the batch engine on the wide-sweep workload (R = 32 permutations,
where the fused kernels of :mod:`repro.core._scan_kernels` are meant to
pay off) with ``repro.core.state._FUSED_SCANS`` off and on, in one
process and on the same matrix.  The fused run must be bit-identical to
the vectorised reference before any number is reported.  Where numba
compiles the kernels they must be at least 2x faster (the CI
``numba-kernels`` job installs numba and runs this file); without numba
they run interpreted, so the timing is printed but not asserted.
"""

from __future__ import annotations

import pytest

from repro.core import state
from repro.core._scan_kernels import NUMBA_AVAILABLE
from repro.experiments.bench import WORKLOADS, _series_values, _time_run
from repro.experiments.runner import EstimationRunner, RunnerConfig

#: The CI-sized wide sweep: R = 32 permutations.
WIDE = WORKLOADS["wide-smoke"]

#: Interpreted kernels take seconds per run; one round is enough to print.
ROUNDS = 2 if NUMBA_AVAILABLE else 1


@pytest.fixture(scope="module")
def wide_matrix():
    return WIDE.build_matrix()


def _runner():
    return EstimationRunner(
        list(WIDE.estimators),
        RunnerConfig(
            engine="batch",
            num_permutations=WIDE.num_permutations,
            num_checkpoints=WIDE.num_checkpoints,
            seed=3,
        ),
    )


def test_fused_scans_wide_sweep_vs_numpy(benchmark, monkeypatch, wide_matrix):
    """Bit-identity first, then the timing; compiled kernels must clear 2x."""
    monkeypatch.setattr(state, "_FUSED_SCANS", False)
    numpy_seconds, reference = _time_run(_runner(), wide_matrix, 2)

    monkeypatch.setattr(state, "_FUSED_SCANS", True)
    runner = _runner()
    # Warm-up (JIT compilation where numba is installed) outside the
    # timed region.
    runner.run(wide_matrix.prefix(min(10, wide_matrix.num_columns)))
    result = benchmark.pedantic(
        lambda: runner.run(wide_matrix), rounds=ROUNDS, iterations=1
    )
    assert _series_values(result) == _series_values(reference), (
        "the fused scan kernels are not bit-identical to the vectorised reference"
    )
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        fused_seconds = stats.stats.min
    else:  # --benchmark-disable: time it ourselves
        fused_seconds, _ = _time_run(runner, wide_matrix, ROUNDS)
    speedup = numpy_seconds / fused_seconds
    kind = "compiled" if NUMBA_AVAILABLE else "interpreted"
    print(
        f"\nwide sweep ({WIDE.name}): numpy {numpy_seconds:.3f}s, "
        f"fused ({kind}) {fused_seconds:.3f}s ({speedup:.2f}x)"
    )
    if NUMBA_AVAILABLE:
        assert speedup >= 2.0, (
            f"compiled scan kernels must be >= 2x over the vectorised "
            f"reference on the wide sweep; measured {speedup:.2f}x"
        )
