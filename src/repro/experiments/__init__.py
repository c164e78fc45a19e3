"""Experiment harness: everything needed to regenerate the paper's figures.

The harness separates three concerns:

* :mod:`~repro.experiments.runner` — feed a vote matrix to a set of
  estimators prefix-by-prefix (the paper's "# tasks" x-axis) and average
  over random worker permutations,
* per-figure experiment modules
  (:mod:`~repro.experiments.real_world`,
  :mod:`~repro.experiments.sensitivity`,
  :mod:`~repro.experiments.robustness`,
  :mod:`~repro.experiments.prioritization_study`,
  :mod:`~repro.experiments.extrapolation_study`) — set up the workloads of
  Figures 2–8 and the two worked examples,
* :mod:`~repro.experiments.reporting` — render result series as plain-text
  tables/CSV so the benchmarks can print the same rows the paper plots.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".runner": "EstimationRunner RunnerConfig",
        ".results": "EstimateSeries ExperimentResult TracePoint",
        ".scm": "sample_clean_minimum",
        ".reporting": "render_series_table series_to_csv",
    },
)
