"""Core estimators: the paper's primary contribution.

This package implements the data-quality estimators the paper proposes and
the baselines it compares against:

==========================  ==================================================
object                      role in the paper
==========================  ==================================================
``nominal_estimate``        descriptive baseline (Section 2.2.1)
``VotingEstimator``         descriptive majority consensus (Section 2.2.2)
``ExtrapolationEstimator``  predictive baseline: perfectly-cleaned sample
                            scaled up (Section 2.2.3)
``Chao92Estimator``         species estimation on positive votes
                            (Section 3.2, Equation 4)
``VChao92Estimator``        shift-robust variant, V-CHAO (Section 3.3,
                            Equation 6)
``SwitchEstimator``         remaining-switch estimation (Section 4.2,
                            Equation 8)
``SwitchTotalErrorEstimator``  switch-corrected total error, the paper's
                            SWITCH / DQM method (Section 4.3)
==========================  ==================================================

plus the shared machinery: f-statistics (``fingerprint``), sample-coverage
and skew estimation, extra species estimators used for ablations, the
scaled-error metric (SRMSE), and an estimator registry so experiment
configurations can refer to estimators by name.
"""

from repro.core.base import (
    BatchEstimates,
    EstimatorProtocol,
    EstimateResult,
    StateEstimatorMixin,
    SweepEstimatorMixin,
    batch_estimates,
    sweep_estimates,
)
from repro.core.chao92 import (
    Chao92Estimator,
    chao92_components,
    chao92_estimate,
    good_turing_coverage,
)
from repro.core.descriptive import (
    CollusionReport,
    NominalEstimator,
    VotingEstimator,
    collusion_report,
    majority_estimate,
    nominal_estimate,
)
from repro.core.extrapolation import ExtrapolationEstimator, extrapolate_from_sample
from repro.core.fstatistics import (
    Fingerprint,
    IncrementalFingerprint,
    fingerprint_from_counts,
    fingerprints_from_count_table,
    positive_vote_fingerprint,
    positive_vote_fingerprints,
)
from repro.core.metrics import (
    absolute_error,
    relative_error,
    scaled_rmse,
    signed_error,
)
from repro.core.registry import available_estimators, get_estimator, register_estimator
from repro.core.state import (
    EstimationState,
    MatrixPrefixState,
    MatrixSweepState,
    PermutationBatch,
    PermutationSweepState,
    StreamingState,
    matrix_sweep_states,
)
from repro.core.species import (
    chao84_estimate,
    good_turing_estimate,
    jackknife_estimate,
)
from repro.core.switch import (
    SwitchEstimator,
    SwitchStatistics,
    count_switches,
    switch_statistics,
    switch_statistics_sweep,
)
from repro.core.total_error import SwitchTotalErrorEstimator
from repro.core.vchao92 import VChao92Estimator, vchao92_estimate

__all__ = [
    "EstimatorProtocol",
    "EstimateResult",
    "BatchEstimates",
    "StateEstimatorMixin",
    "SweepEstimatorMixin",
    "sweep_estimates",
    "batch_estimates",
    "EstimationState",
    "MatrixPrefixState",
    "MatrixSweepState",
    "StreamingState",
    "matrix_sweep_states",
    "PermutationBatch",
    "PermutationSweepState",
    "Fingerprint",
    "IncrementalFingerprint",
    "fingerprint_from_counts",
    "fingerprints_from_count_table",
    "positive_vote_fingerprint",
    "positive_vote_fingerprints",
    "Chao92Estimator",
    "chao92_components",
    "chao92_estimate",
    "good_turing_coverage",
    "VChao92Estimator",
    "vchao92_estimate",
    "NominalEstimator",
    "VotingEstimator",
    "nominal_estimate",
    "majority_estimate",
    "CollusionReport",
    "collusion_report",
    "ExtrapolationEstimator",
    "extrapolate_from_sample",
    "SwitchEstimator",
    "SwitchStatistics",
    "count_switches",
    "switch_statistics",
    "switch_statistics_sweep",
    "SwitchTotalErrorEstimator",
    "chao84_estimate",
    "good_turing_estimate",
    "jackknife_estimate",
    "scaled_rmse",
    "absolute_error",
    "relative_error",
    "signed_error",
    "register_estimator",
    "get_estimator",
    "available_estimators",
]
