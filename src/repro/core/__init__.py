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

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".base": (
            "EstimatorProtocol EstimateResult BatchEstimates StateEstimatorMixin "
            "SweepEstimatorMixin sweep_estimates batch_estimates"
        ),
        ".state": (
            "EstimationState MatrixPrefixState MatrixSweepState StreamingState matrix_sweep_states "
            "PermutationBatch"
        ),
        ".fstatistics": (
            "Fingerprint IncrementalFingerprint fingerprint_from_counts "
            "fingerprints_from_count_table positive_vote_fingerprint positive_vote_fingerprints"
        ),
        ".chao92": "Chao92Estimator chao92_components chao92_estimate good_turing_coverage",
        ".vchao92": "VChao92Estimator vchao92_estimate",
        ".descriptive": (
            "NominalEstimator VotingEstimator nominal_estimate majority_estimate CollusionReport "
            "collusion_report"
        ),
        ".extrapolation": "ExtrapolationEstimator extrapolate_from_sample",
        ".switch": (
            "SwitchEstimator SwitchStatistics count_switches switch_statistics "
            "switch_statistics_sweep"
        ),
        ".total_error": "SwitchTotalErrorEstimator",
        ".species": "chao84_estimate good_turing_estimate jackknife_estimate",
        ".metrics": "scaled_rmse absolute_error relative_error signed_error",
        ".registry": "register_estimator unregister_estimator get_estimator available_estimators",
    },
)
