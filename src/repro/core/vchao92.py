"""The vChao92 estimator (V-CHAO, Section 3.3 of the paper).

Chao92 is highly sensitive to false positives because both the observed
distinct count ``c`` and, worse, the singleton count ``f_1`` are inflated
by them (the *singleton-error entanglement*).  vChao92 mitigates this in
two ways:

1. it starts from the **majority** count ``c_majority`` instead of the
   nominal count, so a single stray positive vote does not immediately add
   a "found error", and
2. it **shifts** the frequency statistics by ``s``: ``f_{1+s}`` plays the
   role of ``f_1``, ``f_{2+s}`` of ``f_2`` and so on, with the observation
   count adjusted to ``n^{+,s} = n^+ - sum_{i<=s} f_i``.  Statistics that
   require ``1+s`` workers to agree are far less likely to be products of
   false positives.

The cost is slower convergence, a shift parameter ``s`` that is hard to
tune a priori, and the loss of the guarantee that the estimator converges
to the ground truth (the paper's motivation for the SWITCH estimator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common.validation import check_int
from repro.core.base import BatchEstimates, EstimateResult, StateEstimatorMixin
from repro.core.chao92 import (
    _chao92_from_arrays,
    _coverage_from_stats,
    _pair_sum,
    _skew_from_stats,
)
from repro.core.fstatistics import Fingerprint


def _vchao92_from_stats(
    majority_count: int,
    shifted_observations: int,
    shifted_singletons: int,
    shifted_pair_sum: int,
    use_skew_correction: bool,
) -> Tuple[float, float]:
    """``(estimate, coverage)`` from the shifted sufficient statistics.

    The scalar arithmetic core of the fingerprint path (serial sweep and
    streaming session).  It is Chao92 on the shifted statistics with
    ``c_majority`` as the distinct count, which is how the batch engine
    evaluates it: :func:`~repro.core.chao92._chao92_from_arrays` on every
    cell at once, bit-identical to this function.
    """
    c = int(majority_count)
    coverage = _coverage_from_stats(shifted_singletons, shifted_observations)
    if coverage <= 0.0:
        return float(c), coverage
    estimate = c / coverage
    if use_skew_correction:
        gamma_squared = _skew_from_stats(
            c, shifted_observations, coverage, shifted_pair_sum
        )
        estimate += shifted_singletons * gamma_squared / coverage
    return float(estimate), coverage


def vchao92_components(
    fingerprint: Fingerprint,
    majority_count: int,
    *,
    shift: int = 1,
    use_skew_correction: bool = True,
) -> Tuple[float, Fingerprint, float]:
    """vChao92 estimate plus the shifted fingerprint and coverage behind it.

    Returns ``(estimate, shifted_fingerprint, coverage)`` so callers that
    also report the shifted statistics (the estimator's ``details`` dict)
    shift the fingerprint exactly once.
    """
    check_int(shift, "shift", minimum=0)
    shifted = fingerprint.shifted(shift)
    estimate, coverage = _vchao92_from_stats(
        majority_count,
        shifted.num_observations,
        shifted.singletons,
        _pair_sum(shifted) if use_skew_correction else 0,
        use_skew_correction,
    )
    return estimate, shifted, coverage


def vchao92_estimate(
    fingerprint: Fingerprint,
    majority_count: int,
    *,
    shift: int = 1,
    use_skew_correction: bool = True,
) -> float:
    """vChao92 estimate of the total number of distinct errors (Equation 6).

    Parameters
    ----------
    fingerprint:
        The positive-vote f-statistics **before** shifting.
    majority_count:
        ``c_majority`` — the number of items the majority consensus
        currently labels dirty.
    shift:
        The shift ``s`` (the paper's experiments use ``s = 1``).
    use_skew_correction:
        Include the skew correction term computed on the shifted
        fingerprint.

    Returns
    -------
    float
        The estimated total number of errors; falls back to
        ``majority_count`` when the shifted sample has zero coverage.
    """
    estimate, _, _ = vchao92_components(
        fingerprint,
        majority_count,
        shift=shift,
        use_skew_correction=use_skew_correction,
    )
    return estimate


@dataclass
class VChao92Estimator(StateEstimatorMixin):
    """Matrix-level vChao92 estimator (the paper's V-CHAO method).

    Parameters
    ----------
    shift:
        The frequency-statistic shift ``s`` (default 1, as in the paper's
        experiments).
    use_skew_correction:
        Include the coefficient-of-variation correction.
    name:
        Registry / report name.
    """

    shift: int = 1
    use_skew_correction: bool = True
    name: str = "vchao92"

    def __post_init__(self) -> None:
        check_int(self.shift, "shift", minimum=0)

    def _result_from_stats(
        self, majority: int, shifted_n: int, shifted_f1: int, shifted_pair_sum: int
    ) -> EstimateResult:
        estimate, coverage = _vchao92_from_stats(
            majority,
            shifted_n,
            shifted_f1,
            shifted_pair_sum,
            self.use_skew_correction,
        )
        return EstimateResult(
            estimate=estimate,
            observed=float(majority),
            details={
                "shift": float(self.shift),
                "coverage": coverage,
                "shifted_singletons": float(shifted_f1),
                "shifted_observations": float(shifted_n),
            },
        )

    def _result(self, fingerprint: Fingerprint, majority: int) -> EstimateResult:
        shifted = fingerprint.shifted(self.shift)
        return self._result_from_stats(
            majority,
            shifted.num_observations,
            shifted.singletons,
            _pair_sum(shifted) if self.use_skew_correction else 0,
        )

    def estimate_state(self, state) -> EstimateResult:
        """Estimate the total error count from the shifted vote fingerprint."""
        return self._result(state.positive_fingerprint(), state.majority_count())

    def _shifted_statistics(self, batch) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n', f'_1, sum_j j(j-1) f'_j)`` of the shifted fingerprint per cell.

        At the default ``s = 1`` all three are exact integer combinations
        of the batch's shared positive-count moments: ``n' = n - f_1``,
        ``f'_1 = f_2`` and ``sum_{n_i > 1} (n_i - 1)(n_i - 2) =
        sum n^2 - 3 sum n + 2 c_nominal``.  Other shifts reduce the
        positive-count table directly: ``f'_1`` counts the items with
        exactly ``1 + s`` positive votes, ``n'`` drops the first ``s``
        frequency classes and the pair sum runs over ``n_i > s``.
        """
        s = self.shift
        if s == 1:
            moments = batch.positive_moments
            return (
                moments.total - moments.singletons,
                moments.doubletons,
                moments.squares - 3 * moments.total + 2 * batch.nominal_counts,
            )
        positives = batch.positive_table  # (R, m, N)
        n = positives.sum(axis=2, dtype=np.int64)
        removed = np.count_nonzero((positives >= 1) & (positives <= s), axis=2)
        # The int64 shift promotes the products before they can overflow
        # the table's compact dtype.
        shifted_values = positives - np.int64(s)
        return (
            np.maximum(0, n - removed),
            np.count_nonzero(positives == 1 + s, axis=2),
            (shifted_values * (shifted_values - 1) * (positives > s)).sum(axis=2),
        )

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Every (permutation, checkpoint) cell of a :class:`PermutationBatch`.

        The shifted statistics come from :meth:`_shifted_statistics`; the
        arithmetic is the scalar core's, cell by cell in numpy (vChao92
        is Chao92 on the shifted fingerprint with ``c_majority`` as the
        distinct count), so every estimate is bit-identical to the serial
        sweep.
        """
        shifted_n, shifted_f1, shifted_pair_sum = self._shifted_statistics(batch)
        observed = batch.majority_counts
        estimate, coverage, _ = _chao92_from_arrays(
            observed, shifted_n, shifted_f1, shifted_pair_sum, self.use_skew_correction
        )
        return BatchEstimates(
            estimate,
            observed,
            {
                "shift": self.shift,
                "coverage": coverage,
                "shifted_singletons": shifted_f1,
                "shifted_observations": shifted_n,
            },
        )
