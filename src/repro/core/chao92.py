"""The Chao92 sample-coverage species estimator (Section 3.2 of the paper).

Given the fingerprint of positive votes, Chao92 estimates the total number
of distinct errors as

.. math::

    \\hat{D}_{Chao92} = \\frac{c}{\\hat{C}} + \\frac{f_1 \\hat{\\gamma}^2}{\\hat{C}},
    \\qquad \\hat{C} = 1 - f_1 / n^+,

where ``c`` is the number of distinct observed errors, ``f_1`` the number
of singleton errors, ``n^+`` the number of positive votes, and
``\\hat{\\gamma}^2`` the estimated squared coefficient of variation of the
item detection probabilities (Equation 5).  Without the skew term the
estimator reduces to the plain sample-coverage estimate ``c / \\hat{C}``.

The module exposes both a functional API (:func:`chao92_estimate`) working
directly on a :class:`~repro.core.fstatistics.Fingerprint` and the
matrix-level :class:`Chao92Estimator` used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.base import BatchEstimates, EstimateResult, StateEstimatorMixin
from repro.core.fstatistics import Fingerprint


def _coverage_from_stats(singletons: int, num_observations: int) -> float:
    """Good–Turing coverage from its two sufficient statistics."""
    if num_observations <= 0:
        return 0.0
    return max(0.0, 1.0 - singletons / num_observations)


def _skew_from_stats(
    distinct: int, num_observations: int, coverage: float, pair_sum: int
) -> float:
    """``gamma^2`` from scalar statistics; ``pair_sum = sum_j j(j-1) f_j``."""
    if num_observations <= 1 or coverage <= 0.0 or distinct <= 0:
        return 0.0
    gamma_squared = (
        (distinct / coverage) * pair_sum / (num_observations * (num_observations - 1))
        - 1.0
    )
    return max(gamma_squared, 0.0)


# The array forms below evaluate every branch of their scalar twin for all
# cells and select with ``np.where``, so a division by zero in a cell the
# scalar code never reaches is expected and masked.
@np.errstate(divide="ignore", invalid="ignore")
def _coverage_from_arrays(singletons: np.ndarray, num_observations: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_coverage_from_stats`."""
    ratio = 1.0 - singletons / num_observations
    # ``max(0.0, v)`` is ``v`` only when ``v > 0.0``.
    return np.where(num_observations <= 0, 0.0, np.where(ratio > 0.0, ratio, 0.0))


@np.errstate(divide="ignore", invalid="ignore")
def _skew_from_arrays(
    distinct: np.ndarray,
    num_observations: np.ndarray,
    coverage: np.ndarray,
    pair_sum: np.ndarray,
) -> np.ndarray:
    """Elementwise :func:`_skew_from_stats`."""
    gamma_squared = (
        (distinct / coverage) * pair_sum / (num_observations * (num_observations - 1))
        - 1.0
    )
    # ``max(v, 0.0)`` is ``0.0`` only when ``0.0 > v``.
    gamma_squared = np.where(0.0 > gamma_squared, 0.0, gamma_squared)
    return np.where(
        (num_observations <= 1) | (coverage <= 0.0) | (distinct <= 0), 0.0, gamma_squared
    )


@np.errstate(divide="ignore", invalid="ignore")
def _chao92_from_arrays(
    distinct: np.ndarray,
    num_observations: np.ndarray,
    singletons: np.ndarray,
    pair_sum: np.ndarray,
    use_skew_correction: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`chao92_components_from_stats` over int64 arrays, cell by cell.

    Every branch of the scalar core becomes an ``np.where`` over values
    computed for all cells, and every expression keeps its operand order,
    so each float64 cell equals the scalar result bit for bit (the
    integer operands stay below ``2**53``, where ``int / int`` and
    float64 division agree).
    """
    coverage = _coverage_from_arrays(singletons, num_observations)
    if use_skew_correction:
        gamma_squared = _skew_from_arrays(distinct, num_observations, coverage, pair_sum)
        estimate = distinct / coverage + singletons * gamma_squared / coverage
    else:
        gamma_squared = np.zeros(coverage.shape)
        estimate = distinct / coverage
    estimate = np.where(coverage <= 0.0, distinct.astype(np.float64), estimate)
    return estimate, coverage, gamma_squared


def _pair_sum(fingerprint: Fingerprint) -> int:
    """``sum_j j(j-1) f_j`` — the skew numerator of a fingerprint.

    Equals ``sum_i n_i (n_i - 1) = sum n^2 - sum n`` over the per-item
    occurrence counts, which is how the batch engine computes it from its
    positive-count moments without materialising the fingerprint.
    """
    return sum(j * (j - 1) * fj for j, fj in fingerprint.frequencies.items())


def good_turing_coverage(fingerprint: Fingerprint) -> float:
    """Good–Turing sample-coverage estimate ``C = 1 - f_1 / n``.

    Returns 0.0 when there are no observations (coverage unknown) and
    clips to 0.0 when ``f_1 >= n`` (every observation is a singleton, so
    the sample says nothing about the unseen mass).
    """
    return _coverage_from_stats(fingerprint.singletons, fingerprint.num_observations)


def skew_coefficient(
    fingerprint: Fingerprint,
    distinct: Optional[int] = None,
    coverage: Optional[float] = None,
) -> float:
    """Estimated squared coefficient of variation ``gamma^2`` (Equation 5).

    Parameters
    ----------
    fingerprint:
        The f-statistics.
    distinct:
        ``c`` — the number of distinct observed items; defaults to the
        fingerprint's own distinct count (callers may pass the majority
        count instead, as vChao92 does).
    coverage:
        Sample coverage ``C``; defaults to :func:`good_turing_coverage`.

    Returns
    -------
    float
        ``max(gamma^2, 0)``; returns 0 when the sample is too small for the
        formula (fewer than two observations or zero coverage).
    """
    c = fingerprint.distinct if distinct is None else int(distinct)
    cov = good_turing_coverage(fingerprint) if coverage is None else float(coverage)
    return _skew_from_stats(c, fingerprint.num_observations, cov, _pair_sum(fingerprint))


def chao92_components_from_stats(
    *,
    distinct: int,
    num_observations: int,
    singletons: int,
    pair_sum: int,
    use_skew_correction: bool = True,
) -> Tuple[float, float, float]:
    """Chao92 components from the four sufficient statistics.

    This is the scalar arithmetic core behind :func:`chao92_components`,
    the serial sweep and the streaming session: the fingerprint path
    extracts the statistics from a
    :class:`~repro.core.fstatistics.Fingerprint`.  The cross-permutation
    batch engine runs :func:`_chao92_from_arrays`, a step-for-step
    elementwise copy of it, on every cell at once; this function stays the
    oracle that copy is tested against.
    """
    c = int(distinct)
    n = int(num_observations)
    f1 = int(singletons)
    coverage = _coverage_from_stats(f1, n)
    gamma_squared = (
        _skew_from_stats(c, n, coverage, int(pair_sum)) if use_skew_correction else 0.0
    )
    if coverage <= 0.0:
        return float(c), coverage, gamma_squared
    estimate = c / coverage
    if use_skew_correction:
        estimate += f1 * gamma_squared / coverage
    return float(estimate), coverage, gamma_squared


def chao92_components(
    fingerprint: Fingerprint,
    *,
    distinct: Optional[int] = None,
    use_skew_correction: bool = True,
) -> Tuple[float, float, float]:
    """Chao92 estimate plus the intermediates it is built from.

    Returns ``(estimate, coverage, gamma_squared)`` so callers that also
    report the sample coverage and skew coefficient (every estimator's
    ``details`` dict) compute them exactly once instead of re-deriving them
    from the fingerprint.
    """
    return chao92_components_from_stats(
        distinct=fingerprint.distinct if distinct is None else int(distinct),
        num_observations=fingerprint.num_observations,
        singletons=fingerprint.singletons,
        pair_sum=_pair_sum(fingerprint) if use_skew_correction else 0,
        use_skew_correction=use_skew_correction,
    )


def chao92_estimate(
    fingerprint: Fingerprint,
    *,
    distinct: Optional[int] = None,
    use_skew_correction: bool = True,
) -> float:
    """Chao92 estimate of the total number of distinct items.

    Parameters
    ----------
    fingerprint:
        f-statistics of the observed sample.
    distinct:
        The observed distinct count ``c`` to scale up.  Defaults to the
        fingerprint's distinct count (``c_nominal`` for the vote
        fingerprint); vChao92 passes ``c_majority`` instead.
    use_skew_correction:
        Include the ``f_1 * gamma^2 / C`` skew term (Equation 4).  Without
        it the estimate is the basic sample-coverage estimate
        (Equation 3).

    Returns
    -------
    float
        The estimated total number of distinct items.  When the sample
        coverage is zero (no observations, or every observation a
        singleton) the estimate falls back to the observed distinct count —
        the estimator has no basis for extrapolation yet.
    """
    estimate, _, _ = chao92_components(
        fingerprint, distinct=distinct, use_skew_correction=use_skew_correction
    )
    return estimate


@dataclass
class Chao92Estimator(StateEstimatorMixin):
    """Matrix-level Chao92 estimator (the paper's CHAO92 baseline).

    Parameters
    ----------
    use_skew_correction:
        Include the coefficient-of-variation correction term.
    name:
        Registry / report name.
    """

    use_skew_correction: bool = True
    name: str = "chao92"

    def _result_from_stats(
        self, observed: int, n: int, f1: int, f2: int, pair_sum: int
    ) -> EstimateResult:
        estimate, coverage, gamma_squared = chao92_components_from_stats(
            distinct=observed,
            num_observations=n,
            singletons=f1,
            pair_sum=pair_sum,
            use_skew_correction=self.use_skew_correction,
        )
        return EstimateResult(
            estimate=estimate,
            observed=float(observed),
            details={
                "coverage": coverage,
                "singletons": float(f1),
                "doubletons": float(f2),
                "positive_votes": float(n),
                "gamma_squared": gamma_squared,
            },
        )

    def _result(self, fingerprint: Fingerprint, observed: int) -> EstimateResult:
        return self._result_from_stats(
            observed,
            fingerprint.num_observations,
            fingerprint.singletons,
            fingerprint.doubletons,
            _pair_sum(fingerprint) if self.use_skew_correction else 0,
        )

    def estimate_state(self, state) -> EstimateResult:
        """Estimate the total error count from the state's vote fingerprint."""
        return self._result(state.positive_fingerprint(), state.nominal_count())

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Every (permutation, checkpoint) cell of a :class:`PermutationBatch`.

        ``n``, ``f_1``, ``f_2`` and the skew pair sum
        ``sum_i n_i (n_i - 1) = sum n^2 - sum n`` follow exactly from the
        batch's one pass of positive-count moments; the arithmetic is the
        scalar core's, cell by cell in numpy, so every estimate is
        bit-identical to the serial sweep.
        """
        moments = batch.positive_moments
        n = moments.total
        observed = batch.nominal_counts
        estimate, coverage, gamma_squared = _chao92_from_arrays(
            observed,
            n,
            moments.singletons,
            moments.squares - n,
            self.use_skew_correction,
        )
        return BatchEstimates(
            estimate,
            observed,
            {
                "coverage": coverage,
                "singletons": moments.singletons,
                "doubletons": moments.doubletons,
                "positive_votes": n,
                "gamma_squared": gamma_squared,
            },
        )
