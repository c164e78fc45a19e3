"""Switch-based total-error estimation (Section 4.3 of the paper).

The remaining-switch estimate answers Problem 2, but the original question
(Problem 1: how many errors does the dataset contain?) can be recovered by
correcting the current majority count with the estimated remaining
switches:

* remaining **positive** switches (clean→dirty) will add errors to the
  majority count, and
* remaining **negative** switches (dirty→clean) will remove false positives
  from it.

Estimating both directions separately can be unreliable when one direction
has very few observed switches, so the paper exploits the monotone trend of
the majority count: if the majority count has been *increasing* the dataset
is dominated by false negatives and only the positive-switch correction is
applied (``majority + xi+``); if it has been *decreasing* the dataset is
dominated by false positives and only the negative-switch correction is
applied (``majority - xi-``).  :class:`SwitchTotalErrorEstimator` makes
that decision dynamically from the recent history of the majority count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.validation import check_int
from repro.core.base import BatchEstimates, EstimateResult, StateEstimatorMixin
from repro.core.switch import NEGATIVE, POSITIVE, estimate_remaining_switches

#: Valid trend-selection modes.
TREND_MODES = ("auto", "positive", "negative", "both")


@dataclass
class SwitchTotalErrorEstimator(StateEstimatorMixin):
    """The paper's SWITCH / DQM total-error estimator.

    Parameters
    ----------
    trend_mode:
        ``"auto"`` (default) selects the correction direction from the
        recent trend of the majority count, as in the paper.  ``"positive"``
        and ``"negative"`` force one direction; ``"both"`` applies
        ``majority + xi+ - xi-`` unconditionally (useful for ablations).
    trend_window:
        How many of the most recent columns to look back when measuring the
        majority trend in ``"auto"`` mode.  The window is clipped to the
        number of available columns.
    use_skew_correction:
        Include the coefficient-of-variation correction in the underlying
        switch estimates.
    name:
        Registry / report name.
    """

    trend_mode: str = "auto"
    trend_window: int = 10
    use_skew_correction: bool = True
    name: str = "switch_total"

    #: The batched form reads the batch's switch scan, so a runner batch
    #: that evaluates this estimator builds it on either cell path (see
    #: :class:`~repro.core.state.PermutationBatch`).
    reads_switch_scan = True

    def __post_init__(self) -> None:
        if self.trend_mode not in TREND_MODES:
            raise ValidationError(
                f"trend_mode must be one of {TREND_MODES}, got {self.trend_mode!r}"
            )
        check_int(self.trend_window, "trend_window", minimum=1)

    # ------------------------------------------------------------------ #
    def _trend_lookback(self, num_columns: int) -> int:
        """Columns to look back when measuring the majority trend (0 = none)."""
        if num_columns <= 1:
            return 0
        return min(self.trend_window, num_columns - 1)

    @staticmethod
    def _classify_trend(current: int, earlier: int) -> str:
        if current > earlier:
            return "increasing"
        if current < earlier:
            return "decreasing"
        return "flat"

    def _detect_trend(self, state) -> str:
        """Return ``"increasing"``, ``"decreasing"`` or ``"flat"``.

        Compares the current majority count against the count
        ``trend_window`` columns earlier (clipped to the columns
        available), both read from the estimation state.
        """
        lookback = self._trend_lookback(state.num_columns)
        if lookback == 0:
            return "flat"
        return self._classify_trend(
            state.majority_count(), state.majority_count_back(lookback)
        )

    def _result_from_stats(
        self,
        majority: float,
        xi_positive: float,
        xi_negative: float,
        trend: str,
        *,
        observed_switches: int,
        observed_positive: int,
        observed_negative: int,
        n_switch: int,
    ) -> EstimateResult:
        if self.trend_mode in ("positive", "negative", "both"):
            chosen = self.trend_mode
        elif trend == "increasing":
            chosen = "positive"
        elif trend == "decreasing":
            chosen = "negative"
        else:
            # No trend information yet: fall back to the symmetric
            # correction, which reduces to the majority count when both
            # directions lack observed switches.
            chosen = "both"

        if chosen == "positive":
            estimate = majority + xi_positive
        elif chosen == "negative":
            estimate = majority - xi_negative
        else:
            estimate = majority + xi_positive - xi_negative
        estimate = max(0.0, estimate)

        return EstimateResult(
            estimate=float(estimate),
            observed=majority,
            details={
                "xi_positive": float(xi_positive),
                "xi_negative": float(xi_negative),
                "correction": 1.0 if chosen == "positive" else (-1.0 if chosen == "negative" else 0.0),
                "observed_switches": float(observed_switches),
                "observed_positive_switches": float(observed_positive),
                "observed_negative_switches": float(observed_negative),
                "n_switch": float(n_switch),
            },
        )

    def _result(self, majority: float, stats, trend: str) -> EstimateResult:
        # ``stats`` is a SwitchStatistics, its array-backed sweep stand-in,
        # or the live IncrementalSwitchState of a streaming session.
        xi_positive = estimate_remaining_switches(
            stats, direction=POSITIVE, use_skew_correction=self.use_skew_correction
        )
        xi_negative = estimate_remaining_switches(
            stats, direction=NEGATIVE, use_skew_correction=self.use_skew_correction
        )
        return self._result_from_stats(
            majority,
            xi_positive,
            xi_negative,
            trend,
            observed_switches=stats.num_switches,
            observed_positive=stats.num_switches_by_direction(POSITIVE),
            observed_negative=stats.num_switches_by_direction(NEGATIVE),
            n_switch=stats.n_switch,
        )

    def estimate_state(self, state) -> EstimateResult:
        """Estimate the total number of errors in the dataset.

        The result's ``observed`` field is the current majority count; the
        ``estimate`` field is the trend-corrected total.
        """
        majority = float(state.majority_count())
        stats = state.switch_stats()
        trend = self._detect_trend(state) if self.trend_mode == "auto" else "flat"
        return self._result(majority, stats, trend)

    def _batch_corrections(self, batch) -> np.ndarray:
        """The correction each cell applies: 1 positive, -1 negative, 0 both.

        In ``"auto"`` mode an increasing majority count selects the
        positive correction and a decreasing one the negative; a flat
        trend, or no column to look back to, applies both.
        """
        if self.trend_mode != "auto":
            code = {"positive": 1, "negative": -1, "both": 0}[self.trend_mode]
            return np.full(batch.majority_counts.shape, code)
        resolved = np.asarray(batch.resolved, dtype=np.int64)
        lookback = np.where(resolved <= 1, 0, np.minimum(self.trend_window, resolved - 1))
        earlier = batch.majority_history[:, resolved - lookback]
        return np.where(lookback > 0, np.sign(batch.majority_counts - earlier), 0)

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Cross-permutation sweep over the batch's shared statistics.

        The majority counts and trend lookbacks come from the batched
        count tables and majority history; both directional switch
        estimates come from the batch's shared switch cells.  The scalar
        core's arithmetic then runs on every cell at once in numpy, so
        the estimates are bit-identical to the serial sweep.
        """
        cells = batch.switch_sweep_cells
        xi = {}
        for direction in (POSITIVE, NEGATIVE):
            total, _, _ = cells.totals(direction, self.use_skew_correction)
            remaining = total - cells.counts[direction]
            xi[direction] = np.where(remaining > 0.0, remaining, 0.0)
        majority = batch.majority_counts.astype(np.float64)
        correction = self._batch_corrections(batch)
        estimate = np.where(
            correction > 0,
            majority + xi[POSITIVE],
            np.where(
                correction < 0,
                majority - xi[NEGATIVE],
                majority + xi[POSITIVE] - xi[NEGATIVE],
            ),
        )
        return BatchEstimates(
            np.where(estimate > 0.0, estimate, 0.0),
            majority,
            {
                "xi_positive": xi[POSITIVE],
                "xi_negative": xi[NEGATIVE],
                "correction": correction,
                "observed_switches": cells.counts[None],
                "observed_positive_switches": cells.counts[POSITIVE],
                "observed_negative_switches": cells.counts[NEGATIVE],
                "n_switch": cells.n_switch,
            },
        )
