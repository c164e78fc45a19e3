"""Prioritised estimation (Section 5 of the paper).

Crowdsourced cleaning is usually run behind an algorithmic heuristic that
filters out the obvious cases.  This package composes the estimators with
that heuristic:

* :func:`~repro.prioritization.perfect.total_errors_with_perfect_heuristic`
  — Equation 9: with a perfect heuristic the crowd only reviews the
  ambiguous band and the obvious matches are added back verbatim.
* :class:`~repro.prioritization.imperfect.EpsilonGreedyPrioritizer` —
  Section 5.3: with an imperfect heuristic, workers see ambiguous items
  with probability ``1 - ε`` and items outside the band with probability
  ``ε``, and the estimate targets the whole dataset (Equation 10).
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".perfect": "total_errors_with_perfect_heuristic",
        ".imperfect": (
            "EpsilonGreedyPrioritizer PrioritizedEstimate estimate_with_imperfect_heuristic"
        ),
    },
)
