"""Shared infrastructure used across every ``repro`` subpackage.

The :mod:`repro.common` package holds the small, dependency-free pieces that
every other subsystem builds on: deterministic random-number plumbing,
argument validation helpers, the vote-label constants, and the exception
hierarchy.  Keeping them here avoids import cycles between the data, crowd
and estimator layers.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".labels": "CLEAN DIRTY UNSEEN Label",
        ".rng": "RandomState derive_rng ensure_rng spawn_seeds",
        ".registry": "Registry",
        ".validation": "check_fraction check_non_negative check_positive check_probability",
        ".exceptions": (
            "ReproError ValidationError ConfigurationError EstimationError InsufficientDataError"
        ),
    },
)
