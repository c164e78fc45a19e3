"""Small argument-validation helpers shared across the library.

These helpers keep public constructors short and produce consistent,
descriptive error messages.  They all raise
:class:`repro.common.exceptions.ValidationError`.
"""

from __future__ import annotations

from numbers import Real
from typing import Optional

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY

#: The only vote values a session accepts.
_VOTES = (DIRTY, CLEAN)
#: ``True == 1``, so booleans pass the membership test and need their own.
_BOOLS = (bool, np.bool_)


def _check_real(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_probability(value: object, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1].

    Returns the value as a ``float``.
    """
    val = _check_real(value, name)
    if not 0.0 <= val <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {val}")
    return val


def check_fraction(value: object, name: str, *, allow_zero: bool = True) -> float:
    """Validate that ``value`` is a fraction in ``(0, 1]`` (or ``[0, 1]``).

    Parameters
    ----------
    value:
        Candidate fraction.
    name:
        Parameter name used in error messages.
    allow_zero:
        When ``False``, zero is rejected.
    """
    val = _check_real(value, name)
    lower_ok = val >= 0.0 if allow_zero else val > 0.0
    if not (lower_ok and val <= 1.0):
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValidationError(f"{name} must be in {bound}, got {val}")
    return val


def check_positive(value: object, name: str) -> float:
    """Validate that ``value`` is strictly positive.  Returns it as ``float``."""
    val = _check_real(value, name)
    if val <= 0:
        raise ValidationError(f"{name} must be > 0, got {val}")
    return val


def check_non_negative(value: object, name: str) -> float:
    """Validate that ``value`` is >= 0.  Returns it as ``float``."""
    val = _check_real(value, name)
    if val < 0:
        raise ValidationError(f"{name} must be >= 0, got {val}")
    return val


def check_int(value: object, name: str, *, minimum: Optional[int] = None) -> int:
    """Validate that ``value`` is an integer, optionally with a lower bound."""
    if type(value) is not int and (  # exact ints skip the slower ABC check
        isinstance(value, bool) or not isinstance(value, Real) or int(value) != value
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    ivalue = int(value)
    if minimum is not None and ivalue < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {ivalue}")
    return ivalue


def check_order(order: object, num_columns: int) -> np.ndarray:
    """Validate a column order: a permutation of ``range(num_columns)``.

    ``order`` must be an integer (not boolean) sequence of shape
    ``(num_columns,)`` whose sorted values are ``0..num_columns-1``; an
    empty order of any dtype is the permutation of zero columns.  A
    sequence that is not an array must not hold a boolean anywhere, as
    ``np.asarray`` turns ``[False, True, 2]`` into integers; an integer
    array skips that per-element scan.  Returns it as an ``intp`` array.
    """
    try:
        candidate = np.asarray(order)
    except ValueError:  # a ragged nested sequence
        candidate = None
    if (
        candidate is None
        or candidate.shape != (num_columns,)
        or (candidate.size and candidate.dtype.kind not in "iu")
        or (
            not isinstance(order, np.ndarray)
            and any(isinstance(value, _BOOLS) for value in order)
        )
        or not np.array_equal(np.sort(candidate), np.arange(num_columns))
    ):
        raise ValidationError(
            f"a column order must be a permutation of range({num_columns}), "
            f"got {order!r}"
        )
    return candidate.astype(np.intp, copy=False)


def check_vote(vote: object, item_id: object) -> None:
    """Validate one vote: ``DIRTY`` or ``CLEAN``, and not a boolean.

    The same rule as the wire, whose votes go through :func:`check_int`:
    ``True``/``False`` (also ``numpy.bool_``) are refused, not taken as
    ``1``/``0``.
    """
    if vote not in _VOTES or isinstance(vote, _BOOLS):
        raise ValidationError(
            f"votes must be DIRTY ({DIRTY}) or CLEAN ({CLEAN}); "
            f"got {vote!r} for item {item_id}"
        )


def check_in(value: object, name: str, allowed) -> object:
    """Validate that ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValidationError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")
    return value


def check_known_keys(data, what: str, allowed) -> None:
    """Reject mapping keys outside ``allowed`` with a remediation message.

    The strict-key contract of the hand-edited spec dictionaries (worker
    profiles, scenario/regime/assignment/dataset params): a typoed key
    must fail loudly naming the expected vocabulary, never silently take
    a default.  Raises
    :class:`repro.common.exceptions.ConfigurationError` so spec-layer
    callers surface the suite's standard configuration error.
    """
    from repro.common.exceptions import ConfigurationError

    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} {sorted(unknown)}; expected a subset of {sorted(allowed)}"
        )
