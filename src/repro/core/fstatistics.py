"""f-statistics (the "data fingerprint") used by the species estimators.

In species estimation, ``f_j`` is the number of distinct observed items
that occur exactly ``j`` times in the sample.  ``f_1`` (singletons) is the
key quantity: the Good–Turing estimate of the unseen probability mass is
``f_1 / n``, and Chao92 uses it to estimate the sample coverage.

For the data-quality problem (Section 3.2 of the paper) the "occurrences"
of an error are its positive (dirty) votes, so the fingerprint is built
from the per-item positive-vote counts ``n_i^+`` and ``n`` is the total
number of positive votes ``n^+``.  The switch estimator builds a different
fingerprint (over switch rediscoveries); both are represented by the same
:class:`Fingerprint` container.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.common.exceptions import ValidationError
from repro.crowd.response_matrix import ResponseMatrix


@dataclass(frozen=True)
class Fingerprint:
    """The frequency-of-frequencies summary of a sample.

    Attributes
    ----------
    frequencies:
        Mapping ``j -> f_j`` for ``j >= 1``; absent keys mean ``f_j = 0``.
    num_observations:
        ``n`` — the total number of observations the fingerprint summarises.
        For the vote fingerprint this is the number of positive votes; for
        the switch fingerprint it is the adjusted vote count ``n_switch``.
    """

    frequencies: Mapping[int, int] = field(default_factory=dict)
    num_observations: int = 0

    def __post_init__(self) -> None:
        cleaned: Dict[int, int] = {}
        for j, count in dict(self.frequencies).items():
            j = int(j)
            count = int(count)
            if j < 1:
                raise ValidationError(f"fingerprint keys must be >= 1, got {j}")
            if count < 0:
                raise ValidationError(f"fingerprint counts must be >= 0, got f_{j} = {count}")
            if count:
                cleaned[j] = count
        object.__setattr__(self, "frequencies", cleaned)
        if self.num_observations < 0:
            raise ValidationError("num_observations must be >= 0")

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def f(self, j: int) -> int:
        """Return ``f_j`` (0 when no item was observed exactly ``j`` times)."""
        return int(self.frequencies.get(int(j), 0))

    @property
    def singletons(self) -> int:
        """``f_1`` — items observed exactly once."""
        return self.f(1)

    @property
    def doubletons(self) -> int:
        """``f_2`` — items observed exactly twice."""
        return self.f(2)

    @property
    def distinct(self) -> int:
        """``c`` — the number of distinct observed items (``sum_j f_j``)."""
        return int(sum(self.frequencies.values()))

    @property
    def total_occurrences(self) -> int:
        """``sum_j j * f_j`` — occurrences accounted for by the fingerprint.

        For the plain vote fingerprint this equals :attr:`num_observations`;
        the switch fingerprint deliberately breaks that equality (see
        Section 4.2 of the paper), which is why the two are stored
        separately.
        """
        return int(sum(j * count for j, count in self.frequencies.items()))

    @property
    def max_frequency(self) -> int:
        """The largest observed occurrence count."""
        return max(self.frequencies) if self.frequencies else 0

    def shifted(self, shift: int) -> "Fingerprint":
        """Return the fingerprint shifted by ``shift`` (vChao92, Section 3.3).

        Shifting by ``s`` treats ``f_{1+s}`` as the new ``f_1`` (etc.) and
        removes the first ``s`` frequency classes from the observation
        count: ``n^{+,s} = n^+ - sum_{i<=s} f_i``.

        Parameters
        ----------
        shift:
            Non-negative integer shift ``s``; 0 returns ``self`` unchanged.
        """
        shift = int(shift)
        if shift < 0:
            raise ValidationError(f"shift must be >= 0, got {shift}")
        if shift == 0:
            return self
        removed = sum(self.f(i) for i in range(1, shift + 1))
        new_frequencies = {
            j - shift: count for j, count in self.frequencies.items() if j > shift
        }
        new_n = max(0, self.num_observations - removed)
        return Fingerprint(frequencies=new_frequencies, num_observations=new_n)

    def as_dict(self) -> Dict[int, int]:
        """Return a plain ``{j: f_j}`` dictionary copy."""
        return dict(self.frequencies)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        head = {j: self.f(j) for j in sorted(self.frequencies)[:4]}
        return (
            f"Fingerprint(distinct={self.distinct}, n={self.num_observations}, head={head})"
        )


class IncrementalFingerprint:
    """Mutable frequency-of-frequencies with O(1) per-observation updates.

    The streaming estimation session cannot afford to rebuild a
    :class:`Fingerprint` from the full per-item count vector after every
    vote.  This tracker maintains the ``j -> f_j`` table directly: when an
    item moves from occurrence class ``old`` to class ``new`` one counter
    is decremented and one incremented, so an update costs O(1) regardless
    of ``N``.  :meth:`snapshot` materialises an immutable
    :class:`Fingerprint` holding exactly the integers a batch rebuild
    would produce — and caches it until the next mutation, so repeated
    estimate reads between updates (a dashboard polling a
    :class:`~repro.streaming.StreamingSession`) stop re-copying and
    re-validating the frequency table: they are O(1) and return the same
    object.
    """

    __slots__ = ("_frequencies", "num_observations", "_snapshot_cache")

    def __init__(self) -> None:
        self._frequencies: Dict[int, int] = {}
        self.num_observations = 0
        self._snapshot_cache: Optional[Fingerprint] = None

    def reclassify(self, old_count: int, new_count: int) -> None:
        """Move one item from occurrence class ``old_count`` to ``new_count``.

        Class 0 is "unobserved" and is not stored; moving from or to it
        adds or removes the item from the fingerprint.
        """
        if old_count == new_count:
            return
        self._snapshot_cache = None
        if old_count > 0:
            remaining = self._frequencies[old_count] - 1
            if remaining:
                self._frequencies[old_count] = remaining
            else:
                del self._frequencies[old_count]
        if new_count > 0:
            self._frequencies[new_count] = self._frequencies.get(new_count, 0) + 1

    def add_observations(self, count: int = 1) -> None:
        """Grow the observation count ``n`` by ``count``."""
        count = int(count)
        if count:
            self._snapshot_cache = None
            self.num_observations += count

    def snapshot(self, num_observations: Optional[int] = None) -> Fingerprint:
        """An immutable :class:`Fingerprint` of the current table.

        Cached until the next :meth:`reclassify` / :meth:`add_observations`
        mutation (per requested observation count), so repeated reads
        between updates cost O(1) and return the identical object.

        Parameters
        ----------
        num_observations:
            Override for ``n``.  The switch tracker maintains three
            fingerprints (all / positive / negative switches) that share
            the single adjusted count ``n_switch`` and passes it here.
        """
        resolved = (
            self.num_observations if num_observations is None else int(num_observations)
        )
        cached = self._snapshot_cache
        if cached is not None and cached.num_observations == resolved:
            return cached
        snapshot = Fingerprint(
            frequencies=dict(self._frequencies),
            num_observations=resolved,
        )
        self._snapshot_cache = snapshot
        return snapshot

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe serialisation of the tracker (snapshot codec).

        Frequency-class keys become strings because JSON objects cannot
        carry integer keys; every value is an exact Python integer, so a
        round trip through :meth:`from_state_dict` is bit-identical.
        """
        return {
            "frequencies": {str(j): int(count) for j, count in self._frequencies.items()},
            "num_observations": int(self.num_observations),
        }

    @classmethod
    def from_state_dict(cls, payload: Mapping[str, object]) -> "IncrementalFingerprint":
        """Rebuild a tracker from :meth:`state_dict` output."""
        tracker = cls()
        frequencies = payload.get("frequencies", {})
        if not isinstance(frequencies, Mapping):
            raise ValidationError("fingerprint state 'frequencies' must be a mapping")
        for j, count in frequencies.items():
            j, count = int(j), int(count)
            if j < 1 or count < 0:
                raise ValidationError(
                    f"invalid fingerprint state entry f_{j} = {count}"
                )
            if count:
                tracker._frequencies[j] = count
        tracker.num_observations = int(payload.get("num_observations", 0))
        if tracker.num_observations < 0:
            raise ValidationError("num_observations must be >= 0")
        return tracker

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"IncrementalFingerprint({self.snapshot()!r})"


def fingerprint_from_counts(
    counts: Iterable[int],
    num_observations: Optional[int] = None,
) -> Fingerprint:
    """Build a fingerprint from per-item occurrence counts.

    Parameters
    ----------
    counts:
        Occurrence count of every item; zeros are ignored (unseen items do
        not contribute to the fingerprint).
    num_observations:
        ``n``; defaults to ``sum(counts)``.

    Returns
    -------
    Fingerprint
    """
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValidationError("occurrence counts must be non-negative")
    frequency_of = Counter(c for c in counts if c > 0)
    total = sum(counts)
    return Fingerprint(
        frequencies=dict(frequency_of),
        num_observations=int(total if num_observations is None else num_observations),
    )


def positive_vote_fingerprint(
    matrix: ResponseMatrix,
    upto: Optional[int] = None,
) -> Fingerprint:
    """The fingerprint the Chao92-style estimators use (Section 3.2).

    Items are "species", occurrences are positive (dirty) votes, and ``n``
    is the total number of positive votes ``n^+`` — negative votes are
    no-ops under the paper's no-false-positive framing.

    Parameters
    ----------
    matrix:
        The worker-response matrix.
    upto:
        Use only the first ``upto`` columns.
    """
    positives = matrix.positive_counts(upto)
    return fingerprint_from_counts(positives.tolist())


def fingerprints_from_count_table(counts_table: np.ndarray) -> "list[Fingerprint]":
    """One fingerprint per row of an ``(m, N)`` per-item count table.

    Sweep implementations that also need the raw counts (nominal or
    majority tallies share the same table) use this to avoid recomputing
    the table per consumer.
    """
    return [fingerprint_from_counts(row.tolist()) for row in counts_table]


def positive_vote_fingerprints(
    matrix: ResponseMatrix,
    checkpoints: Iterable[int],
) -> "list[Fingerprint]":
    """Positive-vote fingerprints at every checkpoint prefix.

    Equivalent to ``[positive_vote_fingerprint(matrix, cp) for cp in
    checkpoints]`` but built from the matrix's incremental per-item
    positive-count deltas, so the vote matrix is scanned once for the whole
    sweep.
    """
    return fingerprints_from_count_table(matrix.positive_counts_at(list(checkpoints)))


def fingerprint_entropy(fingerprint: Fingerprint) -> float:
    """Shannon entropy (nats) of the occurrence-count distribution.

    Not used by the paper's estimators; provided as a diagnostic for the
    ablation benchmarks (highly skewed fingerprints are where Chao92's
    coefficient-of-variation correction matters most).
    """
    counts = np.array(
        [count for count in fingerprint.frequencies.values()], dtype=float
    )
    if counts.size == 0:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())
