"""Fused scan kernels for the switch hot path (Numba-compiled when available).

Two passes of the switch machinery resist full vectorisation:

* **event compaction** — the per-vote margin recurrence over the seen-vote
  stream.  The vectorised formulation (`core/switch.py`) simulates the
  per-row segmented cumsum with a *global* cumulative sum minus a row base,
  which costs five O(V) temporaries and forces the global accumulator to a
  wider dtype than any per-row margin needs.  The fused loop walks the
  stream once, keeps one scalar margin per row run, and never materialises
  an intermediate.
* **the sweep-cell walk** — truncating every event's rediscovery count
  against every checkpoint.  The vectorised formulation materialises ~10
  dense ``(events × checkpoints)`` temporaries; the fused loop visits only
  the *active* (event, checkpoint) pairs (each event starts at its first
  active checkpoint via ``searchsorted``) and accumulates the sufficient
  statistics in place.

Both kernels are plain-Python/NumPy functions, wrapped with
``numba.njit`` when Numba imports.  Without Numba they stay callable as
interpreted Python, so their logic is tested on every machine: the test
suite forces them on and compares them with the vectorised reference.

Every kernel computes pure integer arithmetic identical to the vectorised
formulation, so results are bit-identical by construction.  Only
:class:`~repro.core.state.PermutationBatch` runs them, and only when
Numba imports (``repro.core.state._FUSED_SCANS``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default without numba
    numba = None
    NUMBA_AVAILABLE = False


def compact_events(
    seen_rows: np.ndarray, deltas: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vote switch bookkeeping over the compacted seen-vote stream.

    Parameters
    ----------
    seen_rows:
        ``(V,)`` int64 row of every seen vote, in row-major scan order
        (ascending runs — all of a row's votes are contiguous).
    deltas:
        ``(V,)`` ±1 margin deltas (+1 for a dirty vote, -1 for clean).

    Returns
    -------
    ``(votes_state, is_event, majority_delta)`` — per vote: the consensus
    label after the vote (tie-flip convention), whether the vote switched
    the consensus, and the change of the majority count in {-1, 0, +1}.

    The per-row margin lives in a scalar, so no global accumulator exists
    to overflow — unlike the vectorised global-cumsum formulation, which
    must promote its accumulator dtype once the total vote count
    approaches the int32 range.
    """
    num_votes = deltas.shape[0]
    votes_state = np.empty(num_votes, dtype=np.bool_)
    is_event = np.empty(num_votes, dtype=np.bool_)
    majority_delta = np.empty(num_votes, dtype=np.int8)
    previous_row = np.int64(-1)
    margin = np.int64(0)
    previous_state = False
    for i in range(num_votes):
        row = seen_rows[i]
        if row != previous_row:
            previous_row = row
            margin = np.int64(0)
            previous_state = False  # every item starts clean
        previous_margin = margin
        margin = margin + deltas[i]
        if margin > 0:
            state = True
        elif margin < 0:
            state = False
        else:
            # A tie can only follow a margin of ±1; flip away from the
            # majority the previous margin implied.
            state = previous_margin < 0
        votes_state[i] = state
        majority_delta[i] = np.int8(margin > 0) - np.int8(previous_margin > 0)
        is_event[i] = state != previous_state
        previous_state = state
    return votes_state, is_event, majority_delta


def sweep_cells(
    rows: np.ndarray,
    cols: np.ndarray,
    vote_index: np.ndarray,
    next_col: np.ndarray,
    positive: np.ndarray,
    seen_cum: np.ndarray,
    checkpoints: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Switch sufficient statistics for every checkpoint of one permutation.

    Parameters mirror the event arrays of one permutation's slice of a
    ``_SwitchScan`` (all row-major ordered) plus the scan's ``(N, K)``
    cumulative seen-count table and the ascending resolved checkpoints.

    Returns
    -------
    ``(n_switch, counts, singletons, pair_sums, items)`` where ``n_switch``
    is ``(m,)`` and the rest are ``(3, m)`` int64 arrays indexed by
    direction — 0 = all switches, 1 = positive, 2 = negative — exactly the
    quantities ``_SwitchSweepCells`` exposes per direction key.

    An event only contributes to checkpoints after its column
    (``cols[e] < checkpoint``); since checkpoints ascend, each event walks
    ``checkpoints[searchsorted(…, cols[e], 'right'):]`` and nothing else,
    so the work is proportional to the number of *active* pairs and no
    ``(events × checkpoints)`` temporary is ever materialised.
    """
    num_events = rows.shape[0]
    num_checkpoints = checkpoints.shape[0]
    n_switch = np.zeros(num_checkpoints, dtype=np.int64)
    counts = np.zeros((3, num_checkpoints), dtype=np.int64)
    singletons = np.zeros((3, num_checkpoints), dtype=np.int64)
    pair_sums = np.zeros((3, num_checkpoints), dtype=np.int64)
    items = np.zeros((3, num_checkpoints), dtype=np.int64)
    previous_row = np.int64(-1)
    row_has_positive = False
    row_has_negative = False
    for e in range(num_events):
        row = rows[e]
        if row != previous_row:
            previous_row = row
            row_has_positive = False
            row_has_negative = False
            first_of_row = True
        else:
            first_of_row = False
        if positive[e]:
            direction = 1
            first_of_direction = not row_has_positive
            row_has_positive = True
        else:
            direction = 2
            first_of_direction = not row_has_negative
            row_has_negative = True
        start = np.searchsorted(checkpoints, cols[e], side="right")
        for j in range(start, num_checkpoints):
            last_col = checkpoints[j]
            if next_col[e] < last_col:
                last_col = next_col[e]
            rediscoveries = (
                np.int64(seen_cum[row, last_col - 1]) - vote_index[e] + 1
            )
            n_switch[j] += rediscoveries
            counts[0, j] += 1
            counts[direction, j] += 1
            if rediscoveries == 1:
                singletons[0, j] += 1
                singletons[direction, j] += 1
            pair_sums[0, j] += rediscoveries * (rediscoveries - 1)
            pair_sums[direction, j] += rediscoveries * (rediscoveries - 1)
            if first_of_row:
                items[0, j] += 1
            if first_of_direction:
                items[direction, j] += 1
    return n_switch, counts, singletons, pair_sums, items


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed
    compact_events = numba.njit(cache=True)(compact_events)
    sweep_cells = numba.njit(cache=True)(sweep_cells)
