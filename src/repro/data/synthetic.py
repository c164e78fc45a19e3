"""Abstract synthetic pair populations for the simulation study.

The paper's simulation study (Section 6.2) does not use record text at all:
it works with "1000 candidate pairs, among which 100 pairs are true
duplicates" and directly simulates worker votes with configurable precision
and coverage.  :func:`generate_synthetic_pairs` builds that abstract
population as a :class:`~repro.data.record.Dataset` whose records carry no
meaningful fields — only gold labels — so the full crowd/estimator pipeline
can run on it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.exceptions import ValidationError
from repro.common.rng import RandomState, derive_rng, ensure_rng
from repro.common.validation import check_int
from repro.data.record import Dataset, Record


@dataclass(frozen=True)
class SyntheticPairConfig:
    """Configuration for :func:`generate_synthetic_pairs`.

    Defaults match the paper's simulation population: 1000 candidate items
    of which 100 are true errors.

    Parameters
    ----------
    num_items:
        Total number of candidate items (pairs).
    num_errors:
        Number of items that are truly erroneous.
    shuffle:
        When ``True`` the dirty items are scattered uniformly at random;
        when ``False`` the first ``num_errors`` items are the dirty ones
        (useful for deterministic unit tests).
    seed:
        Default seed used when the caller does not pass one explicitly.
    """

    num_items: int = 1000
    num_errors: int = 100
    shuffle: bool = True
    seed: Optional[int] = 17

    def __post_init__(self) -> None:
        check_int(self.num_items, "num_items", minimum=1)
        check_int(self.num_errors, "num_errors", minimum=0)
        if self.num_errors > self.num_items:
            raise ValidationError(
                f"num_errors ({self.num_errors}) cannot exceed num_items ({self.num_items})"
            )


def generate_synthetic_pairs(
    config: Optional[SyntheticPairConfig] = None,
    seed: RandomState = None,
) -> Dataset:
    """Generate an abstract candidate-item population with gold labels.

    Returns
    -------
    repro.data.record.Dataset
        ``num_items`` records; ``dirty_ids`` holds the ``num_errors`` truly
        erroneous items.
    """
    config = config or SyntheticPairConfig()
    rng = ensure_rng(seed if seed is not None else derive_rng(config.seed, 1))

    if config.shuffle:
        dirty = rng.choice(config.num_items, size=config.num_errors, replace=False)
        dirty_ids = frozenset(int(i) for i in dirty)
    else:
        dirty_ids = frozenset(range(config.num_errors))

    records = [
        Record(record_id=i, fields={"index": i}, source="synthetic", entity_id=None)
        for i in range(config.num_items)
    ]
    return Dataset(
        records=records,
        dirty_ids=dirty_ids,
        name="synthetic-pairs",
        metadata={
            "generator": "synthetic",
            "num_items": config.num_items,
            "num_errors": config.num_errors,
        },
    )
