"""Synthetic Portland home-address dataset with malformed entries.

The paper's third real-world dataset contains 1000 registered home
addresses in Portland, OR in the format::

    <number street unit, city, state, zip>

with the unit optional.  90 of the 1000 entries are malformed; the task is
to flag the malformed records (a record-level, non-pairwise error type).
Because the candidate count is small, the paper applies no prioritisation
for this dataset.

:func:`generate_address_dataset` synthesises addresses in the same format
and injects the same classes of errors the paper's motivating example
(Figure 1) describes:

* missing values (blank street, city, or zip),
* invalid city names and zip codes (misspellings / corrupted digits),
* functional-dependency violations (zip does not agree with city/state),
* non-home or fake addresses in a superficially valid format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.exceptions import ValidationError
from repro.common.rng import RandomState, derive_rng, ensure_rng
from repro.common.validation import check_int
from repro.data import vocab
from repro.data.corruption import corrupt_zip, misspell_city
from repro.data.record import Dataset, Record

#: The error classes injected by the generator, mirroring Figure 1 of the paper.
ADDRESS_ERROR_KINDS = (
    "missing_value",
    "invalid_city",
    "invalid_zip",
    "fd_violation",
    "fake_address",
)


@dataclass(frozen=True)
class AddressDatasetConfig:
    """Configuration for :func:`generate_address_dataset`.

    Defaults reproduce the paper's cardinalities: 1000 addresses with 90
    malformed entries spread across the five error classes.

    Parameters
    ----------
    num_records:
        Total number of address records.
    num_errors:
        Number of malformed records.
    city / state / zip_prefix:
        The home city for well-formed records (Portland, OR, 972xx).
    unit_probability:
        Probability that a well-formed address includes an apartment unit.
    seed:
        Default seed used when the caller does not pass one explicitly.
    """

    num_records: int = 1000
    num_errors: int = 90
    city: str = "portland"
    state: str = "or"
    zip_prefix: str = "972"
    unit_probability: float = 0.3
    seed: Optional[int] = 13

    def __post_init__(self) -> None:
        check_int(self.num_records, "num_records", minimum=1)
        check_int(self.num_errors, "num_errors", minimum=0)
        if self.num_errors > self.num_records:
            raise ValidationError(
                f"num_errors ({self.num_errors}) cannot exceed num_records ({self.num_records})"
            )


def _well_formed_fields(rng, config: AddressDatasetConfig) -> Dict[str, object]:
    number = int(rng.integers(1, 19999))
    prefix = vocab.STREET_PREFIXES[int(rng.integers(0, len(vocab.STREET_PREFIXES)))]
    street = vocab.STREET_NAMES[int(rng.integers(0, len(vocab.STREET_NAMES)))]
    street_type = vocab.STREET_TYPES[int(rng.integers(0, len(vocab.STREET_TYPES)))]
    street_full = " ".join(part for part in (prefix, street, street_type) if part)
    unit = ""
    if rng.random() < config.unit_probability:
        unit = f"apt {int(rng.integers(1, 99))}"
    zip_code = config.zip_prefix + f"{int(rng.integers(0, 100)):02d}"
    return {
        "number": str(number),
        "street": street_full,
        "unit": unit,
        "city": config.city,
        "state": config.state,
        "zip": zip_code,
    }


def _corrupt_fields(fields: Dict[str, object], kind: str, rng, config: AddressDatasetConfig) -> Dict[str, object]:
    """Apply one error class to a copy of ``fields``."""
    out = dict(fields)
    if kind == "missing_value":
        victim = ("street", "city", "zip")[int(rng.integers(0, 3))]
        out[victim] = ""
    elif kind == "invalid_city":
        out["city"] = misspell_city(str(out["city"]), rng)
        if rng.random() < 0.5:
            out["state"] = misspell_city(str(out["state"]), rng)
    elif kind == "invalid_zip":
        out["zip"] = corrupt_zip(str(out["zip"]), rng)
    elif kind == "fd_violation":
        # zip from a different city: violates zip -> (city, state).
        other_city = vocab.US_CITIES[int(rng.integers(0, len(vocab.US_CITIES)))]
        while other_city[0] == config.city:
            other_city = vocab.US_CITIES[int(rng.integers(0, len(vocab.US_CITIES)))]
        out["zip"] = other_city[2] + f"{int(rng.integers(0, 100)):02d}"
    elif kind == "fake_address":
        # Superficially valid but not a real home address (e.g. a PO box
        # rendered as a street, or an out-of-range house number).
        if rng.random() < 0.5:
            out["number"] = str(int(rng.integers(100000, 999999)))
        else:
            out["street"] = f"po box {int(rng.integers(1, 9999))}"
            out["unit"] = ""
    else:  # pragma: no cover - guarded by ADDRESS_ERROR_KINDS
        raise ValueError(f"unknown error kind {kind!r}")
    return out


def _render(fields: Dict[str, object]) -> str:
    street_part = " ".join(
        str(part) for part in (fields["number"], fields["street"], fields["unit"]) if str(part)
    )
    return f"{street_part}, {fields['city']}, {fields['state']}, {fields['zip']}"


def generate_address_dataset(
    config: Optional[AddressDatasetConfig] = None,
    seed: RandomState = None,
) -> Dataset:
    """Generate the synthetic address dataset.

    Returns
    -------
    repro.data.record.Dataset
        Records have the individual address components plus a rendered
        ``"text"`` field; ``dirty_ids`` marks the malformed records and each
        malformed record carries an ``"error_kind"`` field naming its error
        class.
    """
    config = config or AddressDatasetConfig()
    rng = ensure_rng(seed if seed is not None else derive_rng(config.seed, 1))

    records: List[Record] = []
    dirty_ids: List[int] = []

    error_positions = set(
        int(i) for i in rng.choice(config.num_records, size=config.num_errors, replace=False)
    )

    for i in range(config.num_records):
        fields = _well_formed_fields(rng, config)
        error_kind = ""
        if i in error_positions:
            error_kind = ADDRESS_ERROR_KINDS[int(rng.integers(0, len(ADDRESS_ERROR_KINDS)))]
            fields = _corrupt_fields(fields, error_kind, rng, config)
            dirty_ids.append(i)
        fields["text"] = _render(fields)
        fields["error_kind"] = error_kind
        records.append(
            Record(record_id=i, fields=fields, source="address", entity_id=None)
        )

    return Dataset(
        records=records,
        dirty_ids=frozenset(dirty_ids),
        name="address",
        metadata={
            "generator": "address",
            "num_records": config.num_records,
            "num_errors": config.num_errors,
            "paper_reference": {"records": 1000, "errors": 90},
        },
    )
