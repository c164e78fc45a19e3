"""Synthetic Amazon/Google product-matching dataset.

The paper's second real-world dataset matches 2336 Amazon product records
against 1363 Google product records::

    Product(retailer, id, name1, name2, vendor, price)

Each product has at most one match on the other side.  After the similarity
prioritisation (normalised edit-distance similarity in (0.4, 0.7)) the
candidate set contains 13022 pairs of which 607 are true matches.  Matching
is harder than the restaurant task, so workers make more mistakes — in
particular more false negatives.

:func:`generate_product_dataset` synthesises a catalogue with the same
two-source structure and matching cardinalities.  Matched products share a
perturbed name (edition renamings, vendor prefixes, typos) and a perturbed
price so that matched pairs land in the ambiguous similarity band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.exceptions import ValidationError
from repro.common.rng import RandomState, derive_rng, ensure_rng
from repro.common.validation import check_int, check_probability
from repro.data import vocab
from repro.data.corruption import abbreviate_tokens, introduce_typos, perturb_numeric, shuffle_tokens
from repro.data.record import Dataset, Record


@dataclass(frozen=True)
class ProductDatasetConfig:
    """Configuration for :func:`generate_product_dataset`.

    Defaults reproduce the paper's cardinalities: 2336 Amazon records, 1363
    Google records, and 607 matched products (each matched at most once).

    Parameters
    ----------
    num_amazon / num_google:
        Number of records contributed by each retailer.
    num_matches:
        Number of real-world products present in both catalogues.
    typo_rate:
        Character-level typo rate applied to the Google copy of a matched
        product (matching is harder than for restaurants, so the default is
        higher than the restaurant generator's).
    abbreviation_probability / token_shuffle_probability:
        Name perturbation intensities for matched copies.
    price_jitter:
        Relative price difference between the two copies of a match.
    seed:
        Default seed used when the caller does not pass one explicitly.
    """

    num_amazon: int = 2336
    num_google: int = 1363
    num_matches: int = 607
    typo_rate: float = 0.06
    abbreviation_probability: float = 0.5
    token_shuffle_probability: float = 0.6
    price_jitter: float = 0.15
    seed: Optional[int] = 11

    def __post_init__(self) -> None:
        check_int(self.num_amazon, "num_amazon", minimum=1)
        check_int(self.num_google, "num_google", minimum=1)
        check_int(self.num_matches, "num_matches", minimum=0)
        check_probability(self.typo_rate, "typo_rate")
        check_probability(self.abbreviation_probability, "abbreviation_probability")
        check_probability(self.token_shuffle_probability, "token_shuffle_probability")
        check_probability(self.price_jitter, "price_jitter")
        if self.num_matches > min(self.num_amazon, self.num_google):
            raise ValidationError(
                "num_matches cannot exceed the smaller catalogue size "
                f"({self.num_matches} > {min(self.num_amazon, self.num_google)})"
            )


def _make_product_name(rng) -> str:
    brand = vocab.PRODUCT_BRANDS[int(rng.integers(0, len(vocab.PRODUCT_BRANDS)))]
    noun = vocab.PRODUCT_NOUNS[int(rng.integers(0, len(vocab.PRODUCT_NOUNS)))]
    edition = vocab.PRODUCT_EDITIONS[int(rng.integers(0, len(vocab.PRODUCT_EDITIONS)))]
    version = int(rng.integers(1, 12))
    return f"{brand} {noun} {edition} {version}"


def _google_copy_name(name: str, rng, config: ProductDatasetConfig) -> str:
    """Perturb an Amazon product name into its Google-catalogue form."""
    if rng.random() < config.token_shuffle_probability:
        name = shuffle_tokens(name, rng)
    name = abbreviate_tokens(name, rng, probability=config.abbreviation_probability)
    name = introduce_typos(name, rng, rate=config.typo_rate, max_typos=3)
    return name


def generate_product_dataset(
    config: Optional[ProductDatasetConfig] = None,
    seed: RandomState = None,
) -> Dataset:
    """Generate the synthetic Amazon/Google product dataset.

    Returns
    -------
    repro.data.record.Dataset
        Records carry ``source`` set to ``"amazon"`` or ``"google"`` and
        matched products share an ``entity_id``.
    """
    config = config or ProductDatasetConfig()
    rng = ensure_rng(seed if seed is not None else derive_rng(config.seed, 1))

    records: List[Record] = []
    next_entity = 0

    def _vendor() -> str:
        return vocab.PRODUCT_VENDORS[int(rng.integers(0, len(vocab.PRODUCT_VENDORS)))]

    # Matched products first: one Amazon copy and one Google copy per entity.
    matched_names: List[str] = []
    for _ in range(config.num_matches):
        name = _make_product_name(rng)
        matched_names.append(name)
        price = float(rng.uniform(9.99, 499.99))
        entity_id = next_entity
        next_entity += 1
        records.append(
            Record(
                record_id=len(records),
                fields={
                    "retailer": "amazon",
                    "name1": name,
                    "name2": "",
                    "vendor": _vendor(),
                    "price": round(price, 2),
                },
                source="amazon",
                entity_id=entity_id,
            )
        )
        records.append(
            Record(
                record_id=len(records),
                fields={
                    "retailer": "google",
                    "name1": _google_copy_name(name, rng, config),
                    "name2": "",
                    "vendor": _vendor(),
                    "price": round(perturb_numeric(price, rng, relative=config.price_jitter), 2),
                },
                source="google",
                entity_id=entity_id,
            )
        )

    # Unmatched products fill out the two catalogues.
    for source, total in (("amazon", config.num_amazon), ("google", config.num_google)):
        already = sum(1 for r in records if r.source == source)
        for _ in range(total - already):
            records.append(
                Record(
                    record_id=len(records),
                    fields={
                        "retailer": source,
                        "name1": _make_product_name(rng),
                        "name2": "",
                        "vendor": _vendor(),
                        "price": round(float(rng.uniform(9.99, 499.99)), 2),
                    },
                    source=source,
                    entity_id=next_entity,
                )
            )
            next_entity += 1

    return Dataset(
        records=records,
        dirty_ids=frozenset(),
        name="product",
        metadata={
            "generator": "product",
            "num_amazon": config.num_amazon,
            "num_google": config.num_google,
            "num_matches": config.num_matches,
            "paper_reference": {
                "amazon_records": 2336,
                "google_records": 1363,
                "candidate_pairs": 13022,
                "candidate_duplicates": 607,
            },
        },
    )
