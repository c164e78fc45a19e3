"""Dataset substrate: records, gold standards and synthetic generators.

The estimators in :mod:`repro.core` only ever see worker votes, but the
experiments need realistic datasets to vote *about*.  This package provides

* :class:`~repro.data.record.Record` / :class:`~repro.data.record.Dataset`
  — the record-level abstraction with gold-standard error labels,
* :class:`~repro.data.pairs.PairDataset` — the pair-level abstraction used
  for entity resolution (records are *pairs* of base records and "dirty"
  means "duplicate"),
* synthetic generators reproducing the three evaluation datasets of the
  paper at matching cardinalities:

  ==========  =========================================  =====================
  generator   paper dataset                              key cardinalities
  ==========  =========================================  =====================
  restaurant  Fodors/Zagat restaurant de-duplication     858 records, 106
                                                         duplicate pairs, 1264
                                                         candidate pairs / 12
                                                         true duplicates
  product     Amazon x Google product matching           2336 x 1363 records,
                                                         13022 candidate pairs
                                                         / 607 true duplicates
  address     Portland, OR registered home addresses     1000 records, 90
                                                         malformed entries
  ==========  =========================================  =====================

* :mod:`~repro.data.corruption` — reusable string/record perturbation
  primitives used by the generators to create realistic duplicates and
  malformed entries.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".record": "Record Dataset",
        ".pairs": "CandidatePair PairDataset",
        ".restaurant": "RestaurantDatasetConfig generate_restaurant_dataset",
        ".product": "ProductDatasetConfig generate_product_dataset",
        ".address": "AddressDatasetConfig generate_address_dataset",
        ".synthetic": "SyntheticPairConfig generate_synthetic_pairs",
        ".corruption": (
            "introduce_typos abbreviate_tokens shuffle_tokens drop_field swap_fields "
            "perturb_numeric"
        ),
    },
)
