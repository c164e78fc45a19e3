"""Entity-resolution substrate: similarity, blocking and candidate pairs.

The paper's entity-resolution experiments follow the two-stage CrowdER
design: an algorithmic similarity measure partitions the cross product of
records into *likely matches*, *likely non-matches* and an ambiguous middle
band of *candidate pairs* that are sent to the crowd.  This package
implements that machinery:

* :mod:`~repro.er.similarity` — normalised edit distance, Jaccard and
  token-based measures on records,
* :mod:`~repro.er.blocking` — cheap blocking to avoid scoring the full
  ``N x N`` cross product on large catalogues,
* :mod:`~repro.er.pairing` — building :class:`~repro.data.pairs.PairDataset`
  objects with gold labels from shared entity ids,
* :mod:`~repro.er.heuristic` — the confidence function ``H(r)`` and its
  (alpha, beta) band used for prioritisation (Section 5 of the paper),
* :mod:`~repro.er.crowder` — the end-to-end two-stage pipeline that the
  real-world experiments run.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".similarity": (
            "normalized_edit_similarity jaccard_similarity token_overlap_similarity "
            "record_similarity"
        ),
        ".blocking": "block_by_tokens block_by_prefix candidate_keys_from_blocks",
        ".pairing": "build_pair_dataset score_pairs",
        ".heuristic": "HeuristicBand SimilarityHeuristic partition_by_heuristic",
        ".crowder": "CrowdERPipeline CrowdERResult",
    },
)
