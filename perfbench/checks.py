"""Correctness checks the benchmark runs outside every timed span.

* Oracle checks compare a seeded sample of the program's outputs with the
  in-tree naive references: stored plausibility and heterogeneity maps
  against ``repro.core._reference``, candidate similarities against
  ``repro.dedup._reference.record_similarity_reference`` and the SNM
  candidate set against ``multipass_pairs_reference``.
* Digests (store files, dataset CSVs, similarity map) let the orchestrator
  assert that repeated runs of one seed produce identical outputs.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.core import _reference as core_reference
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.profile import NC_VOTER_PROFILE
from repro.core.versioning import similarity_at_version
from repro.dedup import RecordMatcher, pack_pairs, pick_blocking_keys
from repro.dedup import _reference as dedup_reference

Pair = Tuple[int, int]

#: Clusters (with at least two records) whose stored maps are re-scored.
MAP_SAMPLE = 8
#: Candidate pairs whose similarity is recomputed by the oracle.
SIMILARITY_SAMPLE = 300


def store_digest(directory: Path) -> str:
    """SHA-256 over every file of a saved store, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def dataset_digest(paths: Sequence[Path]) -> str:
    """SHA-256 over a dataset CSV and its gold file."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def similarity_digest(similarities: Dict[Pair, float]) -> str:
    """SHA-256 over the similarity map, pairs in order, floats exact."""
    digest = hashlib.sha256()
    for (left, right), value in sorted(similarities.items()):
        digest.update(f"{left},{right},{value.hex()};".encode("ascii"))
    return digest.hexdigest()


def _reference_weights(clusters: List[dict]) -> Dict[str, Dict[str, float]]:
    """The entropy weights ``UpdateProcess.update_statistics`` scores with."""
    profile = NC_VOTER_PROFILE
    primary = tuple(
        a for a in profile.primary_attributes() if a != profile.id_attribute
    )
    return {
        "heterogeneity": HeterogeneityScorer.from_clusters(
            clusters, profile.group_names
        ).weights,
        "heterogeneity_person": HeterogeneityScorer.from_clusters(
            clusters, (profile.primary_group,), primary
        ).weights,
    }


def check_cluster_maps(clusters: List[dict], version: int, seed: int) -> List[str]:
    """Stored score maps of a seeded cluster sample equal the naive oracle."""
    errors: List[str] = []
    multi = sorted(
        (c for c in clusters if len(c["records"]) > 1), key=lambda c: c["ncid"]
    )
    sample = random.Random(seed).sample(multi, min(MAP_SAMPLE, len(multi)))
    if not sample:
        return ["no multi-record cluster to check"]
    profile = NC_VOTER_PROFILE
    weights = _reference_weights(clusters)
    expected = {
        "plausibility": core_reference.score_plausibility_reference(sample),
        "heterogeneity": core_reference.score_heterogeneity_reference(
            weights["heterogeneity"], sample, profile.group_names
        ),
        "heterogeneity_person": core_reference.score_heterogeneity_reference(
            weights["heterogeneity_person"], sample, (profile.primary_group,)
        ),
    }
    for kind, by_ncid in expected.items():
        for cluster in sample:
            records = cluster["records"]
            for j, row in by_ncid[cluster["ncid"]].items():
                stored = similarity_at_version(records[j], kind, version)
                want = {i: round(score, 6) for i, score in row.items()}
                if stored != want:
                    errors.append(
                        f"{kind} map of {cluster['ncid']}[{j}] differs from "
                        f"the reference: {stored} != {want}"
                    )
    return errors


def check_similarities(
    records: Sequence[Dict[str, str]],
    similarities: Dict[Pair, float],
    matcher: RecordMatcher,
    seed: int,
) -> List[str]:
    """A seeded sample of candidate similarities equals the per-pair oracle."""
    pairs = sorted(similarities)
    sample = random.Random(seed).sample(pairs, min(SIMILARITY_SAMPLE, len(pairs)))
    errors: List[str] = []
    for left, right in sample:
        want = dedup_reference.record_similarity_reference(
            matcher.measure,
            matcher.weights,
            records[left],
            records[right],
            matcher.name_attributes,
        )
        got = similarities[(left, right)]
        if got != want:
            errors.append(
                f"similarity of ({left}, {right}) is {got!r}, "
                f"the reference gives {want!r}"
            )
    return errors


def check_snm_candidates(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    candidate_keys: Set[int],
    window: int,
    passes: int,
) -> List[str]:
    """The packed SNM candidate set equals the eager tuple-set oracle."""
    keys = pick_blocking_keys(records, attributes, passes)
    expected = pack_pairs(
        dedup_reference.multipass_pairs_reference(records, keys, window),
        len(records),
    )
    if candidate_keys == expected:
        return []
    return [
        f"SNM candidates differ from the reference: "
        f"{len(candidate_keys - expected)} extra, "
        f"{len(expected - candidate_keys)} missing"
    ]
