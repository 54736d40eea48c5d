"""One command of the benchmarked chain, run in a fresh interpreter.

    python3 perfbench/chain.py <spec.json>

``run.py`` starts one process per command, so every command pays for
cold module caches exactly as a CLI user does.  The commands make the
same public calls as the ``generate``, ``customize`` and ``detect``
subcommands of ``repro.cli`` (single-threaded, ``workers=0``):

* ``generate``: ``read_snapshot_tsv`` per snapshot, then the three steps
  of ``UpdateProcess(generator).run(compute_statistics=True)`` one by one
  (``import_snapshots``, ``update_statistics``, ``publish``), the
  import-stats collection and ``Database.save``;
* ``customize``: ``Database.load``, ``TestDataGenerator.from_database``,
  ``HeterogeneityScorer.from_clusters``, ``customize`` over the band
  [0, 1] and ``save_dataset``;
* ``detect``: ``load_dataset``, ``RecordMatcher.from_records`` with
  Monge-Elkan, ``DetectionPipeline.candidates`` and ``score`` and
  ``evaluate_thresholds``.

Two more commands serve the orchestrator: ``simulate`` writes the
snapshot TSVs of a seed and ``probe`` only measures start-up.

The spec (JSON) names the command, its input and output paths, whether
to trace, and whether to run the oracle checks.  The result (JSON, to
``spec["result"]``) holds the timed wall time, peak resident memory,
sizes, output digests, check errors and, when traced, spans and counts.
Checks, digests and counters all run after the timed span.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from repro.core import TestDataGenerator, customize
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.versioning import UpdateProcess
from repro.datasets.io import load_dataset, save_dataset
from repro.dedup import DetectionPipeline, RecordMatcher, best_f1, evaluate_thresholds
from repro.docstore import Database
from repro.textsim import MongeElkan
from repro.votersim import SimulationConfig, VoterRegisterSimulator, read_snapshot_tsv
from repro.votersim.schema import PERSON_ATTRIBUTES

from spans import Tracer

#: The paper's Section 6.5 setup, as the ``detect`` subcommand defaults.
WINDOW = 20
SNM_PASSES = 5
NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")
DATASET_ATTRIBUTES = tuple(a for a in PERSON_ATTRIBUTES if a != "ncid")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cmd_probe(spec: dict, tracer: Tracer) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__}


def cmd_simulate(spec: dict, tracer: Tracer) -> dict:
    config = SimulationConfig(
        initial_voters=spec["voters"],
        years=spec["years"],
        snapshots_per_year=spec["snapshots_per_year"],
        seed=spec["seed"],
    )
    staging = Path(spec["out"] + ".partial")
    paths = VoterRegisterSimulator(config).run_to_directory(staging)
    os.replace(staging, spec["out"])
    return {"snapshots": len(paths)}


def cmd_generate(spec: dict, tracer: Tracer) -> dict:
    paths = sorted(Path(spec["snapshots"]).glob("*.tsv"))
    store = Path(spec["store"])
    start = time.perf_counter()
    with tracer.span("cmd.generate"):
        with tracer.span("votersim.read_tsv"):
            snapshots = [read_snapshot_tsv(path) for path in paths]
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        # The three steps of UpdateProcess.run, each in its own span.
        with tracer.span("core.import"):
            generator.import_snapshots(snapshots)
        with tracer.span("core.statistics"):
            process.update_statistics()
        with tracer.span("core.publish"):
            generator.publish(note="cli generate")
        with tracer.span("docstore.save"):
            stats_rows = [
                {
                    "snapshot_date": stats.snapshot_date,
                    "rows": stats.rows,
                    "new_records": stats.new_records,
                    "new_clusters": stats.new_clusters,
                    "skipped": stats.skipped,
                }
                for stats in generator.import_stats
            ]
            collection = generator.database.get_collection("import_stats")
            if "snapshot_date_sorted" not in collection.index_names():
                collection.create_index("snapshot_date", "sorted")
            if stats_rows:
                collection.insert_many(stats_rows)
            generator.database.save(store)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    import checks

    store_bytes = sum(path.stat().st_size for path in store.iterdir())
    tracer.count("votersim.rows_read", sum(stats.rows for stats in generator.import_stats))
    tracer.count(
        "core.import.new_records",
        sum(stats.new_records for stats in generator.import_stats),
    )
    tracer.count(
        "core.import.rows_skipped", sum(stats.skipped for stats in generator.import_stats)
    )
    tracer.count("docstore.store_bytes", store_bytes)
    tracer.count("docstore.records", generator.record_count)
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "sizes": {"snapshots": len(paths), "store_bytes": store_bytes},
        "digests": {"store": checks.store_digest(store)},
        "errors": [],
    }


def cmd_customize(spec: dict, tracer: Tracer) -> dict:
    store = Path(spec["store"])
    out = Path(spec["dataset"])
    start = time.perf_counter()
    with tracer.span("cmd.customize"):
        with tracer.span("docstore.load"):
            database = Database.load(store)
        with tracer.span("core.from_database"):
            generator = TestDataGenerator.from_database(database)
        with tracer.span("core.scorer"):
            scorer = HeterogeneityScorer.from_clusters(
                generator.clusters(), ("person",), DATASET_ATTRIBUTES
            )
        with tracer.span("core.customize"):
            result = customize(
                generator,
                0.0,
                1.0,
                target_clusters=spec["clusters"],
                scorer=scorer,
                name=out.stem,
                seed=0,
            )
        with tracer.span("datasets.save"):
            written = save_dataset(
                out, result.records, result.cluster_of, DATASET_ATTRIBUTES
            )
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    import checks

    tracer.count("core.customize.records", result.record_count)
    tracer.count("core.customize.gold_pairs", len(result.gold_pairs))
    errors = []
    if spec["check"]:
        errors = checks.check_cluster_maps(
            list(generator.clusters()), generator.current_version, spec["seed"]
        )
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "sizes": {
            "rows": sum(doc["rows"] for doc in database["import_stats"].all()),
            "store_records": generator.record_count,
            "store_clusters": generator.cluster_count,
            "dataset_records": result.record_count,
            "dataset_clusters": result.cluster_count,
            "gold_pairs": len(result.gold_pairs),
        },
        "digests": {"dataset": checks.dataset_digest(written)},
        "errors": errors,
    }


def cmd_detect(spec: dict, tracer: Tracer) -> dict:
    start = time.perf_counter()
    with tracer.span("cmd.detect"):
        with tracer.span("datasets.load"):
            dataset = load_dataset(Path(spec["dataset"]))
            records = dataset.records
            attributes = list(dataset.attributes)
            gold = dataset.gold_pairs
        names = tuple(a for a in NAME_ATTRIBUTES if a in attributes)
        with tracer.span("dedup.matcher"):
            matcher = RecordMatcher.from_records(
                records, attributes, MongeElkan(), names
            )
        pipeline = DetectionPipeline(
            window=WINDOW,
            passes=SNM_PASSES,
            candidate_passes=tuple(spec["passes"]),
        )
        with tracer.span("dedup.candidates"):
            candidate_keys, candidate_stats = pipeline.candidates(records, attributes)
        with tracer.span("dedup.score"):
            similarities = pipeline.score(records, candidate_keys, matcher)
        with tracer.span("dedup.evaluate"):
            best = best_f1(evaluate_thresholds(similarities, gold, pipeline.thresholds))
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    import checks

    record_count = len(records)
    gold_kept = sum(
        1 for left, right in gold if left * record_count + right in candidate_keys
    )

    tracer.count("dedup.candidates.emitted", candidate_stats.pairs_emitted)
    tracer.count("dedup.candidates.unique", candidate_stats.unique_pairs)
    tracer.count("dedup.candidates.dropped", candidate_stats.pairs_dropped)
    tracer.count("dedup.candidates.gold_kept", gold_kept)
    tracer.count("dedup.score.pairs", len(similarities))
    if tracer.enabled:
        comparisons, distinct = value_comparisons(records, candidate_keys, matcher)
        tracer.count("textsim.value_comparisons", comparisons)
        tracer.count("textsim.distinct_value_pairs", distinct)
    quality = {
        "blocking_recall": gold_kept / len(gold) if gold else 1.0,
        "best_f1": best.f1,
        "best_threshold": best.threshold,
    }
    errors = []
    if spec["check"]:
        errors += checks.check_similarities(records, similarities, matcher, spec["seed"])
        if tuple(spec["passes"]) == ("snm",):
            errors += checks.check_snm_candidates(
                records, attributes, candidate_keys, WINDOW, SNM_PASSES
            )
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "quality": quality,
        "sizes": {"candidates": len(candidate_keys), "gold_kept": gold_kept},
        "digests": {
            "similarities": checks.similarity_digest(similarities),
            "quality": f"blocking_recall={quality['blocking_recall']!r} "
            f"best_f1={quality['best_f1']!r}",
        },
        "errors": errors,
    }


def value_comparisons(records, candidate_keys, matcher) -> tuple:
    """(value comparisons, distinct unequal value pairs) of one scoring run.

    Counted from outside the matcher: per candidate pair, every name slot
    against every name slot plus one comparison per other attribute of
    non-zero weight.  Equal values short-circuit to 1.0, so the distinct
    count covers only unequal unordered value pairs: the fewest kernel
    calls a scorer over distinct value pairs could make.
    """
    import numpy as np

    record_count = len(records)
    names = matcher.name_attributes
    others = [a for a, w in matcher.weights.items() if a not in names and w != 0.0]
    codes: dict = {}
    columns = {
        attribute: np.fromiter(
            (
                codes.setdefault((record.get(attribute) or "").strip(), len(codes))
                for record in records
            ),
            dtype=np.int64,
            count=record_count,
        )
        for attribute in (*names, *others)
    }
    keys = np.fromiter(candidate_keys, dtype=np.int64, count=len(candidate_keys))
    left, right = np.divmod(keys, record_count)
    slots = [(a, b) for a in names for b in names] + [(a, a) for a in others]
    packed = []
    for left_attribute, right_attribute in slots:
        left_codes = columns[left_attribute][left]
        right_codes = columns[right_attribute][right]
        differ = left_codes != right_codes
        low = np.minimum(left_codes, right_codes)[differ]
        high = np.maximum(left_codes, right_codes)[differ]
        packed.append(np.unique(low * len(codes) + high))
    distinct = len(np.unique(np.concatenate(packed))) if packed else 0
    return len(keys) * len(slots), distinct


COMMANDS = {
    "probe": cmd_probe,
    "simulate": cmd_simulate,
    "generate": cmd_generate,
    "customize": cmd_customize,
    "detect": cmd_detect,
}


def main(argv: list) -> int:
    ready = time.monotonic()
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    import repro

    source = Path(spec["source"]).resolve()
    if source not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    tracer = Tracer(spec.get("trace", False))
    result = COMMANDS[spec["command"]](spec, tracer)
    result.update(ready=ready, spans=tracer.spans, counts=tracer.counts)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
