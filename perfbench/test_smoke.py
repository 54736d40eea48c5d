"""Smoke test of the end-to-end benchmark on a tiny seed.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at ``--size smoke`` with and without tracing and
checks that each metric named in ``BENCHMARK.json`` prints with its unit,
that the oracle checks trip on deliberately wrong outputs, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from repro.core import TestDataGenerator  # noqa: E402
from repro.core.versioning import UpdateProcess  # noqa: E402
from repro.dedup import DetectionPipeline, RecordMatcher  # noqa: E402
from repro.textsim import MongeElkan  # noqa: E402
from repro.votersim import SimulationConfig, VoterRegisterSimulator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(row) for row in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    completed = bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _people():
    rows = [
        ("ANNA", "MARIE", "SMITH", "12 OAK ST", "27601"),
        ("ANNA", "M", "SMITH", "12 OAK STREET", "27601"),
        ("ANA", "MARIE", "SMYTH", "9 ELM RD", "27513"),
        ("JOHN", "PAUL", "DOE", "4 PINE AVE", "28202"),
        ("JON", "PAUL", "DOE", "4 PINE AVE", "28202"),
        ("PAUL", "JOHN", "DOE", "77 LAKE DR", "28203"),
        ("MARY", "ANN", "JONES", "3 HILL CT", "27104"),
        ("MARY", "", "JONES-LEE", "3 HILL CT", "27104"),
    ]
    keys = ("first_name", "midl_name", "last_name", "res_street_address", "zip_code")
    return [dict(zip(keys, row)) for row in rows], list(keys)


def test_wrong_similarity_trips_the_oracle():
    records, attributes = _people()
    matcher = RecordMatcher.from_records(
        records, attributes, MongeElkan(), ("first_name", "midl_name", "last_name")
    )
    pipeline = DetectionPipeline(window=20, passes=2)
    keys, _stats = pipeline.candidates(records, attributes)
    similarities = pipeline.score(records, keys, matcher)
    assert checks.check_similarities(records, similarities, matcher, seed=0) == []
    wrong = dict(similarities)
    pair = min(wrong)
    wrong[pair] = wrong[pair] * (1 + 1e-12) + 1e-12
    assert checks.check_similarities(records, wrong, matcher, seed=0)


def test_missing_candidate_trips_the_oracle():
    records, attributes = _people()
    keys, _stats = DetectionPipeline(window=3, passes=2).candidates(records, attributes)
    assert checks.check_snm_candidates(records, attributes, keys, 3, 2) == []
    assert checks.check_snm_candidates(records, attributes, set(sorted(keys)[1:]), 3, 2)


def test_wrong_stored_score_trips_the_oracle():
    config = SimulationConfig(initial_voters=40, years=1, seed=3)
    generator = TestDataGenerator()
    UpdateProcess(generator).run(VoterRegisterSimulator(config).run())
    clusters = list(generator.clusters())
    version = generator.current_version
    assert checks.check_cluster_maps(clusters, version, seed=0) == []
    for cluster in clusters:
        for record in cluster["records"][1:]:
            row = record["heterogeneity"][str(version)]
            row["0"] = row["0"] + 0.5
    assert checks.check_cluster_maps(clusters, version, seed=0)


def test_inputs_are_keyed_on_the_source(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "BENCH", tmp_path / "perfbench")
    before = run.source_digest()
    assert run.source_digest() == before
    (package / "__init__.py").write_text("VERSION = 2\n", encoding="utf-8")
    assert run.source_digest() != before


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        completed = bench(
            "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
