"""Seeded end-to-end benchmark of the paper's pipeline: generate -> customize -> detect.

    python3 perfbench/run.py --workload build --seed 20210323 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 20210323 --seconds 25 --trace 0

Run from the root of a checkout; the program under test is ``src/repro``
of that checkout, never an installed copy.  A run:

1. simulates the seed's snapshot TSVs (2,000 voters, 8 years, 2 snapshots
   a year) outside all timing; they are kept under
   ``.perfbench/inputs/<source digest>/`` for later runs of the seed, where
   the digest covers every source file of ``src/repro`` and ``perfbench``,
   so a changed program never reads inputs an earlier version wrote;
2. starts the interpreter several times to measure set-up (``setup_s``:
   interpreter start plus the ``repro`` imports, up to the first timed call);
3. for the ``eval_*`` workloads, builds the store the chain reads with the
   code under test (``generate``, untimed), kept next to the snapshots;
4. repeats the workload's chain for ``--seconds`` seconds (at least twice),
   one fresh interpreter per CLI command, so no module cache survives from
   one command to the next (see ``chain.py``);
5. checks the outputs: oracle checks on a seeded sample in the first
   iteration, and output digests (store, dataset CSVs, similarity map,
   quality figures) equal across the run's commands, each of which ran in
   its own interpreter;
6. with ``--trace 1``, runs one more traced iteration (and a traced store
   build) and reports per-layer self times and counts.

Timings are scaled to a reference CPU speed.  On a shared host a vCPU's
speed drifts by up to 1.8x over minutes, which no median over one run
absorbs; so the run pins itself and its commands to one CPU, times a fixed
pure-Python loop right before and after every command, and multiplies the
command's times by ``REFERENCE_S`` over the loop's mean time.  A change to
the program does not touch the loop, so its effect shows in full; the raw
times are kept in the report (``wall_s_raw``, ``setup_s_raw``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; timings are medians
over the run's iterations.  The lines before it give the provenance, each
timing's median, maximum and sample count, and the path of the per-layer
report written under ``.perfbench/reports/``.

Workloads (``WORKLOADS``): ``build`` is the write path (generate with
statistics, then a small customise and detect); ``eval_snm`` customises
the largest clusters and detects with multi-pass Sorted Neighborhood, so
pair scoring dominates; ``eval_lsh`` customises every cluster and detects
with the MinHash-LSH pass, so store load, customise and candidate
generation share the time.  ``PER_LAYER`` records which end-to-end metric
each layer metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import self_times, uncovered_time  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Simulated register and customise sizes.  ``smoke`` is for the smoke test.
SIZES = {
    "paper": {
        "voters": 2000,
        "years": 8,
        "snapshots_per_year": 2,
        "clusters": {"build": 100, "eval_snm": 400, "eval_lsh": 1_000_000},
    },
    "smoke": {
        "voters": 150,
        "years": 2,
        "snapshots_per_year": 2,
        "clusters": {"build": 20, "eval_snm": 40, "eval_lsh": 1_000_000},
    },
}

#: Workload -> (candidate passes, whether the chain reads a prebuilt store).
#: Why each exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "build": (("snm",), False),
    "eval_snm": (("snm",), True),
    "eval_lsh": (("lsh",), True),
}

#: (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("customize_s", "s", "lower"),
    ("detect_s", "s", "lower"),
    ("blocking_recall", "ratio", "higher"),
    ("best_f1", "ratio", "higher"),
]

_BUILD = "wall_s on build"
_CUSTOMIZE = "customize_s on eval_snm and eval_lsh"
_DETECT = "detect_s on eval_snm and eval_lsh"
_DISTINCT = "detect_s on eval_snm (bounds what distinct-pair scoring can save)"

#: (name, unit, better, the end-to-end metric it should move) per layer metric.
PER_LAYER = [
    ("votersim.read_tsv_s", "s", "lower", _BUILD),
    ("votersim.rows_read", "count", "higher", _BUILD + " (input size)"),
    ("core.import_s", "s", "lower", "wall_s and peak_rss_mb on build"),
    ("core.import.new_records", "count", "higher", _BUILD + " (MD5 dedup: rows kept)"),
    ("core.import.rows_skipped", "count", "lower", _BUILD + " (MD5 dedup: rows dropped)"),
    ("core.statistics_s", "s", "lower", _BUILD),
    ("core.publish_s", "s", "lower", "wall_s and peak_rss_mb on build"),
    ("core.from_database_s", "s", "lower", _CUSTOMIZE),
    ("core.scorer_s", "s", "lower", _CUSTOMIZE),
    ("core.customize_s", "s", "lower", _CUSTOMIZE),
    ("core.customize.records", "count", "higher", _DETECT + " (input size)"),
    ("core.customize.gold_pairs", "count", "higher", "blocking_recall and best_f1 (base)"),
    ("docstore.save_s", "s", "lower", _BUILD),
    ("docstore.load_s", "s", "lower", _CUSTOMIZE + ", most on eval_lsh"),
    ("docstore.store_bytes", "B", "lower", "customize_s (space of the write path)"),
    ("docstore.bytes_per_record", "B/record", "lower", "customize_s (space per record)"),
    ("datasets.save_s", "s", "lower", _CUSTOMIZE),
    ("datasets.load_s", "s", "lower", _DETECT),
    ("dedup.matcher_s", "s", "lower", _DETECT),
    ("dedup.candidates_s", "s", "lower", "detect_s on eval_lsh"),
    ("dedup.candidates.emitted", "count", "lower", _DETECT + " (pairs generated)"),
    ("dedup.candidates.unique", "count", "lower", _DETECT + " (pairs scored)"),
    ("dedup.candidates.dropped", "count", "lower", "blocking_recall"),
    ("dedup.candidates.gold_kept", "count", "higher", "blocking_recall"),
    ("dedup.score_s", "s", "lower", "detect_s on eval_snm"),
    ("dedup.score.pairs_per_s", "1/s", "higher", "detect_s on eval_snm"),
    ("dedup.evaluate_s", "s", "lower", _DETECT),
    ("textsim.value_comparisons", "count", "lower", _DISTINCT),
    ("textsim.distinct_value_pairs", "count", "lower", _DISTINCT),
    ("textsim.distinct_share", "ratio", "lower", _DISTINCT),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s"),
]

#: The reference loop: ``REFERENCE_ROUNDS`` multiply-adds in pure Python,
#: timed for ``REFERENCE_WINDOW_S`` right before and right after every
#: command on the CPU the command runs on.  ``REFERENCE_S`` is its mean time
#: on an idle 2-vCPU Xeon (Sapphire Rapids, KVM); timings are scaled by
#: ``REFERENCE_S / measured`` so that they read as seconds at that speed.
REFERENCE_ROUNDS = 100_000
REFERENCE_WINDOW_S = 0.3
REFERENCE_S = 0.0068
#: Interpreter starts that only measure set-up, after one discarded warm-up.
SETUP_PROBES = 3
MIN_ITERATIONS = 2
#: A run must end within 180 s; stop starting work after this budget.
RUN_BUDGET_S = 160.0


class BenchError(RuntimeError):
    """The program under test crashed or ran out of time."""


def reference_loop_s() -> float:
    """Mean time of the reference loop over a short window on this CPU."""
    times = []
    window_started = time.perf_counter()
    while time.perf_counter() - window_started < REFERENCE_WINDOW_S:
        started = time.perf_counter()
        total = 0
        for value in range(REFERENCE_ROUNDS):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.fmean(times)


def _median_max(values: List[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = SIZES[size]
        self.passes, self.prepared = WORKLOADS[workload]
        self.clusters = self.size["clusters"][workload]
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        self.directory = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
        self.spawned = 0
        self.reference: Optional[float] = None
        self.setup_samples: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        size = self.size
        self.inputs = WORK / "inputs" / source_digest() / (
            f"voters{size['voters']}-years{size['years']}-"
            f"spy{size['snapshots_per_year']}-seed{seed}"
        )
        # Output digests of this run's commands, by kind.
        self.digests: Dict[str, str] = {}
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
            ),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    # ------------------------------------------------------------ processes

    def spawn(self, command: str, **spec) -> dict:
        """Run one command of ``chain.py`` in a fresh interpreter."""
        self.spawned += 1
        spec_path = self.directory / f"spec{self.spawned}.json"
        result_path = self.directory / f"result{self.spawned}.json"
        spec.update(command=command, source=str(SRC), result=str(result_path))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        before = self.reference or reference_loop_s()
        started = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(BENCH / "chain.py"), str(spec_path)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _out, err = process.communicate(
                timeout=max(1.0, self.deadline + 15 - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise BenchError(f"{command} did not finish within the run budget")
        if process.returncode != 0:
            raise BenchError(f"{command} exited with {process.returncode}:\n{err[-3000:]}")
        elapsed = time.monotonic() - started
        self.reference = reference_loop_s()
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["process_s"] = elapsed
        # The CPU's speed drifts by up to 1.8x over minutes on a shared
        # host; the reference loop around the command measures the drift.
        result["speed"] = REFERENCE_S / ((before + self.reference) / 2)
        result["setup_s_raw"] = result["ready"] - started
        result["setup_s"] = result["setup_s_raw"] * result["speed"]
        if "wall_s" in result:
            result["wall_s_raw"] = result["wall_s"]
            result["wall_s"] *= result["speed"]
        self.setup_samples.append(result["setup_s"])
        return result

    def snapshots(self) -> Path:
        """The seed's snapshot TSVs, simulated once and kept for later runs."""
        path = self.inputs / "snapshots"
        if not path.exists():
            shutil.rmtree(self.inputs / "snapshots.partial", ignore_errors=True)
            self.inputs.mkdir(parents=True, exist_ok=True)
            size = self.size
            self.spawn(
                "simulate",
                out=str(path),
                seed=self.seed,
                voters=size["voters"],
                years=size["years"],
                snapshots_per_year=size["snapshots_per_year"],
            )
        return path

    def store(self, snapshots: Path) -> Path:
        """The seed's store, built once by this code under test and kept."""
        path = self.inputs / "store"
        if not path.exists():
            partial = self.inputs / "store.partial"
            shutil.rmtree(partial, ignore_errors=True)
            self.generate("store build", partial, snapshots, trace=False)
            os.replace(partial, path)
        return path

    # ---------------------------------------------------------------- checks

    def record(self, label: str, result: dict) -> None:
        """Count one command as an operation; fail it on any check error.

        Each output digest must equal the one every earlier command of
        this run produced for the same kind of output.
        """
        self.attempted += 1
        errors = list(result["errors"])
        for kind, digest in result["digests"].items():
            if digest != self.digests.setdefault(kind, digest):
                errors.append(f"{kind} digest differs from an earlier command of the run")
        if errors:
            self.failures.append(f"{label}: " + "; ".join(errors[:5]))

    # ------------------------------------------------------------ the chain

    def generate(self, label: str, store: Path, snapshots: Path,
                 trace: bool) -> dict:
        result = self.spawn(
            "generate", snapshots=str(snapshots), store=str(store), trace=trace
        )
        self.record(label, result)
        return result

    def iteration(self, index: int, snapshots: Path, store: Optional[Path],
                  trace: bool, check: bool) -> dict:
        """One pass over the workload's chain; returns its per-command results."""
        directory = self.directory / f"iteration{index}"
        directory.mkdir()
        label = f"iteration {index}"
        commands = {}
        if store is None:
            store = directory / "store"
            commands["generate"] = self.generate(
                f"{label} generate", store, snapshots, trace
            )
        dataset = directory / "dataset.csv"
        commands["customize"] = self.spawn(
            "customize", store=str(store), dataset=str(dataset),
            clusters=self.clusters, trace=trace, check=check, seed=self.seed,
        )
        self.record(f"{label} customize", commands["customize"])
        commands["detect"] = self.spawn(
            "detect", dataset=str(dataset), passes=list(self.passes),
            trace=trace, check=check, seed=self.seed,
        )
        self.record(f"{label} detect", commands["detect"])
        shutil.rmtree(directory)
        quality = commands["detect"]["quality"]
        return {
            "commands": commands,
            "wall_s_raw": sum(c["wall_s_raw"] for c in commands.values()),
            "wall_s": sum(c["wall_s"] for c in commands.values()),
            "customize_s": commands["customize"]["wall_s"],
            "detect_s": commands["detect"]["wall_s"],
            "peak_rss_mb": max(c["peak_rss_mb"] for c in commands.values()),
            "blocking_recall": quality["blocking_recall"],
            "best_f1": quality["best_f1"],
        }

    def execute(self) -> dict:
        """Set up, run the chain for ``seconds`` seconds, check, summarise."""
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
        if hasattr(os, "sched_setaffinity"):
            # Commands and the reference loop share one CPU (children inherit).
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.directory.mkdir(parents=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _execute(self) -> dict:
        probes = [self.spawn("probe") for _ in range(SETUP_PROBES + 1)]
        del self.setup_samples[0]  # the warm-up start
        snapshots = self.snapshots()
        prep = None
        store = None
        if self.prepared and self.trace:
            store = self.directory / "store"
            prep = self.generate("store build", store, snapshots, trace=True)
        elif self.prepared:
            store = self.store(snapshots)
        iterations = []
        loop_started = time.monotonic()
        while True:
            began = time.monotonic()
            iterations.append(
                self.iteration(len(iterations), snapshots, store, False,
                               check=not iterations)
            )
            now = time.monotonic()
            took = now - began
            # Stop when another iteration would end nearer past ``seconds``
            # than this one ends before it, or would not fit the budget
            # (with room for the traced iteration).
            if len(iterations) >= MIN_ITERATIONS and (
                now + took / 2 - loop_started >= self.seconds
                or now + took * (3.0 if self.trace else 1.5) > self.deadline
            ):
                break
        outputs = {
            name: [it[name] for it in iterations]
            for name in ("wall_s", "wall_s_raw", "customize_s", "detect_s",
                         "peak_rss_mb", "blocking_recall", "best_f1")
        }
        summary = {
            "samples": dict(outputs, setup_s=self.setup_samples),
            "timings": {
                name: _median_max(values)
                for name, values in dict(outputs, setup_s=self.setup_samples).items()
            },
            "iterations": len(iterations),
            "commands": [
                {
                    name: {k: result[k] for k in (
                        "wall_s", "wall_s_raw", "setup_s", "speed", "process_s")}
                    for name, result in it["commands"].items()
                }
                for it in iterations
            ],
        }
        metrics = {
            name: statistics.median(
                self.setup_samples if name == "setup_s" else outputs[name]
            )
            for name, _unit, _better in END_TO_END
        }
        traced = None
        if self.trace:
            traced = self.iteration(len(iterations), snapshots, store, True, False)
            metrics = self.per_layer(prep, traced, metrics["wall_s"])
        sizes = {}
        for result in iterations[0]["commands"].values():
            sizes.update(result["sizes"])
        return {
            "metrics": metrics,
            "summary": summary,
            "provenance": self.provenance(probes[1], sizes, len(iterations)),
            "trace": self.trace_report(prep, traced),
        }

    # --------------------------------------------------------------- tracing

    def per_layer(self, prep: Optional[dict], traced: dict,
                  untraced_wall: float) -> Dict[str, float]:
        """Per-layer self times and counts of the traced store build + chain."""
        results = ([prep] if prep else []) + list(traced["commands"].values())
        metrics: Dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
        counts: Dict[str, float] = {}
        for result in results:
            for row in self_times(result["spans"]):
                key = row["name"] + "_s"
                if key in metrics:
                    metrics[key] += row["self"] * result["speed"]
            for name, value in result["counts"].items():
                counts[name] = counts.get(name, 0) + value
        for name in metrics:
            if name in counts:
                metrics[name] = counts[name]
        metrics["docstore.bytes_per_record"] = (
            counts["docstore.store_bytes"] / counts["docstore.records"]
        )
        metrics["dedup.score.pairs_per_s"] = (
            counts["dedup.score.pairs"] / metrics["dedup.score_s"]
        )
        metrics["textsim.distinct_share"] = (
            counts["textsim.distinct_value_pairs"] / counts["textsim.value_comparisons"]
        )
        overhead = traced["wall_s"] - untraced_wall
        metrics["trace.overhead_s"] = overhead
        uncovered = sum(
            uncovered_time(result["spans"]) * result["speed"]
            for result in traced["commands"].values()
        )
        allowed = max(abs(overhead), 0.01 * traced["wall_s"])
        if uncovered > allowed:
            self.failures.append(
                f"top-level spans leave {uncovered:.4f} s of the traced wall_s "
                f"uncovered, more than {allowed:.4f} s"
            )
        return metrics

    def trace_report(self, prep: Optional[dict], traced: Optional[dict]) -> list:
        if traced is None:
            return []
        commands = [("store build", prep)] if prep else []
        commands += list(traced["commands"].items())
        return [
            {
                "command": label,
                "speed": result["speed"],
                "spans": [
                    {k: row[k] for k in ("id", "name", "parent", "duration", "self")}
                    for row in self_times(result["spans"])
                ],
                "counts": result["counts"],
            }
            for label, result in commands
        ]

    def provenance(self, probe: dict, sizes: dict, iterations: int) -> dict:
        return {
            "git_sha": git_sha(),
            "cpu_count": os.cpu_count(),
            "python": probe["python"],
            "numpy": probe["numpy"],
            "workload": self.workload,
            "seed": self.seed,
            "run_seconds": self.seconds,
            "iterations": iterations,
            "sizes": sizes,
        }


def source_digest() -> str:
    """Short SHA-256 over the source files of the program and the benchmark.

    Uncommitted edits count too, which a git SHA would miss.
    """
    digest = hashlib.sha256()
    for directory in (SRC / "repro", BENCH):
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return completed.stdout.strip() or "unknown"


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    """Execute one workload, print its summary lines and write its report."""
    run = Run(workload, args.seed, args.seconds, bool(args.trace), args.size)
    outcome = run.execute()
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    units["wall_s_raw"] = "s"
    print("provenance " + json.dumps(outcome["provenance"], sort_keys=True))
    for name, timing in outcome["summary"]["timings"].items():
        print(
            f"{workload} {name:<16} median {timing['median']:.6g} {units[name]}"
            f"  p100 {timing['max']:.6g}  n={timing['n']}"
        )
    for failure in run.failures:
        print(f"CHECK FAILED {failure}")
    report = WORK / "reports" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    per_layer = [
        {"name": name, "value": outcome["metrics"][name], "unit": unit,
         "better": better, "moves": moves}
        for name, unit, better, moves in PER_LAYER
    ] if args.trace else []
    report.write_text(json.dumps(
        dict(outcome, failures=run.failures, per_layer=per_layer), indent=2
    ), encoding="utf-8")
    if args.trace:
        for row in per_layer:
            print(f"{workload} {row['name']:<30} {row['value']:.6g} {row['unit']}"
                  f"  -> {row['moves']}")
    print(f"report {report}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="paper")
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {workload: run_workload(workload, args) for workload in workloads}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
