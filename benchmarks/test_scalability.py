"""Scalability: import throughput across register sizes.

The paper's core claim is that the historical approach scales where
manual labeling and pollution tools do not (Sections 1 and 7).  The
pipeline here is streaming with O(cluster) state, so throughput must stay
flat (and total time linear) as the register grows — this bench measures
rows/s at three scales and asserts near-linear scaling.  An untimed
warm-up import runs first, and every scale is timed over at least
``MIN_WINDOW_SECONDS``.
"""

import time

from repro.core import RemovalLevel, TestDataGenerator
from repro.votersim import SimulationConfig, VoterRegisterSimulator

from bench_utils import write_result

SCALES = (300, 900, 2700)

#: Shortest timed window per scale.  A scale whose import finishes sooner
#: (the smallest one) is imported again, into a fresh generator, until
#: the window is filled, so scheduler noise cannot dominate its rate.
MIN_WINDOW_SECONDS = 0.5


def simulate(voters):
    config = SimulationConfig(initial_voters=voters, years=5, seed=31)
    return list(VoterRegisterSimulator(config).run())


def import_once(snapshots):
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    start = time.perf_counter()
    generator.import_snapshots(snapshots)
    return time.perf_counter() - start, generator.record_count


def run_scale(voters):
    snapshots = simulate(voters)
    rows = sum(len(s) for s in snapshots)
    elapsed, repeats, records = 0.0, 0, set()
    while elapsed < MIN_WINDOW_SECONDS:
        seconds, record_count = import_once(snapshots)
        elapsed += seconds
        repeats += 1
        records.add(record_count)
    assert len(records) == 1, "re-importing the same snapshots diverged"
    return rows, repeats, elapsed, records.pop()


def test_import_scales_linearly(benchmark, results_dir):
    def sweep():
        import_once(simulate(SCALES[0]))  # untimed warm-up
        return {voters: run_scale(voters) for voters in SCALES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"{'voters':>8} {'rows':>8} {'repeats':>8} {'seconds':>9} "
        f"{'rows/s':>10} {'records':>8}"
    ]
    throughputs = []
    for voters in SCALES:
        rows, repeats, elapsed, records = results[voters]
        rate = rows * repeats / elapsed
        throughputs.append(rate)
        lines.append(
            f"{voters:>8} {rows:>8} {repeats:>8} {elapsed:>9.2f} "
            f"{rate:>10,.0f} {records:>8}"
        )
    write_result(results_dir, "scalability_import", lines)

    # Throughput at 9x scale stays within 3x of the smallest scale —
    # a loose bound that still rules out quadratic behaviour (which would
    # cost ~9x throughput here).
    assert min(throughputs) > max(throughputs) / 3.0
    # And absolute throughput stays in the tens of thousands of rows/s.
    assert min(throughputs) > 10_000
