"""Figure 4: prior approaches vs the ideal path-conflict-free SSD."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import speedup_table

from benchmarks.conftest import BENCH_SCALE, BENCH_WORKLOADS, emit


def test_bench_fig04_motivation(benchmark):
    result = benchmark.pedantic(
        run_figure, args=("fig4", BENCH_SCALE, BENCH_WORKLOADS), rounds=1, iterations=1
    )
    emit(
        "Figure 4: speedup over Baseline SSD (performance-optimized)",
        speedup_table(
            result["speedups"], ["pssd", "pnssd", "nossd", "ideal"]
        ),
    )
    gmean = result["gmean"]
    # Shape: the ideal SSD leaves a large gap above every prior approach.
    assert gmean["ideal"] >= max(gmean["pssd"], gmean["pnssd"], gmean["nossd"])
