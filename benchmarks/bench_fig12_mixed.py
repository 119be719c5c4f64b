"""Figure 12: mixed workloads (Table 3) on the performance-optimized SSD."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import speedup_table

from benchmarks.conftest import BENCH_SCALE, emit


def test_bench_fig12_mixed(benchmark):
    result = benchmark.pedantic(
        run_figure, args=("fig12", BENCH_SCALE), rounds=1, iterations=1
    )
    emit(
        "Figure 12: mixed-workload speedup over Baseline SSD",
        speedup_table(
            result["speedups"], ["pssd", "pnssd", "nossd", "venice", "ideal"]
        ),
    )
    gmean = result["gmean"]
    assert gmean["venice"] > 1.0
    assert gmean["ideal"] >= gmean["venice"] * 0.95
