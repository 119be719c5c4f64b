"""Figure 10: IOPS normalized to the path-conflict-free SSD."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import speedup_table

from benchmarks.conftest import BENCH_SCALE, BENCH_WORKLOADS, emit


def test_bench_fig10_throughput(benchmark, bench_store):
    result = benchmark.pedantic(
        run_figure, args=("fig10", BENCH_SCALE, BENCH_WORKLOADS),
        kwargs={"store": bench_store}, rounds=1, iterations=1,
    )
    emit(
        "Figure 10: normalized SSD throughput (performance-optimized)",
        speedup_table(
            result["normalized_throughput"],
            ["baseline", "pssd", "pnssd", "nossd", "venice"],
            mean_label="AVG",
        ),
    )
    average = result["average"]
    assert average["venice"] >= average["baseline"]
    assert average["venice"] <= 1.02  # normalized to ideal
