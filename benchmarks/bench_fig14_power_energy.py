"""Figure 14: power and energy normalized to the Baseline SSD."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import speedup_table

from benchmarks.conftest import BENCH_SCALE, BENCH_WORKLOADS, emit

DESIGNS = ["pssd", "pnssd", "nossd", "venice"]


def test_bench_fig14_power_energy(benchmark, bench_store):
    result = benchmark.pedantic(
        run_figure, args=("fig14", BENCH_SCALE, BENCH_WORKLOADS),
        kwargs={"store": bench_store}, rounds=1, iterations=1,
    )
    emit(
        "Figure 14(a): normalized average power",
        speedup_table(result["normalized_power"], DESIGNS, mean_label="AVG"),
    )
    emit(
        "Figure 14(b): normalized energy",
        speedup_table(result["normalized_energy"], DESIGNS, mean_label="AVG"),
    )
    # Shape: power within a narrow band (flash ops dominate, §6.4); energy
    # tracks execution time, so Venice lands below the baseline.
    assert 0.7 < result["average_power"]["venice"] < 1.3
    assert result["average_energy"]["venice"] < 1.0
