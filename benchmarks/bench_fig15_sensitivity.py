"""Figure 15: sensitivity to flash-controller count (4x16 / 8x8 / 16x4)."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_table

from benchmarks.conftest import BENCH_SCALE, emit

WORKLOADS = ("proj_3", "YCSB_B", "src2_1")


def test_bench_fig15_sensitivity(benchmark):
    result = benchmark.pedantic(
        run_figure, args=("fig15", BENCH_SCALE, WORKLOADS), rounds=1, iterations=1
    )
    designs = ["pssd", "nossd", "venice", "ideal"]  # pnSSD needs NxN (§6.5)
    rows = [
        [geometry] + [round(gmeans.get(d, float("nan")), 2) for d in designs]
        for geometry, gmeans in result["gmean_speedups"].items()
    ]
    emit(
        "Figure 15: GMEAN speedup by flash-controller geometry",
        format_table(["geometry"] + designs, rows),
    )
    for gmeans in result["gmean_speedups"].values():
        assert gmeans["venice"] > 0.9  # Venice effective at every geometry
