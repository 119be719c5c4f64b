"""Figure 11: p99 tail-latency CDFs for src1_0 and hm_0."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_table

from benchmarks.conftest import BENCH_SCALE, emit


def test_bench_fig11_tail_latency(benchmark):
    result = benchmark.pedantic(
        run_figure, args=("fig11", BENCH_SCALE, ("src1_0", "hm_0")),
        rounds=1, iterations=1,
    )
    rows = []
    for workload, tails in result["p99_ns"].items():
        for design, p99 in sorted(tails.items()):
            reduction = result["reduction_vs_baseline"][workload].get(design)
            rows.append(
                [
                    workload,
                    design,
                    p99 / 1e3,
                    "" if reduction is None else f"{reduction:+.0%}",
                ]
            )
    emit(
        "Figure 11: p99 tail latency (performance-optimized)",
        format_table(["workload", "design", "p99 (us)", "vs baseline"], rows),
    )
    for workload in ("src1_0", "hm_0"):
        tails = result["p99_ns"][workload]
        # Shape: Venice's tail sits at or below the baseline's.
        assert tails["venice"] <= tails["baseline"] * 1.05
