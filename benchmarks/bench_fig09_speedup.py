"""Figure 9: Venice speedup on both SSD configurations (the headline result)."""

import pytest

from repro.experiments.figures import run_figure
from repro.experiments.reporting import speedup_table

from benchmarks.conftest import BENCH_SCALE, BENCH_WORKLOADS, emit

DESIGNS = ["pssd", "pnssd", "nossd", "venice", "ideal"]


@pytest.mark.parametrize("figure", ["fig9a", "fig9b"])
def test_bench_fig09_speedup(benchmark, figure, bench_store):
    result = benchmark.pedantic(
        run_figure, args=(figure, BENCH_SCALE, BENCH_WORKLOADS),
        kwargs={"store": bench_store}, rounds=1, iterations=1,
    )
    emit(
        f"Figure 9({figure[-1]}): speedup over Baseline SSD ({result['preset']})",
        speedup_table(result["speedups"], DESIGNS),
    )
    gmean = result["gmean"]
    assert gmean["venice"] > 1.0  # Venice beats the baseline on average
    assert gmean["venice"] <= gmean["ideal"] * 1.02  # and sits below ideal
