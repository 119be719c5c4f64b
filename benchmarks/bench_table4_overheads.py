"""Table 4: Venice's power and area overheads (analytic model)."""

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_table

from benchmarks.conftest import BENCH_SCALE, emit


def test_bench_table4_overheads(benchmark):
    result = benchmark.pedantic(
        run_figure, args=("table4", BENCH_SCALE), rounds=1, iterations=1
    )
    rows = [
        ["router power (mW)", result["router_power_mw"], "0.241 (paper)"],
        ["link power, 4KB transfer (mW)", result["link_power_mw_4kb_transfer"], "1.08"],
        ["link vs channel power saving", result["link_vs_channel_power_saving"], "0.90"],
        ["router PCB area (mm^2)", result["router_pcb_area_mm2"], "~8"],
        ["router / flash-chip area", result["router_overhead_of_flash_chip"], "0.08"],
        ["mesh links (8x8)", result["links_total"], "112"],
        ["link area saving vs shared bus", result["link_area_saving_fraction"], "0.44"],
    ]
    emit(
        "Table 4: power and area overheads",
        format_table(["component", "model", "paper"], rows),
    )
    assert abs(result["link_area_saving_fraction"] - 0.44) < 0.001
