"""Experiment harness shape tests (small scale, fast).

These assert the *shape* properties DESIGN.md targets: orderings and
qualitative relations per figure, not absolute numbers.  They use a tiny
scale so the whole module stays fast; the benchmarks run the same
registered figures through ``run_figure`` at larger scale.
"""

import pytest

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_table, geometric_mean, speedup_table
from repro.experiments.spec import ExperimentScale

TINY = ExperimentScale(
    requests=150,
    requests_per_mix_constituent=60,
    blocks_per_plane=8,
    pages_per_block=8,
)
WORKLOADS = ("proj_3", "YCSB_B")


@pytest.fixture(scope="module")
def fig9a():
    return run_figure("fig9a", TINY, WORKLOADS)


def test_fig4_ideal_dominates_priors():
    result = run_figure("fig4", TINY, WORKLOADS)
    gmean = result["gmean"]
    assert gmean["ideal"] >= gmean["pssd"]
    assert gmean["ideal"] >= gmean["pnssd"]
    assert gmean["ideal"] >= gmean["nossd"]
    assert gmean["ideal"] > 1.2  # a large gap remains (the paper's point)


def test_fig9a_venice_beats_baseline_and_sits_below_ideal(fig9a):
    gmean = fig9a["gmean"]
    assert gmean["venice"] > 1.2
    assert gmean["venice"] <= gmean["ideal"]


def test_fig9a_contains_all_designs_per_workload(fig9a):
    for workload, values in fig9a["speedups"].items():
        assert set(values) == {"pssd", "pnssd", "nossd", "venice", "ideal"}


def test_fig10_normalized_throughput_at_most_one():
    result = run_figure("fig10", TINY, WORKLOADS)
    for values in result["normalized_throughput"].values():
        for design, normalized in values.items():
            assert 0 < normalized <= 1.02, (design, normalized)
    assert result["average"]["venice"] >= result["average"]["baseline"]


def test_fig11_venice_cuts_tail_latency():
    result = run_figure("fig11", TINY, ("proj_3",))
    reduction = result["reduction_vs_baseline"]["proj_3"]
    assert reduction["venice"] > 0  # lower p99 than baseline
    assert result["p99_ns"]["proj_3"]["ideal"] <= result["p99_ns"]["proj_3"]["baseline"]
    cdf = result["tail_cdfs"]["proj_3"]["venice"]
    assert cdf[0][1] == pytest.approx(0.99)


def test_fig12_mixes_run_and_venice_gains(tmp_path):
    result = run_figure("fig12", TINY, ("mix1",))
    assert result["gmean"]["venice"] > 1.0
    assert result["gmean"]["ideal"] >= result["gmean"]["venice"] * 0.9


def test_fig13_venice_conflicts_far_below_priors():
    result = run_figure("fig13", TINY, WORKLOADS)
    average = result["average"]
    assert average["venice"] < average["baseline"]
    assert average["venice"] < average["pssd"]
    assert average["venice"] < average["nossd"]
    assert average["baseline"] > 0.2  # baseline suffers heavily under load


def test_fig14_energy_tracks_execution_time():
    result = run_figure("fig14", TINY, WORKLOADS)
    # Venice finishes faster at similar power => lower energy than baseline.
    assert result["average_energy"]["venice"] < 1.0
    # Power stays within a small band of the baseline (flash ops dominate).
    assert 0.7 < result["average_power"]["venice"] < 1.3


def test_fig15_all_geometries_report():
    result = run_figure("fig15", TINY, ("proj_3",))
    assert set(result["gmean_speedups"]) == {"4x16", "8x8", "16x4"}
    assert result["geometries"] == ["4x16", "8x8", "16x4"]
    for geometry, gmeans in result["gmean_speedups"].items():
        assert "venice" in gmeans
        assert "pnssd" not in gmeans or geometry == "8x8"


def test_table4_reproduces_paper_arithmetic():
    result = run_figure("table4", TINY)
    assert result["router_power_mw"] == pytest.approx(0.241)
    assert result["link_power_mw_4kb_transfer"] == pytest.approx(1.08)
    assert result["link_vs_channel_power_saving"] == pytest.approx(0.9, abs=0.01)
    assert result["link_area_saving_fraction"] == pytest.approx(0.44, abs=0.001)
    assert result["links_total"] == 112.0


# --------------------------------------------------------------------- #
# reporting helpers
# --------------------------------------------------------------------- #


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(Exception):
        geometric_mean([])


def test_format_table_renders():
    text = format_table(["a", "b"], [["x", 1.5], ["y", 2.0]], title="t")
    assert "t" in text
    assert "x" in text
    assert "1.5" in text


def test_speedup_table_includes_gmean_row():
    table = speedup_table(
        {"w1": {"venice": 2.0}, "w2": {"venice": 8.0}}, ["venice"]
    )
    assert "GMEAN" in table
    assert "4" in table
