"""Spec-layer run machinery: pressure metric, acceleration, design slices."""

import pytest

from repro.experiments.spec import (
    ALL_DESIGNS,
    ExperimentScale,
    accelerate_to_pressure,
    build_config,
    channel_pressure,
    footprint_for,
    matrix_specs,
    trace_for,
)
from repro.ssd.device import SsdDevice
from repro.workloads.catalog import generate_workload

SCALE = ExperimentScale(requests=120, blocks_per_plane=8, pages_per_block=8)


def test_build_config_applies_scale():
    config = build_config("performance-optimized", SCALE)
    assert config.geometry.blocks_per_plane == 8
    assert config.geometry.pages_per_block == 8
    assert config.geometry.total_chips == 64  # geometry never scaled


def test_channel_pressure_definition():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "hm_0", count=500, footprint_bytes=footprint_for(config, SCALE)
    )
    pressure = channel_pressure(trace, config)
    page = config.geometry.page_size
    per_page = config.interconnect.channel_transfer_ns(page)
    pages = sum((r.size_bytes + page - 1) // page for r in trace.requests)
    expected = pages * per_page / (trace.duration_ns * 8)
    assert pressure == pytest.approx(expected)


def test_acceleration_reaches_target():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "hm_0", count=500, footprint_bytes=footprint_for(config, SCALE)
    )
    accelerated = accelerate_to_pressure(trace, config, target=1.5, max_acceleration=256)
    assert channel_pressure(accelerated, config) == pytest.approx(1.5, rel=0.02)


def test_acceleration_never_stretches():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "ssd-10", count=400, footprint_bytes=footprint_for(config, SCALE)
    )
    before = channel_pressure(trace, config)
    accelerated = accelerate_to_pressure(
        trace, config, target=before / 10, max_acceleration=256
    )
    assert accelerated is trace  # already above target: unchanged


def test_acceleration_cap_respected():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "LUN3", count=300, footprint_bytes=footprint_for(config, SCALE)
    )
    accelerated = accelerate_to_pressure(trace, config, target=1.6, max_acceleration=4)
    assert channel_pressure(accelerated, config) <= channel_pressure(
        trace, config
    ) * 4 * 1.01


def test_trace_for_mix_uses_table3_constituents():
    config = build_config("performance-optimized", SCALE)
    trace = trace_for("mix1", config, SCALE, mix=True)
    assert {r.queue_id for r in trace.requests} == {0, 1}


def test_matrix_specs_skip_pnssd_on_rectangular_arrays():
    specs = matrix_specs("performance-optimized", ("proj_3",), SCALE, geometry=(4, 16))
    designs = [spec.design for spec in specs]
    assert "pnssd" not in designs
    assert "venice" in designs
    assert "baseline" in designs


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda design: design.value)
def test_spec_execute_matches_a_hand_built_device(design):
    """A spec run equals a device built by hand from the same config and trace."""
    config = build_config("performance-optimized", SCALE)
    trace = trace_for("proj_3", config, SCALE)
    (spec,) = matrix_specs("performance-optimized", ("proj_3",), SCALE, (design,))
    device = SsdDevice(config, design, queue_pairs=SCALE.queue_pairs)
    expected = device.run_trace(trace.requests, trace.name)
    assert spec.execute() == expected
