"""The lazy flash array: blocks are built on first touch.

An untouched block must be indistinguishable from a freshly built one --
erased, erase count 0, every page FREE -- in every aggregate the FTL, the
wear leveler and the checkpoint layer read.
"""

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.experiments.spec import ExperimentScale, make_spec
from repro.ftl import ftl as ftl_module
from repro.hil.request import IoKind, IoRequest
from repro.nand.chip import FlashPlane
from repro.sim.checkpoint import restore_device, snapshot_device
from repro.ssd.device import SsdDevice


def small_device():
    return SsdDevice(
        performance_optimized(blocks_per_plane=8, pages_per_block=8),
        DesignKind.BASELINE,
        enable_wear_leveling=True,
    )


def planes(device):
    return [plane for _, _, plane in device.array.iter_planes()]


def materialised(device):
    return sum(plane.materialised for plane in planes(device))


def aggregates(device):
    """Every whole-array view that must count untouched blocks exactly."""
    allocator = device.ftl.allocator
    wear = device.wear_leveler.wear_stats()
    return {
        "free": device.array.total_free_pages(),
        "valid": device.array.total_valid_pages(),
        "total": sum(plane.total_pages for plane in planes(device)),
        "erased": [
            allocator.erased_block_count(plane_flat)
            for plane_flat in range(allocator.plane_count())
        ],
        "wear": (wear.minimum, wear.maximum, wear.mean),
    }


def write_requests(count):
    return [
        IoRequest(
            kind=IoKind.WRITE,
            offset_bytes=index * 4096,
            size_bytes=4096,
            arrival_ns=index * 1000,
        )
        for index in range(count)
    ]


def test_fresh_device_builds_no_block():
    device = small_device()
    assert materialised(device) == 0
    assert all(plane.untouched_blocks == 8 for plane in planes(device))


def test_fresh_device_aggregates_match_the_geometry():
    device = small_device()
    geometry = device.config.geometry
    assert aggregates(device) == {
        "free": geometry.total_pages,
        "valid": 0,
        "total": geometry.total_pages,
        "erased": [geometry.blocks_per_plane] * geometry.planes_total,
        "wear": (0, 0, 0.0),
    }
    assert materialised(device) == 0  # reading aggregates builds nothing


def test_aggregates_after_writes_match_the_fully_built_array():
    device = small_device()
    geometry = device.config.geometry
    device.run_trace(write_requests(40), "writes")
    lazy = aggregates(device)
    assert 0 < materialised(device) < geometry.planes_total * geometry.blocks_per_plane
    written = device.ftl.mapping.mapped_count
    assert lazy["valid"] == written == 40
    assert lazy["free"] == geometry.total_pages - written
    assert lazy["total"] == geometry.total_pages
    # Building every remaining block changes no aggregate: an untouched
    # block counts exactly as the fresh block it stands for.
    for plane in planes(device):
        for index in range(geometry.blocks_per_plane):
            plane.block(index)
    assert materialised(device) == geometry.planes_total * geometry.blocks_per_plane
    assert aggregates(device) == lazy


def test_wear_stats_count_untouched_blocks_as_zero():
    device = small_device()
    geometry = device.config.geometry
    device.ftl.allocator.plane(0).block(3).erase_count = 16
    blocks = geometry.planes_total * geometry.blocks_per_plane
    stats = device.wear_leveler.wear_stats()
    assert (stats.minimum, stats.maximum, stats.mean) == (0, 16, 16 / blocks)


def test_erased_blocks_list_untouched_blocks_as_erase_count_zero():
    plane = FlashPlane(0, performance_optimized(blocks_per_plane=4).geometry)
    plane.block(0).erase_count = 2  # erased but worn
    plane.block(2)  # built, erased, erase count 0
    assert list(plane.erased_blocks()) == [(2, 0), (0, 1), (0, 2), (0, 3)]
    assert plane.materialised == 2


def test_fresh_device_snapshot_lists_no_block():
    assert snapshot_device(small_device())["blocks"] == []


def test_warmed_snapshot_round_trips_and_builds_only_listed_blocks():
    spec = make_spec(
        "venice", "performance-optimized", "hm_0",
        ExperimentScale(requests=60, requests_per_mix_constituent=30),
        warmup="fill 0.4; steps 200",
    )
    state, _ = spec.compute_checkpoint()
    device = spec._build_device(spec.build_config(), with_faults=False)
    restore_device(device, state)
    assert snapshot_device(device) == state
    assert materialised(device) == len(state["blocks"])


def test_churn_never_sees_an_inflight_program(monkeypatch):
    """Churn compaction shares the GC victim scan, whose in-flight skip
    therefore must never change a churn choice."""
    device = SsdDevice(
        performance_optimized(blocks_per_plane=8, pages_per_block=8),
        DesignKind.BASELINE,
    )
    scans = []
    original = ftl_module.greedy_victim

    def checked(plane, open_block):
        assert all(
            block.pending_programs == 0 for block in plane.materialised_blocks()
        )
        scans.append(plane.index)
        return original(plane, open_block)

    monkeypatch.setattr(ftl_module, "greedy_victim", checked)
    device.precondition(0.9)
    device.churn(0.9)
    assert scans  # the churn compacted
    device.ftl.assert_consistent()


def test_a_small_cell_builds_a_small_fraction_of_the_array():
    """Structural guard: a full-array loop that builds every block fails."""
    spec = make_spec(
        "venice", "performance-optimized", "hm_0",
        ExperimentScale.for_requests(100, seed=42),
    )
    config = spec.build_config()
    device = spec._build_device(config, with_faults=True)
    trace = spec.build_trace(config)
    result = device.run_trace(trace.requests, trace.name)
    geometry = config.geometry
    blocks_total = geometry.planes_total * geometry.blocks_per_plane
    assert result.requests_completed == 100
    assert 0 < materialised(device) <= blocks_total // 16
