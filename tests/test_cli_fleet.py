"""CLI fleet surface: ``fleet run``, ``fleet sweep``, ``list`` placements."""

import json

import pytest

from repro.cli import main


def test_fleet_run_prints_roll_up_tables(capsys):
    code = main([
        "fleet", "run", "--devices", "2", "--tenants", "4",
        "--requests", "48",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "aggregate IOPS" in out
    assert "fleet p99 latency (us)" in out
    assert "per-device" in out
    assert "round-robin" in out


def test_fleet_run_json_and_warm_cache(tmp_path, capsys):
    args = [
        "fleet", "run", "--devices", "2", "--tenants", "4",
        "--requests", "48", "--json", "--cache", str(tmp_path / "store"),
    ]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["devices"] == 2
    assert cold["requests_completed"] == 2 * 48
    assert main(args) == 0  # warm: served entirely from the store
    warm = json.loads(capsys.readouterr().out)
    assert warm == cold


def test_fleet_run_mixed_designs_and_member_fault(capsys):
    code = main([
        "fleet", "run", "--designs", "venice", "baseline",
        "--tenants", "2", "--requests", "48", "--json",
        "--faults", "1:0 link (0,2)-(0,3) down",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member_designs"] == ["venice", "baseline"]


def test_fleet_fault_entries_compose_order_independently():
    """Bare schedules are the fleet-wide default; IDX: entries override —
    whatever order the flags arrive in."""
    from repro.cli import _parse_member_faults

    link = "1:0 link (0,2)-(0,3) down"
    router = "0 router (1,1) down"
    expected = ["0 router (1,1) down", "0 link (0,2)-(0,3) down"]
    assert _parse_member_faults([link, router], 2) == expected
    assert _parse_member_faults([router, link], 2) == expected
    assert _parse_member_faults([router], 2) == [router, router]
    assert _parse_member_faults([link], 2) == [None, "0 link (0,2)-(0,3) down"]
    assert _parse_member_faults(None, 2) is None


def test_fleet_run_rejects_bad_fault_index(capsys):
    code = main([
        "fleet", "run", "--devices", "2", "--requests", "48",
        "--faults", "7:0 link (0,2)-(0,3) down",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fleet_sweep_tables(capsys):
    code = main([
        "fleet", "sweep", "--devices", "1", "2", "--requests", "48",
        "--tenants", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "aggregate IOPS" in out
    assert "p999 (us)" in out
    assert "round-robin" in out


def test_fleet_sweep_json_cache_and_jobs_determinism(tmp_path, capsys):
    base = [
        "fleet", "sweep", "--devices", "1", "2", "--requests", "48",
        "--tenants", "4", "--json",
    ]
    cold_args = base + ["--cache", str(tmp_path / "a")]
    assert main(cold_args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(cold_args) == 0  # warm re-run: zero new simulations
    warm = json.loads(capsys.readouterr().out)
    assert warm == cold
    jobs_args = base + ["--cache", str(tmp_path / "b"), "--jobs", "4"]
    assert main(jobs_args) == 0  # cold parallel run, fresh store
    parallel = json.loads(capsys.readouterr().out)
    assert parallel == cold  # byte-identical across serial/parallel


def test_fleet_sweep_placement_axis(capsys):
    code = main([
        "fleet", "sweep", "--devices", "2", "--placements", "rr",
        "stripe:64KiB", "--requests", "48", "--tenants", "4", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["placements"] == ["round-robin", "stripe:65536"]
    assert set(payload["curve"]) == {"round-robin", "stripe:65536"}


def test_fleet_rejects_unknown_placement(capsys):
    code = main([
        "fleet", "run", "--devices", "2", "--requests", "48",
        "--placement", "teleport",
    ])
    assert code == 2
    assert "placement" in capsys.readouterr().err


def test_list_includes_placements(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "placements:" in out
    assert "hash-tenant" in out


def test_fleet_run_sample_flag(capsys):
    code = main([
        "fleet", "run", "--devices", "9", "--sample", "3",
        "--requests", "90", "--tenants", "2", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["devices"] == 9
    assert len(payload["sampled_member_indices"]) == 3
    assert payload["sample"]["devices_simulated"] == 3
    assert payload["sample"]["scale_factor"] == 3.0


def test_fleet_run_sample_table_shows_extrapolation(capsys):
    code = main([
        "fleet", "run", "--devices", "6", "--sample", "2",
        "--requests", "60", "--tenants", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampled extrapolation" in out
    assert "95% CI" in out


def test_fleet_sweep_sample_flag(capsys):
    code = main([
        "fleet", "sweep", "--devices", "2", "4", "--sample", "2",
        "--requests", "60", "--tenants", "2", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sample"] == 2
    assert payload["curve"]["round-robin"]["4"]["sample"][
        "devices_simulated"] == 2


@pytest.mark.parametrize("command", [
    ["fleet", "run", "--devices", "2"],
    ["fleet", "sweep", "--devices", "1", "2"],
])
def test_fleet_rejects_negative_sample(command, capsys):
    code = main(command + ["--sample", "-2", "--requests", "48"])
    assert code == 2
    assert "sample must be" in capsys.readouterr().err


def test_fleet_run_clamps_sample_to_fleet_size(capsys):
    # K >= devices clamps to the fleet size, which simulates every member.
    code = main([
        "fleet", "run", "--devices", "2", "--sample", "5",
        "--requests", "48", "--tenants", "2", "--json",
    ])
    assert code == 0
    assert "sample" not in json.loads(capsys.readouterr().out)
