"""Tests for the perf harness (micro-benchmarks + regression gate)."""

import json

from repro.experiments.bench import (
    BENCH_DESIGNS,
    SPEEDUP_EARLY_STOP,
    SPEEDUP_WARMUP,
    bench_engine_events,
    bench_resource_cycles,
    check_regression,
    peak_rss_kb,
    run_bench,
)


def test_engine_bench_counts_all_events():
    result = bench_engine_events(events=4_000, repeats=1)
    assert result["events"] >= 4_000
    assert result["events_per_sec"] > 0


def test_resource_bench_completes_every_cycle():
    result = bench_resource_cycles(cycles=2_000, repeats=1)
    assert result["cycles"] == 2_000
    assert result["cycles_per_sec"] > 0


def test_run_bench_quick_payload_is_json_safe():
    payload = run_bench(quick=True, repeats=1)
    encoded = json.loads(json.dumps(payload))
    assert encoded["mode"] == "quick"
    assert set(encoded["end_to_end"]) == set(BENCH_DESIGNS)
    assert encoded["events_per_sec"] > 0
    assert encoded["requests_per_sec"] > 0


def test_peak_rss_reports_positive_on_posix():
    rss = peak_rss_kb()
    assert rss is None or rss > 0


def test_check_regression_passes_within_tolerance():
    payload = {"events_per_sec": 900.0, "requests_per_sec": 90.0}
    baseline = {"events_per_sec": 1000.0, "requests_per_sec": 100.0}
    assert check_regression(payload, baseline, tolerance=0.20) == []


def test_check_regression_flags_past_tolerance():
    payload = {"events_per_sec": 700.0, "requests_per_sec": 100.0}
    baseline = {"events_per_sec": 1000.0, "requests_per_sec": 100.0}
    failures = check_regression(payload, baseline, tolerance=0.20)
    assert len(failures) == 1
    assert "events_per_sec" in failures[0]


def test_check_regression_ignores_missing_baseline_metrics():
    payload = {"events_per_sec": 50.0, "requests_per_sec": 50.0}
    assert check_regression(payload, {}, tolerance=0.20) == []
    assert check_regression(payload, {"note": "no numbers"}, tolerance=0.20) == []


def test_check_regression_reports_missing_payload_metric():
    baseline = {"events_per_sec": 1000.0}
    failures = check_regression({}, baseline, tolerance=0.20)
    assert failures and "missing" in failures[0]


def test_speedup_recipe_strings_parse():
    from repro.sim.checkpoint import WarmupPhase
    from repro.sim.convergence import EarlyStopPolicy

    assert WarmupPhase.parse(SPEEDUP_WARMUP).to_spec() == SPEEDUP_WARMUP
    assert EarlyStopPolicy.parse(SPEEDUP_EARLY_STOP).to_spec() == (
        SPEEDUP_EARLY_STOP
    )
