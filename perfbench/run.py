#!/usr/bin/env python3
"""The repository benchmark: host time and simulated results of the simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig-matrix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats the workload's
pass until ``--seconds`` have elapsed (at least once) and reports medians.
``--trace 1`` runs one untraced pass and one pass with spans recorded at
every layer boundary (``perfbench/tracer.py``), checks that both produced
the same results, and reports the per-layer metrics and the tracing
overhead.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the host fingerprint, the results digest and every check.  The exit
code is 1 when a correctness check fails and 2 when the simulator cannot be
imported.  ``perfbench/NOTES.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for service state directories and span files.
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "sim.venice_speedup_gmean": "x",
    "sim.venice_vs_best_prior": "x",
    "sim.venice_conflict_pct": "%",
    "sim.write_amplification": "ratio",
}

PER_LAYER_UNITS = {
    "venice.try_reserve.calls": "count",
    "venice.try_reserve.s": "s",
    "venice.transfer.s": "s",
    "venice.scout_success_ratio": "ratio",
    "interconnect.transfer.s": "s",
    "interconnect.conflict_ratio": "ratio",
    **{
        f"ftl.{name}.{stat}": unit
        for name in ("translate_read", "translate_write", "allocate_multi_plane", "gc_maybe_trigger")
        for stat, unit in (("calls", "count"), ("s", "s"))
    },
    "ftl.precondition.s": "s",
    "ftl.write_stalls": "count",
    "ftl.gc_pages_migrated": "count",
    "sim.engine.run.s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.checkpoint.compute.s": "s",
    "sim.checkpoint.restore.s": "s",
    "sim.checkpoint.hit_ratio": "ratio",
    "sim.early_stop.simulated_ratio": "ratio",
    "controller.pipeline.self_s": "s",
    "ssd.device_build.s": "s",
    "metrics.record_request.calls": "count",
    "metrics.record_request.s": "s",
    "metrics.finalize.s": "s",
    "workloads.trace_build.s": "s",
    "experiments.store.get.s": "s",
    "experiments.store.put.s": "s",
    "experiments.store.hit_ratio": "ratio",
    "experiments.executor.self_s": "s",
    "service.submit.s": "s",
    "service.poll.calls": "count",
    "service.jobstore.calls": "count",
    "service.jobstore.s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    **{
        f"self_s.{layer}": "s"
        for layer in (
            "repro.sim", "repro.venice", "repro.interconnect", "repro.controller", "repro.ftl", "repro.ssd",
            "repro.metrics", "repro.workloads", "repro.experiments", "repro.service", "unattributed",
        )
    },
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def host_fingerprint() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        nproc = os.cpu_count() or 0
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import, generate the inputs,
    boot the service for ``service-sweep``, then report the monotonic time
    at which the first cell (or the first request) could start."""
    import workloads

    workloads.prepare(workload, seed)
    if workload != "service-sweep":
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        return 0
    state_dir = OUT_DIR / f"probe-{os.getpid()}"
    service, thread, client = workloads.boot_service(state_dir)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    workloads.stop_service(service, thread, client)
    shutil.rmtree(state_dir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> List[float]:
    """Process start until the workload could start, in fresh processes."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        began = time.monotonic()
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=SETUP_PROBE_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["ready"] - began)
    return samples


def end_to_end(passes, setup: List[float]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Medians over passes and over repeated units (cells or jobs)."""
    import workloads

    unit_samples: Dict[str, List[float]] = {}
    for _, outcome in passes:
        for unit, seconds in outcome.unit_s.items():
            unit_samples.setdefault(unit, []).append(seconds)
    per_unit = [statistics.median(samples) for samples in unit_samples.values()]
    percentile, tail_value = workloads.tail(per_unit)
    attempted = sum(outcome.attempted for _, outcome in passes)
    failed = sum(len(outcome.failures) for _, outcome in passes)
    first = {inputs.trace_seed: (inputs, outcome.results) for inputs, outcome in reversed(passes)}
    metrics = {
        "wall_s": statistics.median(outcome.wall_s for _, outcome in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": 1.0 - failed / attempted,
        "job_s.p50": statistics.median(per_unit),
        "job_s.tail": tail_value,
        **workloads.sim_metrics(list(first.values())),
    }
    details = {
        "pass_wall_s": [outcome.wall_s for _, outcome in passes],
        "setup_samples_s": setup,
        "job_s.tail": {"percentile": percentile, "samples": len(per_unit)},
    }
    return metrics, details


def per_layer(tracer, reference, traced) -> Dict[str, float]:
    from tracer import LAYER_OF

    calls, inclusive, self_time = tracer.aggregate()
    counts = tracer.counts()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def extra_sum(key: str) -> float:
        return sum(result.extra.get(key, 0.0) for result in traced.results.values())

    metrics = {
        "venice.try_reserve.calls": calls["venice.try_reserve"],
        "venice.try_reserve.s": inclusive["venice.try_reserve"],
        "venice.transfer.s": inclusive["venice.transfer"],
        "venice.scout_success_ratio": ratio(counts["venice.scout_success"], calls["venice.try_reserve"]),
        "interconnect.transfer.s": inclusive["interconnect.transfer"],
        "interconnect.conflict_ratio": ratio(counts["interconnect.conflicted"], counts["interconnect.transfers"]),
    }
    for name in ("translate_read", "translate_write", "allocate_multi_plane", "gc_maybe_trigger"):
        metrics[f"ftl.{name}.calls"] = calls[f"ftl.{name}"]
        metrics[f"ftl.{name}.s"] = inclusive[f"ftl.{name}"]
    engine_s = inclusive["sim.engine.run"]
    metrics.update({
        "ftl.precondition.s": inclusive["ftl.precondition"],
        "ftl.write_stalls": extra_sum("gc_write_stalls"),
        "ftl.gc_pages_migrated": extra_sum("gc_pages_migrated"),
        "sim.engine.run.s": engine_s,
        "sim.events": counts["sim.events"],
        "sim.events_per_s": ratio(counts["sim.events"], engine_s),
        "sim.checkpoint.compute.s": inclusive["sim.checkpoint.compute"],
        "sim.checkpoint.restore.s": inclusive["sim.checkpoint.restore"],
        "sim.checkpoint.hit_ratio": ratio(counts["checkpoint.restored"], counts["checkpoint.cells"]),
        "sim.early_stop.simulated_ratio": ratio(counts["early_stop.simulated"], counts["early_stop.requests"]),
        "controller.pipeline.self_s": self_time["controller.pipeline"],
        "ssd.device_build.s": inclusive["ssd.device_build"],
        "metrics.record_request.calls": calls["metrics.record_request"],
        "metrics.record_request.s": inclusive["metrics.record_request"],
        "metrics.finalize.s": inclusive["metrics.finalize"],
        "workloads.trace_build.s": inclusive["workloads.trace_build"],
        "experiments.store.get.s": inclusive["experiments.store.get"],
        "experiments.store.put.s": inclusive["experiments.store.put"],
        "experiments.store.hit_ratio": ratio(counts["store.hits"], counts["store.gets"]),
        "experiments.executor.self_s": self_time["experiments.executor"],
        "service.submit.s": inclusive["service.submit"],
        "service.poll.calls": traced.polls,
        "service.jobstore.calls": calls["service.jobstore"],
        "service.jobstore.s": inclusive["service.jobstore"],
        "service.queue_wait_s": sum(wait for wait, _ in traced.job_phases),
        "service.run_s": sum(run for _, run in traced.job_phases),
        "trace.overhead_frac": traced.wall_s / reference.wall_s - 1.0,
        "trace.spans": tracer.span_count(),
    })
    layers: Dict[str, float] = {layer: 0.0 for layer in sorted(set(LAYER_OF.values()))}
    for name, seconds in self_time.items():
        layers[LAYER_OF[name]] += seconds
    for layer, seconds in layers.items():
        metrics[f"self_s.{layer}"] = seconds
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Specs resolve these switches at construction; pin the default so the
    # run does not depend on the caller's environment.
    for variable in ("VENICE_TRACE_DIR", "VENICE_EXACT_STATS"):
        os.environ.pop(variable, None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"error: cannot import the simulator from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    report: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_fingerprint(),
    }
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    rounds = workloads.prepare(args.workload, args.seed)
    checks: List[Tuple[str, bool, str]] = []
    passes = []
    if args.trace == 0:
        start = time.perf_counter()
        while len(passes) < len(rounds) or time.perf_counter() - start < args.seconds:
            inputs = rounds[len(passes) % len(rounds)]
            passes.append((inputs, workloads.run_pass(inputs, out_dir=OUT_DIR)))
        metrics, details = end_to_end(passes, setup)
        report.update(details)
        units = E2E_UNITS
    else:
        from tracer import Tracer

        inputs = rounds[0]
        reference = workloads.run_pass(inputs, out_dir=OUT_DIR)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.run_pass(inputs, tracer, out_dir=OUT_DIR)
        finally:
            tracer.uninstall()
        passes = [(inputs, reference), (inputs, traced)]
        metrics = per_layer(tracer, reference, traced)
        span_file = OUT_DIR / f"spans-{args.workload}.bin"
        tracer.write(span_file)
        report.update({"pass_wall_s": [reference.wall_s, traced.wall_s],
                       "span_file": str(span_file.relative_to(ROOT))})
        units = PER_LAYER_UNITS
    digests: Dict[int, set] = {}
    for inputs, outcome in passes:
        digests.setdefault(inputs.trace_seed, set()).add(workloads.results_digest(outcome.results))
        checks.extend(outcome.checks)
    checks.append(("results digest identical across passes of one trace seed",
                   all(len(found) == 1 for found in digests.values()),
                   "traced vs untraced" if args.trace else f"{len(passes)} passes"))
    if args.workload == "service-sweep":
        checks.append(workloads.direct_check(passes[0][0], passes[0][1].results, OUT_DIR))
    if not any(outcome.failures for _, outcome in passes):
        sim = workloads.sim_metrics([(inputs, outcome.results) for inputs, outcome in passes])
        checks.append(("simulated metrics are finite and positive",
                       len(sim) == 4 and workloads.finite_positive(sim), ""))

    correct = all(ok for _, ok, _ in checks)
    report["results_digest"] = {seed: sorted(found) for seed, found in digests.items()}
    report["checks"] = [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in checks]
    report["failures"] = [failure for _, outcome in passes for failure in outcome.failures]
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome.attempted for _, outcome in passes),
        "failed": sum(len(outcome.failures) for _, outcome in passes),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
