"""The benchmark's three workloads, driven through the simulator's public API.

* ``fig-matrix`` -- the fig9a/10/13/14 performance-optimized matrix (six
  designs x ``DEFAULT_WORKLOADS``) at the ``figure`` command's default
  overload pressure (1.6), exact, cold and serial, one
  ``RunSpec.execute_instrumented`` call per cell.
* ``aged-matrix`` -- the same cells through the amortized recipe of
  ``venice-sim bench --speedup``: the ``SPEEDUP_SCALE`` sub-saturation
  scale, the ``SPEEDUP_WARMUP`` fill-and-age warm-up with one checkpoint
  per design shared through a fresh ``CheckpointStore``, and early stop.
  Not in ``BENCHMARK.json``: its warm-up fails on most seeds (see
  ``NOTES.md``), so it runs only by hand until that defect is fixed.
* ``service-sweep`` -- one client drives an in-process ``SimulationService``
  (one worker thread) over HTTP: cold sweep jobs, the same jobs again
  (served from the store) and overlapping jobs (partly cached).

Every input is generated here from the benchmark seed; the simulator only
receives the resulting specs or job payloads.  One benchmark seed expands
into :data:`TRACE_SEEDS` trace seeds, so a run averages the simulated
metrics over several trace instances instead of reporting one draw.  A
*pass* executes the workload once for one trace seed (one matrix, or one
service round on a fresh state directory); :func:`run_pass` returns its
timings and results.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.bench import SPEEDUP_EARLY_STOP, SPEEDUP_SCALE, SPEEDUP_WARMUP
from repro.experiments.executor import execute_specs
from repro.experiments.figures import DEFAULT_WORKLOADS, FIGURES
from repro.experiments.reporting import geometric_mean
from repro.experiments.spec import ExperimentScale, RunSpec
from repro.experiments.store import ResultStore
from repro.metrics.collector import RunResult
from repro.service.server import ServiceConfig, SimulationService
from repro.sim.checkpoint import CheckpointStore

WORKLOADS = ("fig-matrix", "aged-matrix", "service-sweep")

#: The four figures that share the performance-optimized matrix.
MATRIX_FIGURES = ("fig9a", "fig10", "fig13", "fig14")

#: Trace seeds per benchmark seed; a run makes at least one pass on each.
TRACE_SEEDS = 4

#: Half the ``figure`` command's default ``--requests 600``, so that four
#: trace seeds fit in one run; the rest of the scale is the command's default
#: (overload pressure 1.6).
FIGURE_REQUESTS = 300

#: Light Table 2 traces for the service jobs, so per-job time is dominated
#: by fixed per-cell and orchestration costs rather than by one heavy trace.
SERVICE_WORKLOADS = (
    "hm_0", "mds_0", "prxy_0", "rsrch_0", "usr_0", "wdev_0", "LUN3", "postgres",
)
SERVICE_REQUESTS = 100
SERVICE_COLD_DESIGNS = ("baseline", "venice")
SERVICE_OVERLAP_DESIGNS = ("pssd", "pnssd", "nossd", "ideal")
#: The client's poll interval while a job is queued or running.
POLL_INTERVAL_S = 0.01
HTTP_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0


@dataclass
class Inputs:
    """Everything one pass executes, generated from one trace seed."""

    workload: str
    trace_seed: int
    #: ``(figure spec, executed spec)`` per matrix cell; the executed spec
    #: carries the aged recipe's warm-up and early stop.
    cells: List[Tuple[RunSpec, RunSpec]] = field(default_factory=list)
    #: Figure name -> ``(specs, reducer)`` over figure specs.
    plans: Dict[str, tuple] = field(default_factory=dict)
    #: Service jobs: ``(phase, payload)`` in submission order.
    jobs: List[Tuple[str, dict]] = field(default_factory=list)
    #: Per-phase number of simulations the service must perform.
    expected_simulations: Dict[str, int] = field(default_factory=dict)


@dataclass
class PassOutcome:
    """Timings, results and check verdicts of one pass."""

    wall_s: float
    unit_s: Dict[str, float]
    results: Dict[RunSpec, RunResult]
    attempted: int
    failures: List[str]
    checks: List[Tuple[str, bool, str]]
    #: Service only: per-job ``(queue wait, run)`` seconds from job records.
    job_phases: List[Tuple[float, float]] = field(default_factory=list)
    polls: int = 0


def matrix_scale(workload: str, seed: int) -> ExperimentScale:
    if workload == "aged-matrix":
        return replace(SPEEDUP_SCALE, seed=seed)
    return ExperimentScale(
        requests=FIGURE_REQUESTS,
        requests_per_mix_constituent=max(50, FIGURE_REQUESTS // 3),
        seed=seed,
    )


def service_scale(seed: int) -> ExperimentScale:
    """The scale the service derives from a ``{"requests", "seed"}`` body."""
    return ExperimentScale(
        requests=SERVICE_REQUESTS,
        requests_per_mix_constituent=max(50, SERVICE_REQUESTS // 3),
        seed=seed,
    )


def prepare(workload: str, seed: int) -> List[Inputs]:
    """Generate a workload's inputs, one per trace seed, from the benchmark
    seed; distinct benchmark seeds give disjoint trace seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return [_prepare(workload, seed * TRACE_SEEDS + index) for index in range(TRACE_SEEDS)]


def _prepare(workload: str, seed: int) -> Inputs:
    inputs = Inputs(workload=workload, trace_seed=seed)
    if workload == "service-sweep":
        scale = service_scale(seed)
        for name in ("fig9a", "fig13"):
            inputs.plans[name] = FIGURES[name].plan(scale, SERVICE_WORKLOADS)
        base = {"kind": "sweep", "requests": SERVICE_REQUESTS, "seed": seed}
        cold = [
            ("cold", {**base, "designs": list(SERVICE_COLD_DESIGNS), "workloads": [name]})
            for name in SERVICE_WORKLOADS
        ]
        warm = [("warm", payload) for _, payload in cold]
        overlap = [
            ("overlap", {**base, "designs": ["venice", design], "workloads": [name]})
            for name in SERVICE_WORKLOADS
            for design in SERVICE_OVERLAP_DESIGNS
        ]
        inputs.jobs = cold + warm + overlap
        inputs.expected_simulations = {
            "cold": len(cold) * len(SERVICE_COLD_DESIGNS),
            "warm": 0,
            "overlap": len(overlap),
        }
        return inputs
    scale = matrix_scale(workload, seed)
    for name in MATRIX_FIGURES:
        inputs.plans[name] = FIGURES[name].plan(scale, DEFAULT_WORKLOADS)
    figure_specs = dict.fromkeys(
        spec for specs, _ in inputs.plans.values() for spec in specs
    )
    for spec in figure_specs:
        executed = spec
        if workload == "aged-matrix":
            executed = replace(spec, warmup=SPEEDUP_WARMUP, early_stop=SPEEDUP_EARLY_STOP)
        inputs.cells.append((spec, executed))
    return inputs


def run_pass(inputs: Inputs, tracer=None, out_dir: Optional[Path] = None) -> PassOutcome:
    if inputs.workload == "service-sweep":
        return _service_pass(inputs, tracer, out_dir)
    return _matrix_pass(inputs, tracer)


# --------------------------------------------------------------------------- #
# matrices
# --------------------------------------------------------------------------- #

def _matrix_pass(inputs: Inputs, tracer) -> PassOutcome:
    aged = inputs.workload == "aged-matrix"
    checkpoints = CheckpointStore() if aged else None
    results: Dict[RunSpec, RunResult] = {}
    unit_s: Dict[str, float] = {}
    failures: List[str] = []
    start = time.perf_counter()
    for index, (figure_spec, executed) in enumerate(inputs.cells):
        unit = f"{inputs.trace_seed}:cell:{index}"
        if tracer is not None:
            tracer.set_unit(unit)
        began = time.perf_counter()
        try:
            result, _ = executed.execute_instrumented(checkpoints)
        except Exception as error:  # noqa: BLE001 - a failed cell is counted, not fatal
            failures.append(f"{figure_spec.label()}: {error!r}")
        else:
            results[figure_spec] = result
        unit_s[unit] = time.perf_counter() - began
    wall = time.perf_counter() - start
    checks = [
        (
            "every cell completed its requests",
            all(r.requests_completed == s.scale.requests for s, r in results.items()),
            "requests_completed == scale.requests",
        ),
        (
            "every cell has a positive execution time and a conflict fraction in [0, 1]",
            all(
                r.execution_time_ns > 0 and 0.0 <= r.conflict_fraction <= 1.0
                for r in results.values()
            ),
            "",
        ),
    ]
    return PassOutcome(wall, unit_s, results, len(inputs.cells), failures, checks)


# --------------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------------- #

class _Client:
    """One persistent HTTP/1.1 connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
        self.polls = 0

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def simulations(self) -> int:
        _, health = self.request("GET", "/health")
        return int(health["session"]["simulations"])

    def run_job(self, payload: dict) -> Tuple[dict, dict, float]:
        """POST one job and poll it to a terminal state: ``(ack, record, s)``."""
        began = time.perf_counter()
        status, ack = self.request("POST", "/v1/runs", payload)
        if status not in (200, 201):
            raise RuntimeError(f"submission rejected ({status}): {ack}")
        while True:
            self.polls += 1
            _, record = self.request("GET", f"/v1/runs/{ack['job_id']}")
            if record["state"] in ("done", "failed"):
                return ack, record, time.perf_counter() - began
            if time.perf_counter() - began > JOB_TIMEOUT_S:
                raise RuntimeError(f"job {ack['job_id'][:12]} still {record['state']}")
            time.sleep(POLL_INTERVAL_S)

    def close(self) -> None:
        self.connection.close()


def boot_service(state_dir: Path) -> Tuple[SimulationService, threading.Thread, _Client]:
    """Start a one-worker service on an ephemeral port; return once
    ``/health`` answers."""
    service = SimulationService(ServiceConfig(state_dir=state_dir, port=0, jobs=1))
    service.start()
    thread = threading.Thread(target=service.serve_forever, name="perfbench-http", daemon=True)
    thread.start()
    client = _Client(service.host, service.port)
    status, health = client.request("GET", "/health")
    if status != 200 or health.get("status") != "ok":
        raise RuntimeError(f"service health check failed: {status} {health}")
    return service, thread, client


def stop_service(service: SimulationService, thread: threading.Thread, client: _Client) -> None:
    client.close()
    service.shutdown()
    thread.join(timeout=10.0)
    if thread.is_alive():
        raise RuntimeError("service HTTP thread did not stop")


def _service_pass(inputs: Inputs, tracer, out_dir: Optional[Path]) -> PassOutcome:
    state_dir = out_dir / f"service-{time.monotonic_ns()}"
    service, thread, client = boot_service(state_dir)
    unit_s: Dict[str, float] = {}
    failures: List[str] = []
    checks: List[Tuple[str, bool, str]] = []
    records: Dict[str, dict] = {}
    try:
        start = time.perf_counter()
        simulated = client.simulations()
        counters = {"cold": 0, "warm": 0, "overlap": 0}
        warm_served = True
        for index, (phase, payload) in enumerate(inputs.jobs):
            ack, record, seconds = client.run_job(payload)
            unit_s[f"{inputs.trace_seed}:{phase}:{index}"] = seconds
            if phase == "warm" and (ack["created"] or ack["state"] != "done"):
                warm_served = False
            if record["state"] != "done":
                failures.append(f"{phase} job {ack['job_id'][:12]}: {record.get('error')}")
            elif phase != "warm":
                records[ack["job_id"]] = record
            next_phase = inputs.jobs[index + 1][0] if index + 1 < len(inputs.jobs) else None
            if next_phase != phase:
                now = client.simulations()
                counters[phase] = now - simulated
                simulated = now
        wall = time.perf_counter() - start
        polls = client.polls
    finally:
        stop_service(service, thread, client)
        shutil.rmtree(state_dir, ignore_errors=True)
    checks.append(("a resubmitted job is answered as already done", warm_served, ""))
    for phase, expected in inputs.expected_simulations.items():
        checks.append(
            (
                f"{phase} jobs simulate exactly the uncached cells",
                counters[phase] == expected,
                f"{counters[phase]} simulated, {expected} expected",
            )
        )
    by_digest: Dict[str, RunResult] = {}
    consistent = True
    for record in records.values():
        for run in record["result"]["runs"]:
            result = RunResult.from_dict(run["result"])
            previous = by_digest.setdefault(run["digest"], result)
            consistent &= _canonical(previous) == _canonical(result)
    checks.append(("a cell shared by two jobs has one result", consistent, ""))
    plan_specs = _plan_specs(inputs)
    checks.append(
        (
            "the service simulated exactly the figure specs the benchmark generated",
            set(by_digest) == {spec.digest for spec in plan_specs},
            f"{len(by_digest)} service cells, {len(plan_specs)} figure cells",
        )
    )
    results = {spec: by_digest[spec.digest] for spec in plan_specs if spec.digest in by_digest}
    job_phases = [
        (record["started_at"] - record["submitted_at"], record["finished_at"] - record["started_at"])
        for record in records.values()
        if record["state"] == "done"
    ]
    return PassOutcome(
        wall, unit_s, results, len(inputs.jobs), failures, checks, job_phases, polls
    )


def direct_check(inputs: Inputs, results: Dict[RunSpec, RunResult], out_dir: Path) -> Tuple[str, bool, str]:
    """Service results must equal a direct ``execute_specs`` of the same specs."""
    store_dir = out_dir / f"direct-{time.monotonic_ns()}"
    try:
        direct = execute_specs(_plan_specs(inputs), store=ResultStore(store_dir))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    mismatched = [
        spec.label()
        for spec, result in direct.items()
        if spec not in results or _canonical(results[spec]) != _canonical(result)
    ]
    return (
        "service results equal direct execute_specs of the same specs",
        not mismatched,
        ", ".join(mismatched[:3]),
    )


def _plan_specs(inputs: Inputs) -> List[RunSpec]:
    return list(dict.fromkeys(spec for specs, _ in inputs.plans.values() for spec in specs))


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #

def _canonical(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def results_digest(results: Dict[RunSpec, RunResult]) -> str:
    """sha256 over every cell's canonical ``RunResult``, keyed by spec digest."""
    lines = sorted(f"{spec.digest} {_canonical(result)}" for spec, result in results.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def sim_metrics(passes: Sequence[Tuple[Inputs, Dict[RunSpec, RunResult]]]) -> Dict[str, float]:
    """The simulated-time metrics through the figures' own reducers, pooled
    over the trace seeds: Fig 9a speedups enter one geometric mean per
    design, Fig 13 conflict fractions one mean."""
    speedups: Dict[str, List[float]] = {}
    conflicts: List[float] = []
    for inputs, results in passes:
        fig9a_specs, fig9a = inputs.plans["fig9a"]
        fig13_specs, fig13 = inputs.plans["fig13"]
        if any(spec not in results for spec in (*fig9a_specs, *fig13_specs)):
            return {}
        for by_design in fig9a(results)["speedups"].values():
            for design, speedup in by_design.items():
                speedups.setdefault(design, []).append(speedup)
        conflicts.extend(
            by_design["venice"] for by_design in fig13(results)["conflict_fraction"].values()
        )
    gmean = {design: geometric_mean(values) for design, values in speedups.items()}
    best_prior = max(gmean["pssd"], gmean["pnssd"], gmean["nossd"])
    return {
        "sim.venice_speedup_gmean": gmean["venice"],
        "sim.venice_vs_best_prior": gmean["venice"] / best_prior,
        "sim.venice_conflict_pct": 100.0 * sum(conflicts) / len(conflicts),
        "sim.write_amplification": write_amplification(
            [result for _, results in passes for result in results.values()]
        ),
    }


def write_amplification(results: Sequence[RunResult]) -> float:
    """Flash pages written per host page, over every cell whose write
    machinery engaged; 1.0 when none did (no internal writes at all)."""
    host = 0.0
    flash = 0.0
    for result in results:
        pages = result.extra.get("host_pages_written")
        if pages:
            host += pages
            flash += pages * result.extra["write_amplification"]
    return flash / host if host else 1.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {len(ordered)}")
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def finite_positive(metrics: Dict[str, float]) -> bool:
    return all(math.isfinite(value) and value > 0 for value in metrics.values())
