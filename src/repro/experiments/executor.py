"""The executor: run sets of :class:`RunSpec`\\ s in-process or in parallel.

The (design x preset x workload) matrix is embarrassingly parallel -- every
run builds a fresh single-use :class:`~repro.ssd.device.SsdDevice` -- so
:class:`Executor` with ``jobs > 1`` simply ships specs to worker
processes, each of which rebuilds the config and trace from the spec and
simulates.  Every mode produces bit-identical :class:`RunResult`\\ s for
the same specs because the simulation is fully seeded by the spec itself.

:func:`execute_specs` is the orchestration entry point figures, the CLI
and the service use: it deduplicates specs, satisfies what it can from an
optional :class:`~repro.experiments.store.ResultStore`, executes only the
misses, and records each fresh result in the store as soon as it
finishes -- an interrupted batch keeps every cell it completed.

Two robustness layers harden long sweeps:

* a per-spec wall-clock ``timeout`` runs each simulation in its own killable
  subprocess -- a hung cell is killed and reported instead of stalling the
  batch;
* a worker process dying inside the multiprocessing pool (OOM kill, host
  fault) no longer surfaces as an opaque ``BrokenProcessPool`` that loses
  the whole sweep: the unfinished specs are re-run in isolated single-spec
  subprocesses, which completes every healthy cell and names the digest of
  the spec that keeps killing its worker.

Both layers report failures as :class:`~repro.errors.SpecRunError` entries
inside one :class:`~repro.errors.ExecutionError`, raised only after every
other spec has finished (and, under :func:`execute_specs`, been persisted
to the store).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import sys
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, ExecutionError, SpecRunError
from repro.experiments.spec import RunSpec
from repro.metrics.collector import RunResult
from repro.sim.checkpoint import CheckpointStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.experiments.store import ResultStore
    from repro.experiments.worker import QueueExecutor

#: ``on_result(spec, result)``: called in the parent as each spec finishes.
OnResult = Callable[[RunSpec, RunResult], object]


def _discard(spec: RunSpec, result: RunResult) -> None:
    """The default ``on_result``: nothing to persist."""


def execute_spec(
    spec: RunSpec, checkpoints: Optional[CheckpointStore] = None
) -> RunResult:
    """Module-level worker entry point (picklable for multiprocessing)."""
    return spec.execute(checkpoints)


def _compute_checkpoint(spec: RunSpec) -> Tuple[str, dict]:
    """Worker entry point: one warm-up simulation -> (digest, snapshot)."""
    return spec.checkpoint_digest, spec.compute_checkpoint()[0]


def checkpoint_ref(checkpoints: Optional[CheckpointStore]) -> object:
    """A picklable reference that rebuilds a checkpoint store in a worker.

    The directory path for disk-backed stores (workers lazily read the
    pre-computed files), the preloaded state dict for memory-only stores,
    ``None`` for no store.
    """
    if checkpoints is None:
        return None
    if checkpoints.directory is not None:
        return str(checkpoints.directory)
    return dict(checkpoints._memory)


def _rebuild_checkpoints(ref: object) -> Optional[CheckpointStore]:
    if isinstance(ref, str):
        return CheckpointStore(ref)
    if isinstance(ref, dict):
        return CheckpointStore(preload=ref)
    return None


def _execute_packed(packed: Tuple[RunSpec, object]) -> RunResult:
    """Worker entry point for checkpointed parallel runs.

    ``packed`` is ``(spec, ref)`` where ``ref`` is a
    :func:`checkpoint_ref`.  The parent pre-computes every needed
    checkpoint before fan-out, so workers only ever *read* the store.
    """
    spec, ref = packed
    return execute_spec(spec, _rebuild_checkpoints(ref))


def _worker_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (cheap, inherits sys.path); spawn everywhere else.

    macOS lists fork as available but forking there is unsafe once system
    frameworks or threads have been touched, which is why CPython defaults
    it to spawn -- honour that.
    """
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else "spawn"
    )


def _subprocess_entry(conn, spec: RunSpec, ref: object) -> None:
    """Single-spec subprocess body: execute and ship the outcome back.

    Sends ``("ok", RunResult)`` or ``("error", traceback_text)`` over the
    pipe; a process that dies before sending anything (SIGKILL, segfault)
    is detected by the parent as a crash.
    """
    try:
        result = execute_spec(spec, _rebuild_checkpoints(ref))
        conn.send(("ok", result))
    except BaseException:  # noqa: BLE001 - ship *any* failure to the parent
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def execute_spec_isolated(
    spec: RunSpec,
    checkpoints: Optional[CheckpointStore] = None,
    timeout: Optional[float] = None,
) -> RunResult:
    """Execute one spec in its own killable subprocess.

    This is the unit the per-spec ``timeout`` machinery and the queue
    workers build on: a simulation that hangs past ``timeout`` seconds is
    SIGKILLed, and a subprocess that dies without reporting is diagnosed
    by exit code.  Raises :class:`~repro.errors.SpecRunError` with reason
    ``timeout`` / ``crash`` / ``exception``.
    """
    results, failures = _run_isolated(
        [spec], checkpoint_ref(checkpoints), 1, timeout, _discard
    )
    if failures:
        raise failures[0]
    return results[0]


def _run_isolated(
    specs: Sequence[RunSpec],
    ref: object,
    jobs: int,
    timeout: Optional[float],
    on_result: OnResult,
) -> Tuple[List[Optional[RunResult]], List[SpecRunError]]:
    """Run each spec in its own subprocess, at most ``jobs`` at a time.

    Unlike a shared process pool, one subprocess per spec means a crash or
    a kill is attributable to exactly one spec, and a hung spec can be
    killed without disturbing its siblings.  Returns results in spec order
    (``None`` for failed entries) plus the collected failures.
    """
    ctx = _worker_context()
    results: List[Optional[RunResult]] = [None] * len(specs)
    failures: List[SpecRunError] = []
    pending = deque(enumerate(specs))
    live: Dict[int, Tuple[object, object, Optional[float]]] = {}
    try:
        while pending or live:
            while pending and len(live) < jobs:
                index, spec = pending.popleft()
                parent, child = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_subprocess_entry,
                    args=(child, spec, ref),
                    daemon=True,
                )
                proc.start()
                child.close()
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                live[index] = (proc, parent, deadline)
            multiprocessing.connection.wait(
                [conn for _, conn, _ in live.values()], timeout=0.05
            )
            now = time.monotonic()
            for index in list(live):
                proc, conn, deadline = live[index]
                spec = specs[index]
                outcome = None
                if conn.poll():
                    try:
                        outcome = conn.recv()
                    except EOFError:
                        outcome = None  # died between connect and send
                if outcome is not None:
                    status, payload = outcome
                    if status == "ok":
                        results[index] = payload
                        on_result(spec, payload)
                    else:
                        failures.append(
                            SpecRunError(
                                spec.digest, spec.label(), "exception", payload
                            )
                        )
                elif not proc.is_alive():
                    failures.append(
                        SpecRunError(
                            spec.digest,
                            spec.label(),
                            "crash",
                            f"worker subprocess died with exit code "
                            f"{proc.exitcode} before reporting a result",
                        )
                    )
                elif deadline is not None and now > deadline:
                    proc.kill()
                    proc.join()
                    failures.append(
                        SpecRunError(
                            spec.digest,
                            spec.label(),
                            "timeout",
                            f"simulation exceeded the {timeout:g}s wall-clock "
                            "limit and was killed",
                        )
                    )
                else:
                    continue  # still running
                proc.join()
                conn.close()
                del live[index]
    finally:
        for proc, conn, _ in live.values():  # pragma: no cover - safety net
            proc.kill()
            proc.join()
            conn.close()
    return results, failures


class Executor:
    """Run spec batches in-process, over a process pool, or isolated.

    ``jobs=1`` runs specs one after another in the calling process;
    ``jobs>1`` fans them out over a process pool.  A worker process dying
    mid-spec (OOM kill, segfault) breaks the shared pool; instead of
    surfacing the opaque ``BrokenProcessPool``, the unfinished specs are
    retried in isolated single-spec subprocesses so every healthy spec
    still completes and the offending spec's digest is reported.  A
    ``timeout`` runs each spec in its own killable subprocess outright (a
    shared pool cannot kill one hung member), at most ``jobs`` at a time.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"--timeout must be > 0, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.runs_completed = 0

    def run_detailed(
        self,
        specs: Sequence[RunSpec],
        checkpoints: Optional[CheckpointStore] = None,
        on_result: Optional[OnResult] = None,
    ) -> Tuple[List[Optional[RunResult]], List[SpecRunError]]:
        """Run ``specs``; results in spec order (``None`` where failed).

        ``on_result(spec, result)`` is called in this process as each spec
        finishes, so a caller can persist progress before the batch ends.
        Per-spec timeouts and crashes are collected as failures instead of
        raised.
        """
        on_result = on_result or _discard
        workers = min(self.jobs, len(specs))
        failures: List[SpecRunError] = []
        if self.timeout is not None:
            results, failures = _run_isolated(
                specs, checkpoint_ref(checkpoints), workers, self.timeout,
                on_result,
            )
        elif workers <= 1:
            results = []
            for spec in specs:
                results.append(execute_spec(spec, checkpoints))
                on_result(spec, results[-1])
        else:
            ref = checkpoint_ref(checkpoints)
            results = _run_pool(specs, ref, workers, on_result)
            unfinished = [
                index for index, result in enumerate(results)
                if result is None
            ]
            if unfinished:
                # The pool broke.  Finish the stragglers one subprocess per
                # spec: every healthy spec completes, and the spec whose
                # execution kills its host process is precisely identified.
                retried, failures = _run_isolated(
                    [specs[index] for index in unfinished],
                    ref,
                    workers,
                    None,
                    on_result,
                )
                for index, result in zip(unfinished, retried):
                    results[index] = result
        self.runs_completed += sum(1 for r in results if r is not None)
        return results, failures


def _run_pool(
    specs: Sequence[RunSpec], ref: object, workers: int, on_result: OnResult
) -> List[Optional[RunResult]]:
    """One shared pool pass; ``None`` marks specs lost to pool breakage."""
    results: List[Optional[RunResult]] = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_worker_context()
    ) as pool:
        futures = {
            pool.submit(_execute_packed, (spec, ref)): index
            for index, spec in enumerate(specs)
        }
        for future in as_completed(futures):
            try:
                result = future.result()
            except BrokenProcessPool:
                # Left as ``None`` for the isolation pass to pick up.
                continue
            index = futures[future]
            results[index] = result
            on_result(specs[index], result)
    return results


def _prepare_checkpoints(
    specs: Sequence[RunSpec], checkpoints: CheckpointStore, jobs: int
) -> int:
    """Compute every missing warm-up checkpoint the specs need, in parent.

    Deduplicates by checkpoint digest (a whole matrix slice typically needs
    one checkpoint per design) and fans the warm-up simulations out over a
    process pool when ``jobs > 1``.  Returns the number of warm-up
    simulations performed; after this pre-pass, worker processes only ever
    read the store.
    """
    pending: Dict[str, RunSpec] = {}
    for spec in specs:
        digest = spec.checkpoint_digest
        if digest not in pending and digest not in checkpoints:
            pending[digest] = spec
    if not pending:
        return 0
    targets = list(pending.values())
    if jobs > 1 and len(targets) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(targets)), mp_context=_worker_context()
        ) as pool:
            for digest, state in pool.map(_compute_checkpoint, targets):
                checkpoints.put(digest, state)
    else:
        for spec in targets:
            digest, state = _compute_checkpoint(spec)
            checkpoints.put(digest, state)
    return len(targets)


def execute_specs(
    specs: Sequence[RunSpec],
    *,
    executor: Optional["Executor | QueueExecutor"] = None,
    store: Optional["ResultStore"] = None,
    checkpoints: Optional[CheckpointStore] = None,
) -> Dict[RunSpec, RunResult]:
    """Execute a spec set with deduplication and store-backed caching.

    Duplicate specs (figures sharing matrix slices) simulate once.  With a
    store, previously-computed results are served from cache and each new
    result is persisted the moment it finishes, so a repeat invocation
    performs zero simulations and an interrupted one keeps every cell it
    completed.

    Specs that declare a warm-up phase share device checkpoints through
    ``checkpoints``; when none is supplied one is created automatically --
    disk-backed under :attr:`ResultStore.checkpoint_dir` when a result
    store is in play (so warm-ups persist like results do), memory-only
    otherwise.  Missing checkpoints are computed in a deduplicated
    pre-pass before the executor fans out, so N matrix cells of one design
    cost one warm-up simulation, not N.

    Per-spec failures (a hung spec killed by the executor's ``timeout``, a
    spec that crashes its worker process) are collected, every *other* spec
    still executes and persists, and one
    :class:`~repro.errors.ExecutionError` naming the failed digests is
    raised at the end -- a single bad cell costs one cell, not the sweep.
    """
    executor = executor or Executor()
    unique = list(dict.fromkeys(specs))  # order-preserving dedup (hashable specs)
    results: Dict[RunSpec, RunResult] = {}
    missing: List[RunSpec] = []
    for spec in unique:
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            results[spec] = cached
        else:
            missing.append(spec)
    # Trace availability is validated before fan-out: a missing or changed
    # trace file fails the whole batch here, with one clear error, instead
    # of surfacing as a pickled exception from some worker process.  Cached
    # specs are exempt -- their identity already pins the trace content.
    for spec in missing:
        spec.verify_trace()
    needs_warmup = [spec for spec in missing if spec.warmup]
    if needs_warmup:
        if checkpoints is None:
            checkpoints = CheckpointStore(
                store.checkpoint_dir if store is not None else None
            )
        _prepare_checkpoints(needs_warmup, checkpoints, executor.jobs)
    run_results, failures = executor.run_detailed(
        missing, checkpoints, store.put if store is not None else None
    )
    for spec, result in zip(missing, run_results):
        if result is not None:  # failed specs: reported via ExecutionError
            results[spec] = result
    if failures:
        raise ExecutionError(failures)
    return results
