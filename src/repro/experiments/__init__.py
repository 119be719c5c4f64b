"""Experiment harness: declarative run specs, executors, and figures.

The orchestration stack, bottom-up:

* :mod:`repro.experiments.spec` -- :class:`RunSpec`, the canonical hashable
  description of one simulation run, plus config/trace materialization;
* :mod:`repro.experiments.executor` -- :class:`Executor`, which runs spec
  sets in-process or over worker processes (rebuilding everything inside
  each worker), and :func:`execute_specs`, the cached, deduplicating
  entry point;
* :mod:`repro.experiments.store` -- the content-addressed JSON result store
  keyed by spec digest (flat / sharded / SQLite layouts), so repeated
  invocations reuse prior runs;
* :mod:`repro.experiments.queue` / :mod:`repro.experiments.worker` -- the
  crash-safe filesystem work queue and its worker / executor front ends,
  for sweeps shared by several processes or hosts;
* :mod:`repro.experiments.figures` -- one declaration per paper figure:
  a spec set plus a pure reducer over the shared cached results.

A figure runs only through :func:`run_figure` / :func:`run_all_figures`
over the :data:`FIGURES` registry; any other run is a :class:`RunSpec`
executed by :func:`execute_specs`.  Both return plain data structures
(dicts / dataclasses) that the reporting helpers render as text tables; the
benchmark suite calls the same functions at reduced scale.
"""

from repro.experiments.executor import Executor, execute_specs
from repro.experiments.figures import (
    FIGURE_NAMES,
    FIGURES,
    run_all_figures,
    run_figure,
    validate_figure_workloads,
)
from repro.experiments.motivation import (
    service_timeline_example,
    TimelineExample,
)
from repro.experiments.reporting import format_table, geometric_mean
from repro.experiments.queue import Task, WorkQueue, default_owner_id
from repro.experiments.spec import (
    ExperimentScale,
    RunSpec,
    build_config,
    make_spec,
    matrix_specs,
)
from repro.experiments.store import BACKEND_NAMES, ResultStore, StoreBackend
from repro.experiments.worker import QueueExecutor, QueueWorker

__all__ = [
    "BACKEND_NAMES",
    "Executor",
    "ExperimentScale",
    "FIGURE_NAMES",
    "FIGURES",
    "QueueExecutor",
    "QueueWorker",
    "ResultStore",
    "RunSpec",
    "StoreBackend",
    "Task",
    "TimelineExample",
    "WorkQueue",
    "build_config",
    "default_owner_id",
    "execute_specs",
    "format_table",
    "geometric_mean",
    "make_spec",
    "matrix_specs",
    "run_all_figures",
    "run_figure",
    "service_timeline_example",
    "validate_figure_workloads",
]
