"""One declaration per paper figure/table (see DESIGN.md §4 for the index).

Every figure is a :class:`FigureDef`: a *spec set* (the runs it needs, as
:class:`~repro.experiments.spec.RunSpec` values) plus a *pure reducer* that
turns the executed results into the plain-dict rows/series the paper's
figure plots.  Declaring figures this way buys two things:

* the spec sets of different figures overlap (fig9a/10/13/14 all draw from
  the same performance-optimized six-design matrix), and the executor/store
  layer deduplicates them, so ``run_all_figures`` simulates each distinct
  run exactly once, in parallel if asked;
* reducers never simulate, so cached results can be re-reduced for free.

:func:`run_figure` and :func:`run_all_figures` are the only ways to run a
figure; the CLI, the tests and the benchmarks all go through them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_specs
from repro.experiments.reporting import geometric_mean
from repro.experiments.spec import (
    ALL_DESIGNS,
    SPEC_CLAUSES,
    TRACE_WORKLOAD_PREFIX,
    ExperimentScale,
    RunSpec,
    build_config,
    matrix_specs,
)
from repro.metrics.collector import RunResult
from repro.power.area import venice_area_report
from repro.power.models import PowerModel
from repro.workloads.catalog import workload_names
from repro.workloads.formats import trace_stem
from repro.workloads.mixes import mix_names

# A representative cross-section of Table 2 used when a caller does not ask
# for all nineteen traces (benchmark scale): covers read-heavy, write-heavy,
# large-request, zipfian, and low-intensity behaviour.
DEFAULT_WORKLOADS = ("hm_0", "proj_3", "prxy_0", "src2_1", "YCSB_B", "ssd-10")

# Figure 11 plots tail-latency CDFs for these two traces specifically.
FIG11_WORKLOADS = ("src1_0", "hm_0")

FIG15_GEOMETRIES = ((4, 16), (8, 8), (16, 4))

FigureMatrix = Dict[str, Dict[str, RunResult]]
SpecResults = Mapping[RunSpec, RunResult]
Reducer = Callable[[SpecResults], Dict[str, object]]
Plan = Tuple[Tuple[RunSpec, ...], Reducer]

_MOTIVATION_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
    DesignKind.IDEAL,
)
_CONFLICT_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
    DesignKind.VENICE,
)
_SENSITIVITY_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.NOSSD,  # pnSSD omitted: requires a square array (§6.5)
    DesignKind.VENICE,
    DesignKind.IDEAL,
)


def _matrix_of(specs: Sequence[RunSpec], results: SpecResults) -> FigureMatrix:
    """Regroup executed spec results into {workload: {design: result}}."""
    matrix: FigureMatrix = {}
    for spec in specs:
        matrix.setdefault(spec.workload, {})[spec.design] = results[spec]
    return matrix


def _speedups(matrix: FigureMatrix) -> Dict[str, Dict[str, float]]:
    """Per-workload speedup of each design over the baseline run."""
    out: Dict[str, Dict[str, float]] = {}
    for workload, results in matrix.items():
        baseline = results[DesignKind.BASELINE.value]
        out[workload] = {
            design: result.speedup_over(baseline)
            for design, result in results.items()
            if design != DesignKind.BASELINE.value
        }
    return out


def _gmeans(per_workload: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    designs = {design for values in per_workload.values() for design in values}
    return {
        design: geometric_mean(
            [values[design] for values in per_workload.values() if design in values]
        )
        for design in sorted(designs)
    }


def _averages(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    designs = {design for values in table.values() for design in values}
    return {
        design: sum(values[design] for values in table.values() if design in values)
        / sum(1 for values in table.values() if design in values)
        for design in sorted(designs)
    }


# --------------------------------------------------------------------- #
# Figure 4: motivation -- prior approaches vs the ideal SSD (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig4(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, _MOTIVATION_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        speedups = _speedups(_matrix_of(specs, results))
        return {
            "figure": "fig4",
            "speedups": speedups,
            "gmean": _gmeans(speedups),
            "workloads": list(workloads),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 9: Venice speedup on both configurations
# --------------------------------------------------------------------- #

def _plan_fig9(
    preset: str, scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(preset, workloads, scale, ALL_DESIGNS)

    def reduce(results: SpecResults) -> Dict[str, object]:
        speedups = _speedups(_matrix_of(specs, results))
        return {
            "figure": "fig9a" if preset.startswith("perf") else "fig9b",
            "preset": preset,
            "speedups": speedups,
            "gmean": _gmeans(speedups),
            "workloads": list(workloads),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 10: throughput normalized to the path-conflict-free SSD
# --------------------------------------------------------------------- #

def _plan_fig10(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs("performance-optimized", workloads, scale, ALL_DESIGNS)

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        normalized: Dict[str, Dict[str, float]] = {}
        for workload, by_design in matrix.items():
            ideal = by_design[DesignKind.IDEAL.value]
            normalized[workload] = {
                design: result.throughput_normalized_to(ideal)
                for design, result in by_design.items()
                if design != DesignKind.IDEAL.value
            }
        return {
            "figure": "fig10",
            "preset": "performance-optimized",
            "normalized_throughput": normalized,
            "average": _averages(normalized),
            "workloads": list(workloads),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 11: tail latency CDFs for src1_0 and hm_0 (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig11(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or FIG11_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, ALL_DESIGNS, with_cdf=True
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        tails: Dict[str, Dict[str, float]] = {}
        cdfs: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
        for workload, by_design in matrix.items():
            tails[workload] = {
                design: result.p99_latency_ns
                for design, result in by_design.items()
            }
            cdfs[workload] = {
                design: result.tail_cdf for design, result in by_design.items()
            }
        reductions: Dict[str, Dict[str, float]] = {}
        for workload, values in tails.items():
            baseline_tail = values[DesignKind.BASELINE.value]
            reductions[workload] = {
                design: 1.0 - tail / baseline_tail
                for design, tail in values.items()
                if design != DesignKind.BASELINE.value
            }
        return {
            "figure": "fig11",
            "p99_ns": tails,
            "tail_cdfs": cdfs,
            "reduction_vs_baseline": reductions,
            "workloads": list(workloads),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 12: mixed workloads (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig12(
    scale: ExperimentScale, mixes: Optional[Sequence[str]]
) -> Plan:
    mixes = tuple(mixes) if mixes is not None else tuple(mix_names())
    # Table 3 names synthesise the published mix; `trace:<path>` entries
    # replay a recorded multi-tenant stream directly (the file already
    # interleaves its tenants).  Mixes keep their rows ahead of the traces.
    trace_entries = tuple(
        name for name in mixes if name.startswith(TRACE_WORKLOAD_PREFIX)
    )
    mix_entries = tuple(
        name for name in mixes if not name.startswith(TRACE_WORKLOAD_PREFIX)
    )
    specs = matrix_specs(
        "performance-optimized", mix_entries + trace_entries, scale, ALL_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        speedups = _speedups(_matrix_of(specs, results))
        return {
            "figure": "fig12",
            "speedups": speedups,
            "gmean": _gmeans(speedups),
            "mixes": list(mixes),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 13: % of I/O requests experiencing path conflicts (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig13(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, _CONFLICT_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        conflicts: Dict[str, Dict[str, float]] = {
            workload: {
                design: result.conflict_fraction
                for design, result in by_design.items()
            }
            for workload, by_design in matrix.items()
        }
        average = {}
        for design in [kind.value for kind in _CONFLICT_DESIGNS]:
            series = [
                values[design] for values in conflicts.values() if design in values
            ]
            average[design] = sum(series) / len(series) if series else 0.0
        return {
            "figure": "fig13",
            "conflict_fraction": conflicts,
            "average": average,
            "workloads": list(workloads),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 14: power and energy normalized to Baseline SSD (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig14(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, _CONFLICT_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        power: Dict[str, Dict[str, float]] = {}
        energy: Dict[str, Dict[str, float]] = {}
        for workload, by_design in matrix.items():
            baseline = by_design[DesignKind.BASELINE.value]
            power[workload] = {
                design: result.average_power_mw / baseline.average_power_mw
                for design, result in by_design.items()
                if design != DesignKind.BASELINE.value
            }
            energy[workload] = {
                design: result.energy_mj / baseline.energy_mj
                for design, result in by_design.items()
                if design != DesignKind.BASELINE.value
            }
        return {
            "figure": "fig14",
            "normalized_power": power,
            "normalized_energy": energy,
            "average_power": _averages(power),
            "average_energy": _averages(energy),
            "workloads": list(workloads),
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Figure 15: sensitivity to the flash-controller count (4x16 / 8x8 / 16x4)
# --------------------------------------------------------------------- #

def _plan_fig15(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    per_geometry_specs = {
        geometry: matrix_specs(
            "performance-optimized",
            workloads,
            scale,
            _SENSITIVITY_DESIGNS,
            geometry=geometry,
        )
        for geometry in FIG15_GEOMETRIES
    }
    specs = tuple(
        spec for group in per_geometry_specs.values() for spec in group
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        per_geometry: Dict[str, Dict[str, float]] = {}
        for (channels, chips), geometry_specs in per_geometry_specs.items():
            speedups = _speedups(_matrix_of(geometry_specs, results))
            per_geometry[f"{channels}x{chips}"] = _gmeans(speedups)
        return {
            "figure": "fig15",
            "gmean_speedups": per_geometry,
            "workloads": list(workloads),
            "geometries": [f"{c}x{w}" for c, w in FIG15_GEOMETRIES],
        }

    return specs, reduce


# --------------------------------------------------------------------- #
# Table 4: power and area overheads (analytic)
# --------------------------------------------------------------------- #

def _plan_table4(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    power_model = PowerModel()

    def reduce(results: SpecResults) -> Dict[str, object]:
        config = build_config("performance-optimized", scale)
        area = venice_area_report(config)
        return {
            "table": "table4",
            "router_power_mw": power_model.router_active_mw,
            "link_power_mw_4kb_transfer": power_model.link_active_mw,
            "channel_power_mw": power_model.channel_active_mw,
            "link_vs_channel_power_saving": 1.0
            - power_model.link_active_mw / power_model.channel_active_mw,
            **area,
        }

    return (), reduce


# --------------------------------------------------------------------- #
# The figure registry: what the CLI and the matrix pass dispatch on
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FigureDef:
    """A paper figure, declared: which runs it needs and how to reduce them.

    ``workload_kind`` states what the ``--workloads`` flag means for this
    figure: ``"traces"`` (Table 2 trace names), ``"mixes"`` (Table 3 mix
    names), or ``"none"`` (analytic, no workloads at all).  Each plan
    function supplies its own default set when given ``None``.
    """

    name: str
    workload_kind: str
    plan: Callable[[ExperimentScale, Optional[Sequence[str]]], Plan]


FIGURES: Dict[str, FigureDef] = {
    "fig4": FigureDef("fig4", "traces", _plan_fig4),
    "fig9a": FigureDef(
        "fig9a",
        "traces",
        lambda scale, workloads: _plan_fig9(
            "performance-optimized", scale, workloads
        ),
    ),
    "fig9b": FigureDef(
        "fig9b",
        "traces",
        lambda scale, workloads: _plan_fig9("cost-optimized", scale, workloads),
    ),
    "fig10": FigureDef("fig10", "traces", _plan_fig10),
    "fig11": FigureDef("fig11", "traces", _plan_fig11),
    "fig12": FigureDef("fig12", "mixes", _plan_fig12),
    "fig13": FigureDef("fig13", "traces", _plan_fig13),
    "fig14": FigureDef("fig14", "traces", _plan_fig14),
    "fig15": FigureDef("fig15", "traces", _plan_fig15),
    "table4": FigureDef("table4", "none", _plan_table4),
}

FIGURE_NAMES: Tuple[str, ...] = tuple(FIGURES)


def validate_figure_workloads(
    name: str, workloads: Optional[Sequence[str]]
) -> Optional[List[str]]:
    """Check a ``--workloads`` request against what the figure accepts.

    Raises :class:`ConfigurationError` with an actionable message when the
    flag does not apply (table4) or names are of the wrong kind (fig12 takes
    mix names, the trace figures take Table 2 trace names).
    """
    definition = FIGURES[name]
    if workloads is None:
        return None
    if definition.workload_kind == "none":
        raise ConfigurationError(
            f"{name} is analytic and does not take --workloads"
        )
    if len(workloads) == 0:
        raise ConfigurationError(
            f"--workloads for {name} needs at least one name "
            "(omit the flag to use the default set)"
        )
    if definition.workload_kind == "mixes":
        valid, kind = set(mix_names()), "mix"
    else:
        valid, kind = set(workload_names()), "workload"
    unknown = [
        workload
        for workload in workloads
        # `trace:<path>` names replay real files; the spec layer validates
        # the file itself (existence, format, digest) eagerly.
        if workload not in valid and not workload.startswith(TRACE_WORKLOAD_PREFIX)
    ]
    if unknown:
        raise ConfigurationError(
            f"{name} takes {kind} names; unknown: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(valid))})"
        )
    # Trace files become workload rows named by their stem; two *different*
    # files sharing a stem would silently overwrite each other in the
    # figure's {workload: {design: result}} matrix.
    stems: Dict[str, Path] = {}
    for workload in workloads:
        if not workload.startswith(TRACE_WORKLOAD_PREFIX):
            continue
        path = Path(workload[len(TRACE_WORKLOAD_PREFIX):]).expanduser()
        stem = trace_stem(path)
        resolved = path.resolve()
        previous = stems.setdefault(stem, resolved)
        if previous != resolved:
            raise ConfigurationError(
                f"trace files {previous} and {resolved} both reduce to "
                f"workload name {stem!r}; rename one so {name}'s rows stay "
                "distinct"
            )
    return list(workloads)


def _execute_plans(
    plans: Mapping[str, Plan],
    executor,
    store,
    clauses: Mapping[str, Optional[str]],
) -> Dict[str, Dict[str, object]]:
    """Execute the union of ``plans``' spec sets once and reduce each plan.

    Each non-empty spec clause in ``clauses`` twins every cell with that
    field set, so the modified figure (degraded fabric, warmed-up devices,
    early-stopped measured phases) lives under distinct digests beside the
    exact one.  Reducers close over the plans' original spec objects, so
    results are keyed back by the originals.
    """
    # Canonicalised up front so a bad clause fails even on an empty plan.
    overrides = {
        name: SPEC_CLAUSES[name](value) for name, value in clauses.items() if value
    }
    specs = [spec for plan_specs, _ in plans.values() for spec in plan_specs]
    twins = {spec: replace(spec, **overrides) for spec in dict.fromkeys(specs)}
    results = execute_specs(list(twins.values()), executor=executor, store=store)
    shared = {original: results[twin] for original, twin in twins.items()}
    return {name: reduce(shared) for name, (_, reduce) in plans.items()}


def run_figure(
    name: str,
    scale: ExperimentScale = ExperimentScale(),
    workloads: Optional[Sequence[str]] = None,
    *,
    executor=None,
    store=None,
    faults: Optional[str] = None,
    warmup: Optional[str] = None,
    early_stop: Optional[str] = None,
) -> Dict[str, object]:
    """Execute one figure's spec set (cache-aware) and reduce it.

    ``faults`` applies one fault schedule (grammar string, see
    docs/faults.md) to every run of the figure, regenerating the figure on
    a degraded fabric; the faulted specs are distinct cache entries, so
    pristine and degraded figures coexist in one store.  ``warmup`` and
    ``early_stop`` (docs/performance.md) likewise twin every cell with a
    checkpointed warm-up phase and a steady-state early-stop policy --
    cells of one design share a single warm-up through the checkpoint
    store that ``execute_specs`` wires up automatically.
    """
    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; expected one of {', '.join(FIGURES)}"
        )
    clauses = {"faults": faults, "warmup": warmup, "early_stop": early_stop}
    plans = {name: FIGURES[name].plan(scale, workloads)}
    return _execute_plans(plans, executor, store, clauses)[name]


def run_all_figures(
    scale: ExperimentScale = ExperimentScale(),
    *,
    workloads: Optional[Sequence[str]] = None,
    mixes: Optional[Sequence[str]] = None,
    figures: Optional[Sequence[str]] = None,
    executor=None,
    store=None,
    faults: Optional[str] = None,
    warmup: Optional[str] = None,
    early_stop: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """Regenerate every figure from one deduplicated, shared spec pass.

    All figures' spec sets are unioned and executed together -- through the
    parallel executor when one is supplied -- then each figure is reduced
    from the shared results.  ``workloads`` overrides the Table 2 trace set
    of the trace figures; ``mixes`` overrides fig12's mix list.  The
    ``faults`` / ``warmup`` / ``early_stop`` overrides apply to every cell
    of every selected figure, exactly as in :func:`run_figure`.
    """
    names = tuple(figures) if figures is not None else FIGURE_NAMES
    plans: Dict[str, Plan] = {}
    for name in names:
        if name not in FIGURES:
            raise ConfigurationError(
                f"unknown figure {name!r}; expected one of {', '.join(FIGURES)}"
            )
        definition = FIGURES[name]
        if definition.workload_kind == "mixes":
            chosen = mixes
        elif definition.workload_kind == "traces":
            chosen = workloads
        else:
            chosen = None
        validate_figure_workloads(name, chosen)
        plans[name] = definition.plan(scale, chosen)
    clauses = {"faults": faults, "warmup": warmup, "early_stop": early_stop}
    return _execute_plans(plans, executor, store, clauses)
