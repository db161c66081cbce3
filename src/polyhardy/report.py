"""Analysis orchestration and deterministic report emission.

A run executes the requested analyses in order and assembles one
ReportBundle.  The JSON serialization is byte-deterministic for identical
inputs: blocks are built in a fixed order, floats use their shortest
round-trip representation, and wall-clock timings go to a separate sidecar.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import blh as blh_mod
from . import commutator as comm_mod
from . import rigidity as rig_mod
from .defaults import (
    AMBIENT_DIM_BUDGET,
    C0_RESIDUAL_TOL,
    COMMUTING_TOL,
    DEFAULT_BOUNDARY_GRID,
    DEFAULT_DECAY_SCHEDULE,
    INNER_DEVIATION_TOL,
    NORM_LAW_TOL,
    PROJECTOR_TOL,
    RANGE_GAP_TOL,
    RANK_REL_TOL,
    SHIFT_INVARIANCE_TOL,
    SPAN_GAP_TOL,
    STRUCTURAL_AGREEMENT_TOL,
    disc_truncation,
)
from .disc import model_space
from .errors import AnalysisFailure, ScenarioError
from .lattice import (
    PolydiscScenario,
    inner_range_projections,
    projection_formula_residuals,
    shift_invariance_residual,
    submodule_projection,
    submodule_span_gap,
)
from .scenario import ScenarioSpec, build_scenario, scenario_echo

TOOL_NAME = "polyhardy"
PF_GENERIC_DIM = 512

__all__ = [
    "AnalysisBlock",
    "ReportBundle",
    "RunOptions",
    "decay_csv",
    "execute",
    "report_json",
    "summary_text",
]


@dataclass(frozen=True)
class RunOptions:
    grid: int = DEFAULT_BOUNDARY_GRID
    rank_tol: float = RANK_REL_TOL
    schedule: tuple[int, ...] = DEFAULT_DECAY_SCHEDULE
    budget: int = AMBIENT_DIM_BUDGET


@dataclass
class AnalysisBlock:
    analysis: str
    status: str  # "ok" | "failed"
    tolerances: dict
    results: dict
    failures: list[str] = field(default_factory=list)


@dataclass
class ReportBundle:
    version: str
    scenario: dict
    second_scenario: dict | None
    defaults: dict
    blocks: list[AnalysisBlock]
    decay_profiles: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # sidecar only, never in the report

    @property
    def failed_blocks(self) -> list[str]:
        return [b.analysis for b in self.blocks if b.status == "failed"]


def _version() -> str:
    from . import __version__

    return __version__


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _validate_requests(spec: ScenarioSpec, scenario: PolydiscScenario) -> None:
    if scenario.degenerate and ("blh" in spec.analyses or "c0" in spec.analyses):
        raise ScenarioError(
            "blh and c0 analyses need at least one Inner slot; the scenario is degenerate"
        )
    if "decay" in spec.analyses:
        if spec.pair is None and len(scenario.inner_slots) < 2:
            raise ScenarioError("decay analysis needs two Inner slots for the pair")


def _run_project(scenario: PolydiscScenario, options: RunOptions):
    handle = submodule_projection(scenario)
    tolerances = {
        "projection_formulas": COMMUTING_TOL,
        "shift_invariance": SHIFT_INVARIANCE_TOL,
        "span_gap": SPAN_GAP_TOL,
    }
    results: dict = {
        "ambient_dimension": handle.dimension,
        "quotient_dimension": handle.quotient_dimension,
        "degenerate": handle.degenerate,
        "inner_slots": list(scenario.inner_slots),
        "degrees": list(scenario.degrees),
    }
    failures: list[str] = []

    if handle.degenerate:
        results["projection_formulas"] = {"method": "skipped", "reason": "degenerate scenario"}
    elif handle.dimension <= PF_GENERIC_DIM:
        residuals = projection_formula_residuals(
            inner_range_projections(scenario, handle.slots)
        )
        results["projection_formulas"] = {"method": "generic", **residuals}
        worst = max(residuals.values())
        if worst > COMMUTING_TOL:
            failures.append(f"projection-sum formulas disagree by {worst:.3e} > {COMMUTING_TOL:g}")
    else:
        results["projection_formulas"] = {
            "method": "skipped",
            "reason": f"ambient dimension {handle.dimension} above the "
            f"generic-product bound {PF_GENERIC_DIM}",
        }

    residuals = [shift_invariance_residual(handle, k) for k in range(scenario.n)]
    results["shift_invariance_residuals"] = residuals
    worst = max(residuals) if residuals else 0.0
    if worst > SHIFT_INVARIANCE_TOL:
        failures.append(
            f"interior shift-invariance residual {worst:.3e} > {SHIFT_INVARIANCE_TOL:g}"
        )

    gap = submodule_span_gap(handle)
    results["span_gap"] = gap
    if gap > SPAN_GAP_TOL:
        failures.append(f"shifted-multiples span gap {gap:.3e} > {SPAN_GAP_TOL:g}")
    return results, tolerances, failures


def _run_commutator(scenario: PolydiscScenario, options: RunOptions, pair):
    pairs = [pair] if pair else [
        (i, j) for i in range(scenario.n) for j in range(i + 1, scenario.n)
    ]
    results: dict = {"pairs": []}
    failures: list[str] = []
    for report in comm_mod.commutator_reports(
        scenario, pairs, rank_tol=options.rank_tol, raise_on_failure=False
    ):
        i, j = report.pair
        results["pairs"].append(
            {
                "pair": [i, j],
                "operator_norm": report.operator_norm,
                "hs_norm": report.hs_norm,
                "numerical_rank": report.numerical_rank,
                "leading_singular_values": list(report.leading_singular_values),
                "structural_vs_oracle_error": report.structural_vs_oracle_error,
                "predicted_norm": report.predicted_norm,
                "closed_form_hs": report.closed_form_hs,
                "identity_factor_dimension": report.identity_factor_dimension,
                "agreement_degrees": list(report.agreement_degrees or ()),
                "precision_degrees": list(report.precision_degrees),
            }
        )
        failures.extend(f"pair ({i},{j}): {msg}" for msg in report.failures)
    tolerances = {
        "structural_agreement": STRUCTURAL_AGREEMENT_TOL,
        "norm_law": NORM_LAW_TOL,
        "rank_tol": options.rank_tol,
    }
    return results, tolerances, failures


def _run_essnorm(scenario: PolydiscScenario, options: RunOptions):
    report = comm_mod.essential_normality_check(submodule_projection(scenario))
    results = {
        "verdict": report.verdict,
        "quotient_dimension": report.quotient_dimension,
        "slots": [
            {
                "slot": e.slot,
                "kind": e.kind,
                "self_commutator_norm": e.norm,
                "rank": e.rank,
                "interior_rank": e.interior_rank,
                "factor_dimension": e.factor_dimension,
            }
            for e in report.slots
        ],
    }
    return results, {}, []


def _run_blh(scenario: PolydiscScenario, options: RunOptions):
    sym = blh_mod.build_blh_symbol(scenario)
    handle = submodule_projection(sym.scenario)
    residuals = blh_mod.pencil_residuals(sym)
    deviation = blh_mod.inner_deviation(sym, options.grid)
    gap = blh_mod.verify_range(sym, handle)
    wandering = blh_mod.wandering_subspace(handle, 0)
    results = {
        "permutation": list(sym.permutation),
        "coefficient_dimension": sym.coefficient_dimension,
        "pencil_residuals": residuals,
        "inner_deviation": deviation,
        "boundary_grid": options.grid,
        "range_gap": gap,
        "wandering_dimension": wandering.shape[1],
    }
    tolerances = {
        "pencil": PROJECTOR_TOL,
        "inner_deviation": INNER_DEVIATION_TOL,
        "range_gap": RANGE_GAP_TOL,
    }
    failures = []
    worst_pencil = max(residuals.values())
    if worst_pencil > PROJECTOR_TOL:
        failures.append(f"pencil residual {worst_pencil:.3e} > {PROJECTOR_TOL:g}")
    if deviation > INNER_DEVIATION_TOL:
        failures.append(f"boundary inner deviation {deviation:.3e} > {INNER_DEVIATION_TOL:g}")
    if gap > RANGE_GAP_TOL:
        failures.append(f"range gap {gap:.3e} > {RANGE_GAP_TOL:g}")
    # BLH: the wandering subspace is Theta applied to the coefficient space,
    # an exact integer identity
    if wandering.shape[1] != sym.coefficient_dimension:
        failures.append(
            f"wandering dimension {wandering.shape[1]} != coefficient dimension "
            f"{sym.coefficient_dimension}"
        )
    return results, tolerances, failures


def _run_c0(scenario: PolydiscScenario, options: RunOptions):
    # slot-level claim, so evaluate on high-precision model spaces rather
    # than the ambient truncation; a constant factor has an empty one
    entries = []
    failures = []
    for slot in scenario.inner_slots:
        product = scenario.factors[slot].product
        truncation = disc_truncation(product.degree) if product.degree else None
        shift = (
            model_space(product, truncation).compressed_shift if truncation else np.zeros((0, 0))
        )
        residual = comm_mod._c0_residual(product, shift)
        entries.append({"slot": slot, "residual": residual, "truncation": truncation})
        if residual > C0_RESIDUAL_TOL:
            failures.append(
                f"slot {slot}: annihilation residual {residual:.3e} > {C0_RESIDUAL_TOL:g}"
            )
    results = {"slots": entries}
    tolerances = {"residual": C0_RESIDUAL_TOL}
    return results, tolerances, failures


def _run_rigidity(scenario: PolydiscScenario, second: PolydiscScenario | None, options: RunOptions):
    if second is None:
        raise ScenarioError("rigidity requires two scenarios")
    h1 = submodule_projection(scenario)
    h2 = submodule_projection(second)
    equality = rig_mod.equality_test(h1, h2)
    verdict = rig_mod.equivalence_verdict(h1, h2, rank_tol=options.rank_tol)
    results = {
        "projection_distance": equality.distance,
        "equal": equality.equal,
        "verdict": verdict.verdict,
        "note": verdict.note,
        "certificate": verdict.certificate,
        "thresholds": verdict.thresholds,
    }
    tolerances = {"equal_projection": equality.tolerance}
    return results, tolerances, []


def _run_decay(scenario: PolydiscScenario, options: RunOptions, pair, profiles: list):
    if pair is None:
        inner = scenario.inner_slots
        pair = (inner[0], inner[1])
    profile = comm_mod.essential_dc_diagnostic(
        scenario, pair, options.schedule, rank_tol=options.rank_tol
    )
    results = {
        "pair": list(profile.pair),
        "schedule": list(profile.schedule),
        "verdict": profile.verdict,
        "predicted_norm": profile.predicted_norm,
        "ranks": list(profile.ranks),
        "plateau_fraction": profile.plateau_fraction,
        "leading_singular_values": [list(s[:6]) for s in profile.singular_values],
    }
    tolerances = {"rank_tol": profile.rank_tol, "plateau_fraction": profile.plateau_fraction}
    profiles.append(profile)
    return results, tolerances, []


def execute(spec: ScenarioSpec, options: RunOptions | None = None) -> ReportBundle:
    """Run all requested analyses in order and assemble the bundle."""
    options = options or RunOptions()
    scenario = build_scenario(spec, budget=options.budget)
    _validate_requests(spec, scenario)

    second_scenario = None
    second_echo = None
    if spec.second is not None:
        second_scenario = build_scenario(spec.second, degrees=scenario.degrees, budget=options.budget)
        second_echo = scenario_echo(spec.second, second_scenario)

    bundle = ReportBundle(
        version=_version(),
        scenario=scenario_echo(spec, scenario),
        second_scenario=second_echo,
        defaults={
            "grid": options.grid,
            "rank_tol": options.rank_tol,
            "schedule": list(options.schedule),
            "dimension_budget": options.budget,
        },
        blocks=[],
    )

    runners = {
        "project": lambda: _run_project(scenario, options),
        "commutator": lambda: _run_commutator(scenario, options, spec.pair),
        "essnorm": lambda: _run_essnorm(scenario, options),
        "blh": lambda: _run_blh(scenario, options),
        "c0": lambda: _run_c0(scenario, options),
        "rigidity": lambda: _run_rigidity(scenario, second_scenario, options),
        "decay": lambda: _run_decay(scenario, options, spec.pair, bundle.decay_profiles),
    }
    for analysis in spec.analyses:
        started = time.perf_counter()
        try:
            results, tolerances, failures = runners[analysis]()
        except AnalysisFailure as exc:
            results, tolerances, failures = {"error": str(exc)}, {}, [str(exc)]
        bundle.timings[analysis] = time.perf_counter() - started
        bundle.blocks.append(
            AnalysisBlock(
                analysis=analysis,
                status="failed" if failures else "ok",
                tolerances=_jsonable(tolerances),
                results=_jsonable(results),
                failures=list(failures),
            )
        )
    return bundle


def report_json(bundle: ReportBundle) -> str:
    """Deterministic JSON serialization (timings excluded)."""
    doc = {
        "tool": TOOL_NAME,
        "version": bundle.version,
        "scenario": bundle.scenario,
        "second_scenario": bundle.second_scenario,
        "defaults": bundle.defaults,
        "analyses": [
            {
                "analysis": b.analysis,
                "status": b.status,
                "tolerances": b.tolerances,
                "results": b.results,
                "failures": b.failures,
            }
            for b in bundle.blocks
        ],
        "status": "failed" if bundle.failed_blocks else "ok",
        "failed_blocks": bundle.failed_blocks,
    }
    return json.dumps(doc, indent=2) + "\n"


def timing_json(bundle: ReportBundle) -> str:
    doc = {
        "wall_clock_seconds": {k: v for k, v in bundle.timings.items()},
        "total_seconds": sum(bundle.timings.values()),
    }
    return json.dumps(doc, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6e")
    return str(value)


def summary_text(bundle: ReportBundle) -> str:
    """Aligned plain-text rendering of the report."""
    lines: list[str] = []
    lines.append(f"{TOOL_NAME} {bundle.version} report")
    slots = bundle.scenario["slots"]
    parts = []
    for k, s in enumerate(slots):
        kind = "full" if s["kind"] == "full" else f"blaschke deg {len(s['zeros'])}"
        parts.append(f"slot {k}: {kind} (N={s['degree']})")
    lines.append(f"scenario: n={bundle.scenario['n']}; " + ", ".join(parts))
    for block in bundle.blocks:
        lines.append("")
        lines.append(f"[{block.analysis}] status: {block.status}")
        for key, value in block.results.items():
            if isinstance(value, (int, float, str, bool)) or value is None:
                lines.append(f"  {key:<32} {_fmt(value)}")
        for key, value in block.tolerances.items():
            lines.append(f"  tol:{key:<28} {_fmt(value)}")
        for failure in block.failures:
            lines.append(f"  FAIL: {failure}")
    lines.append("")
    lines.append(f"overall: {'FAILED (' + ', '.join(bundle.failed_blocks) + ')' if bundle.failed_blocks else 'ok'}")
    return "\n".join(lines) + "\n"


def decay_csv(profile) -> str:
    """CSV rendering 'N,sigma_index,sigma_value', sorted by (N, index)."""
    lines = ["N,sigma_index,sigma_value"]
    for n, svals in zip(profile.schedule, profile.singular_values):
        for idx, value in enumerate(svals):
            lines.append(f"{n},{idx},{value!r}")
    return "\n".join(lines) + "\n"
