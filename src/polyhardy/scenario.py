"""Scenario files: a single JSON document describing slots and analyses.

Complex numbers are two-element ``[re, im]`` arrays.  Slot and pair indices
are 0-based.  Parse errors name the offending field path (and the line for
malformed JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .defaults import AMBIENT_DIM_BUDGET, MATRIX_CAP, UNIMODULAR_TOL, ZERO_MODULUS_BOUND
from .disc import BlaschkeProduct
from .errors import ContractError, ScenarioError, SizingError
from .lattice import FullHardy, Inner, PolydiscScenario, default_degrees, make_scenario

SCHEMA_VERSION = 1
ANALYSES = ("project", "commutator", "essnorm", "blh", "rigidity", "c0", "decay")

__all__ = [
    "ANALYSES",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "SlotSpec",
    "build_scenario",
    "parse_scenario_dict",
    "parse_scenario_file",
    "scenario_echo",
]


@dataclass(frozen=True)
class SlotSpec:
    kind: str  # "blaschke" | "full"
    zeros: tuple[complex, ...] = ()
    constant: complex = 1.0
    degree: int | None = None  # per-slot truncation override


@dataclass(frozen=True)
class ScenarioSpec:
    n: int
    slots: tuple[SlotSpec, ...]
    analyses: tuple[str, ...] = ()
    pair: tuple[int, int] | None = None
    second: "ScenarioSpec | None" = None
    schema_version: int = SCHEMA_VERSION


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _complex_from(value, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise _fail(path, f"expected a two-element [re, im] array, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _parse_slot(raw, path: str) -> SlotSpec:
    if not isinstance(raw, dict):
        raise _fail(path, "expected an object")
    kind = raw.get("kind")
    if kind not in ("blaschke", "full"):
        raise _fail(f"{path}.kind", f"expected 'blaschke' or 'full', got {kind!r}")
    degree = raw.get("degree")
    if degree is not None and (not isinstance(degree, int) or degree < 1):
        raise _fail(f"{path}.degree", f"truncation override must be a positive integer, got {degree!r}")
    if kind == "full":
        for key in ("zeros", "constant"):
            if key in raw:
                raise _fail(f"{path}.{key}", "not allowed on a 'full' slot")
        return SlotSpec(kind="full", degree=degree)
    zeros_raw = raw.get("zeros", [])
    if not isinstance(zeros_raw, list):
        raise _fail(f"{path}.zeros", "expected a list of [re, im] pairs")
    zeros = []
    for k, z in enumerate(zeros_raw):
        val = _complex_from(z, f"{path}.zeros[{k}]")
        if abs(val) > ZERO_MODULUS_BOUND:
            raise _fail(
                f"{path}.zeros[{k}]",
                f"modulus {abs(val):.6f} exceeds the bound {ZERO_MODULUS_BOUND}",
            )
        zeros.append(val)
    constant = (
        _complex_from(raw["constant"], f"{path}.constant") if "constant" in raw else 1.0 + 0.0j
    )
    if abs(abs(constant) - 1.0) > UNIMODULAR_TOL:
        raise _fail(f"{path}.constant", f"expected a unimodular constant, |c| = {abs(constant)!r}")
    return SlotSpec(kind="blaschke", zeros=tuple(zeros), constant=constant, degree=degree)


def parse_scenario_dict(raw, path: str = "scenario", *, top_level: bool = True) -> ScenarioSpec:
    if not isinstance(raw, dict):
        raise _fail(path, "expected a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION if not top_level else None)
    if top_level:
        if version is None:
            raise _fail(f"{path}.schema_version", "missing")
        if version != SCHEMA_VERSION:
            raise _fail(
                f"{path}.schema_version", f"unrecognized version {version!r}, expected {SCHEMA_VERSION}"
            )
    n = raw.get("n")
    slots_raw = raw.get("slots")
    if not isinstance(slots_raw, list) or not slots_raw:
        raise _fail(f"{path}.slots", "expected a non-empty list of slot objects")
    if not isinstance(n, int):
        raise _fail(f"{path}.n", f"expected an integer, got {n!r}")
    if n != len(slots_raw):
        raise _fail(f"{path}.n", f"n = {n} does not match {len(slots_raw)} slots")
    if n < 2:
        raise _fail(f"{path}.n", "at least two variables are required")
    slots = tuple(_parse_slot(s, f"{path}.slots[{k}]") for k, s in enumerate(slots_raw))

    analyses: tuple[str, ...] = ()
    pair = None
    second = None
    if top_level:
        analyses_raw = raw.get("analyses", [])
        if not isinstance(analyses_raw, list) or not analyses_raw:
            raise _fail(f"{path}.analyses", "expected a non-empty list of analysis names")
        for k, a in enumerate(analyses_raw):
            if a not in ANALYSES:
                raise _fail(
                    f"{path}.analyses[{k}]",
                    f"unknown analysis {a!r}; choose from {', '.join(ANALYSES)}",
                )
        analyses = tuple(analyses_raw)
        if "pair" in raw:
            p = raw["pair"]
            if (
                not isinstance(p, list)
                or len(p) != 2
                or not all(isinstance(x, int) for x in p)
                or not 0 <= p[0] < p[1] < n
            ):
                raise _fail(f"{path}.pair", f"expected [i, j] with 0 <= i < j < {n}, got {p!r}")
            pair = (p[0], p[1])
        if "second_scenario" in raw:
            second = parse_scenario_dict(
                raw["second_scenario"], f"{path}.second_scenario", top_level=False
            )
            if second.n != n:
                raise _fail(
                    f"{path}.second_scenario.n",
                    f"second scenario has n = {second.n}, expected {n}",
                )
        if "rigidity" in analyses and second is None:
            raise _fail(f"{path}.analyses", "rigidity requires two scenarios")
    return ScenarioSpec(
        n=n, slots=slots, analyses=analyses, pair=pair, second=second, schema_version=SCHEMA_VERSION
    )


def parse_scenario_file(path: str | Path) -> ScenarioSpec:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario_dict(raw)


def _factors(spec: ScenarioSpec):
    factors = []
    for k, slot in enumerate(spec.slots):
        if slot.kind == "full":
            factors.append(FullHardy())
        else:
            try:
                factors.append(
                    Inner(BlaschkeProduct(slot.zeros, slot.constant))
                )
            except ContractError as exc:
                raise ScenarioError(f"scenario.slots[{k}]: {exc}") from exc
    return factors


def build_scenario(
    spec: ScenarioSpec,
    *,
    degrees: tuple[int, ...] | None = None,
    budget: int = AMBIENT_DIM_BUDGET,
    cap: int = MATRIX_CAP,
) -> PolydiscScenario:
    """Realize a parsed scenario, applying per-slot overrides over defaults."""
    factors = _factors(spec)
    if degrees is None:
        resolved = list(default_degrees(factors, budget=budget, cap=cap))
        for k, slot in enumerate(spec.slots):
            if slot.degree is not None:
                resolved[k] = slot.degree
    else:
        resolved = list(degrees)
    try:
        return make_scenario(factors, resolved, budget=budget, cap=cap)
    except (SizingError, ScenarioError) as exc:
        raise ScenarioError(f"scenario: {exc}") from exc


def scenario_echo(spec: ScenarioSpec, scenario: PolydiscScenario) -> dict:
    """Normalized scenario block for reports; re-parses to an equivalent spec."""
    slots = []
    for slot_spec, factor, degree in zip(spec.slots, scenario.factors, scenario.degrees):
        if isinstance(factor, FullHardy):
            slots.append({"kind": "full", "degree": degree})
        else:
            b = factor.product
            slots.append(
                {
                    "kind": "blaschke",
                    "zeros": [[z.real, z.imag] for z in b.zeros],
                    "constant": [b.constant.real, b.constant.imag],
                    "degree": degree,
                }
            )
    return {"schema_version": SCHEMA_VERSION, "n": scenario.n, "slots": slots}
