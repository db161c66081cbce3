"""Seeded scenario generators for the three benchmark workloads.

Each workload turns ``(name, seed)`` into a list of ``Case`` objects: a
scenario document the program reads from a file, the CLI flags it runs
with, and what the benchmark expects of its outputs.  The same seed always
gives the same cases; the shapes of the cases (number of variables, slot
kinds, Blaschke degrees, degree overrides) are fixed per workload and only
the zeros are drawn, so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

ALL_ANALYSES = ("project", "commutator", "essnorm", "blh", "rigidity", "c0", "decay")
SCHEDULE = "20,30,40"

WORKLOADS = {
    "ambient-n2": "n=2, both slots inner, all seven analyses at the default budget "
    "(ambient D=1024): the dense-ambient path through lattice, blh, rigidity and "
    "LAPACK eigh/svd",
    "compressed-n3": "n=3 [blaschke deg 2, full, blaschke deg 1] with pinned inner "
    "degrees: the high-precision compressed route (commutator, essnorm, c0, decay)",
    "sweep": "60 small scenarios, n in {2,3,4}, default degrees at --budget 256: "
    "many tiny calls through parse, sizing, slot realization and the boundary grid",
}

SWEEP_SIZE = 60
SHAPES = 12  # n cycles with period 3, slot kinds and degrees with period 4 and 3

# cases a worker runs once, untimed, before its first pass: one of each
# sweep shape; a whole pass of the one-scenario workloads would cost
# seconds of every run
WARM_UP = {"ambient-n2": 0, "compressed-n3": 0, "sweep": SHAPES}


@dataclass
class Case:
    """One scenario run: the input document, its flags and the expectations."""

    name: str
    doc: dict
    flags: tuple[str, ...]
    # exit codes the case may end with; any other code is a wrong outcome
    exits: frozenset[int]
    # analysis -> verdict it must report when its block is ok
    verdicts: dict[str, str] = field(default_factory=dict)
    # slot -> |b(0)| of the slot's Blaschke product, None for a full slot
    b0_moduli: tuple[float | None, ...] = ()


def _zero(rng: random.Random, rmax: float) -> complex:
    return cmath.rect(rng.uniform(0.1, rmax), rng.uniform(0.0, 2.0 * math.pi))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _blaschke(zeros, degree: int | None = None) -> dict:
    slot = {"kind": "blaschke", "zeros": [_pair(z) for z in zeros]}
    if degree is not None:
        slot["degree"] = degree
    return slot


def _moved(z: complex) -> complex:
    """The same zero turned a quarter circle, so the submodule changes."""
    return z * 1j


def _b0(zeros) -> float:
    return math.prod(abs(z) for z in zeros)


def ambient_n2(seed: int) -> list[Case]:
    rng = random.Random(f"ambient-n2/{seed}")
    z0 = [_zero(rng, 0.6) for _ in range(2)]
    z1 = [_zero(rng, 0.6)]
    doc = {
        "schema_version": 1,
        "n": 2,
        "slots": [_blaschke(z0), _blaschke(z1)],
        "analyses": list(ALL_ANALYSES),
        "second_scenario": {"n": 2, "slots": [_blaschke(z0), _blaschke([_moved(z1[0])])]},
    }
    return [
        Case(
            name="ambient-n2",
            doc=doc,
            flags=(),
            exits=frozenset({0}),
            verdicts={
                "essnorm": "ESSENTIALLY_NORMAL",
                "decay": "FINITE_RANK",
                "rigidity": "NOT_EQUIVALENT",
            },
            b0_moduli=(_b0(z0), _b0(z1)),
        )
    ]


def compressed_n3(seed: int) -> list[Case]:
    rng = random.Random(f"compressed-n3/{seed}")
    z0 = [_zero(rng, 0.5) for _ in range(2)]
    z2 = [_zero(rng, 0.5)]
    # the pinned inner degrees pass the Gram check for |a| <= 0.5 and fix
    # the size; the full slot keeps its default resolution
    doc = {
        "schema_version": 1,
        "n": 3,
        "slots": [_blaschke(z0, degree=20), {"kind": "full"}, _blaschke(z2, degree=16)],
        "analyses": ["commutator", "essnorm", "c0", "decay"],
    }
    return [
        Case(
            name="compressed-n3",
            doc=doc,
            flags=("--schedule", SCHEDULE),
            exits=frozenset({0}),
            verdicts={"essnorm": "NOT_ESSENTIALLY_NORMAL", "decay": "NONCOMPACT_LIKELY"},
            b0_moduli=(_b0(z0), None, _b0(z2)),
        )
    ]


def sweep(seed: int) -> list[Case]:
    """Scenarios cycling n = 2, 3, 4; every fourth slot full, degrees cycling 1..3.

    The shapes repeat every ``SHAPES`` scenarios, so each seed gives the
    same mix.  Whether a scenario passes the Gram check and the precision
    checks turns on its zeros, so the ``SWEEP_SIZE // SHAPES`` scenarios of
    one shape take their largest zero modulus from the midpoints of as many
    equal bins of [0.1, 0.6], and their other zeros from a generator keyed
    by shape and bin only.  The seed draws the order of the bins and one
    rotation of each slot's zeros: a rotation is a unitary change of
    variable, so the exit codes, and the work of a pass, are the same for
    every seed.
    """
    levels = SWEEP_SIZE // SHAPES
    orders = [random.Random(f"sweep/{seed}/shape{c}").sample(range(levels), levels) for c in range(SHAPES)]
    cases = []
    slot_counter = 0
    for index in range(SWEEP_SIZE):
        rng = random.Random(f"sweep/{seed}/{index}")
        step = orders[index % SHAPES][index // SHAPES]
        rmax = 0.1 + 0.5 * (step + 0.5) / levels
        # the zeros depend on shape and level only, up to one rotation per
        # slot drawn from the seed, which leaves every outcome unchanged
        fixed = random.Random(f"sweep/zeros/{index % SHAPES}/{step}")
        n = 2 + index % 3
        slots, zeros = [], []
        for _ in range(n):
            if slot_counter % 4 == 3:
                slots.append({"kind": "full"})
                zeros.append(None)
            else:
                turn = cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))
                zs = [turn * _zero(fixed, rmax) for _ in range(1 + slot_counter % 3)]
                slots.append(_blaschke(zs))
                zeros.append(zs)
            slot_counter += 1
        first = next(k for k, z in enumerate(zeros) if z is not None)
        zeros[first][0] = cmath.rect(rmax, cmath.phase(zeros[first][0]))
        slots[first] = _blaschke(zeros[first])
        inner = [k for k, z in enumerate(zeros) if z is not None]
        analyses = ["project", "commutator", "essnorm"]
        verdicts = {
            "essnorm": "ESSENTIALLY_NORMAL" if len(inner) == n else "NOT_ESSENTIALLY_NORMAL"
        }
        if inner:
            analyses += ["blh", "c0"]
        if len(inner) == n:
            # with a full slot, decay runs the high-precision compressed route
            # that compressed-n3 measures, seconds per scenario instead of
            # milliseconds; without one the schedule changes nothing
            analyses.append("decay")
            verdicts["decay"] = "FINITE_RANK"
        doc = {"schema_version": 1, "n": n, "slots": slots, "analyses": analyses}
        if len(inner) == n:
            analyses.insert(4, "rigidity")
            moved = [dict(s) for s in slots]
            moved[-1] = _blaschke([_moved(zeros[-1][0])] + zeros[-1][1:])
            doc["second_scenario"] = {"n": n, "slots": moved}
            verdicts["rigidity"] = "NOT_EQUIVALENT"
        cases.append(
            Case(
                name=f"sweep-{index:03d}",
                doc=doc,
                flags=("--budget", "256", "--schedule", SCHEDULE),
                exits=frozenset({0, 1, 2}),
                verdicts=verdicts,
                b0_moduli=tuple(None if z is None else _b0(z) for z in zeros),
            )
        )
    return cases


GENERATORS = {"ambient-n2": ambient_n2, "compressed-n3": compressed_n3, "sweep": sweep}


def generate(workload: str, seed: int) -> list[Case]:
    return GENERATORS[workload](seed)
