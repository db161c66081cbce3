"""Equality testing and unitary-equivalence verdicts for realized submodules.

For submodules whose slots all carry inner factors, unitary equivalence
holds exactly when the subspaces are equal, so the verdict reduces to a
projection distance.  Fingerprints collect cheap unitary invariants
(cross-commutator singular values, quotient and slot dimensions) that
certify non-equivalence when they differ.  The wandering dimension is no
invariant here: it equals the coefficient dimension prod_{k>=1}(N_k + 1),
fixed by the truncation degrees, which both handles share.  Every verdict
records the thresholds it was judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kernel
from .commutator import cross_commutator_spectrum
from .defaults import (
    EQUAL_PROJECTION_TOL,
    FINGERPRINT_GAP_TOL,
    RANK_REL_TOL,
)
from .errors import ContractError
from .lattice import FullHardy, Inner, SubmoduleHandle, quotient_basis

__all__ = [
    "EqualityResult",
    "Fingerprint",
    "VerdictRecord",
    "equality_test",
    "equivalence_verdict",
    "fingerprint",
    "fingerprint_gap",
]


@dataclass(frozen=True)
class EqualityResult:
    distance: float
    equal: bool
    tolerance: float


def projection_distance(s1: SubmoduleHandle, s2: SubmoduleHandle) -> float:
    """Spectral norm of P_{S1} - P_{S2} through the quotient bases.

    For orthogonal projections the norm of the difference is the larger of
    the two directional principal-angle sines, so it reduces to singular
    values of (ambient x quotient)-sized residuals; no ambient-sized
    factorization and no defective eigenvalue problems.
    """
    b1 = quotient_basis(s1)
    b2 = quotient_basis(s2)
    q1, q2 = b1.shape[1], b2.shape[1]
    if q1 == 0 and q2 == 0:
        return 0.0
    if q1 == 0 or q2 == 0:
        return 1.0
    r1 = b2 - b1 @ (b1.conj().T @ b2)
    r2 = b1 - b2 @ (b2.conj().T @ b1)
    return max(kernel.operator_norm(r1), kernel.operator_norm(r2))


def equality_test(
    s1: SubmoduleHandle,
    s2: SubmoduleHandle,
    *,
    tol: float = EQUAL_PROJECTION_TOL,
) -> EqualityResult:
    """Projection distance between two realized submodules; EQUAL iff <= tol."""
    if s1.scenario.n != s2.scenario.n:
        raise ContractError(
            f"variable counts differ: {s1.scenario.n} vs {s2.scenario.n}"
        )
    if s1.scenario.degrees != s2.scenario.degrees:
        raise ContractError(
            f"truncation degrees differ: {s1.scenario.degrees} vs {s2.scenario.degrees}"
        )
    d = projection_distance(s1, s2)
    return EqualityResult(distance=d, equal=d <= tol, tolerance=tol)


@dataclass(frozen=True)
class Fingerprint:
    """Unitary invariants of a realized submodule at a fixed truncation."""

    slot_kinds: tuple[str, ...]
    slot_dimensions: tuple[int, ...]
    quotient_dimension: int
    cross_commutator_singular_values: tuple[tuple[int, int, tuple[float, ...]], ...]
    degrees: tuple[int, ...]
    rank_tol: float


def fingerprint(handle: SubmoduleHandle, *, rank_tol: float = RANK_REL_TOL) -> Fingerprint:
    """Deterministic invariants: commutator spectra, quotient and slot dimensions."""
    scenario = handle.scenario
    kinds = tuple("inner" if isinstance(f, Inner) else "full" for f in scenario.factors)
    slot_dims = tuple(s.quotient_dimension for s in handle.slots)
    pairs: list[tuple[int, int, tuple[float, ...]]] = []
    inner = scenario.inner_slots
    for a in range(len(inner)):
        for b in range(a + 1, len(inner)):
            i, j = inner[a], inner[b]
            svals, _, _ = cross_commutator_spectrum(scenario, i, j)
            kept = svals[: kernel.spectrum_rank(svals, rank_tol)]
            pairs.append((i, j, tuple(float(s) for s in kept)))
    return Fingerprint(
        slot_kinds=kinds,
        slot_dimensions=slot_dims,
        quotient_dimension=handle.quotient_dimension,
        cross_commutator_singular_values=tuple(pairs),
        degrees=scenario.degrees,
        rank_tol=rank_tol,
    )


def fingerprint_gap(f1: Fingerprint, f2: Fingerprint) -> float:
    """Largest absolute difference over the comparable invariant fields."""
    gap = float(abs(f1.quotient_dimension - f2.quotient_dimension))
    for d1, d2 in zip(f1.slot_dimensions, f2.slot_dimensions):
        gap = max(gap, float(abs(d1 - d2)))
    sv1 = {(i, j): s for i, j, s in f1.cross_commutator_singular_values}
    sv2 = {(i, j): s for i, j, s in f2.cross_commutator_singular_values}
    for key in set(sv1) | set(sv2):
        a = sv1.get(key, ())
        b = sv2.get(key, ())
        width = max(len(a), len(b))
        a = a + (0.0,) * (width - len(a))
        b = b + (0.0,) * (width - len(b))
        for x, y in zip(a, b):
            gap = max(gap, abs(x - y))
    return gap


@dataclass(frozen=True)
class VerdictRecord:
    verdict: str  # EQUIVALENT | NOT_EQUIVALENT | UNDECIDED_BY_PAPER
    distance: float | None
    certificate: dict | None
    thresholds: dict = field(default_factory=dict)
    note: str | None = None


def equivalence_verdict(
    s1: SubmoduleHandle,
    s2: SubmoduleHandle,
    *,
    equal_tol: float = EQUAL_PROJECTION_TOL,
    certificate_tol: float = FINGERPRINT_GAP_TOL,
    rank_tol: float = RANK_REL_TOL,
) -> VerdictRecord:
    """Unitary-equivalence verdict for two co-doubly-commuting realizations.

    For all-Inner scenarios equivalence holds exactly when the subspaces are
    equal; non-equal pairs attach a fingerprint certificate whenever some
    invariant separates them.  Scenarios with zero-symbol (FullHardy) slots
    are refused: such submodules can be unitarily equivalent without being
    equal, so equality decides nothing.
    """
    thresholds = {
        "equal_projection": equal_tol,
        "certificate_gap": certificate_tol,
        "rank_tol": rank_tol,
    }
    if s1.scenario.n != s2.scenario.n or s1.scenario.degrees != s2.scenario.degrees:
        raise ContractError("handles have incompatible variable counts or truncations")

    full1 = tuple(i for i, f in enumerate(s1.scenario.factors) if isinstance(f, FullHardy))
    full2 = tuple(i for i, f in enumerate(s2.scenario.factors) if isinstance(f, FullHardy))
    if s1.degenerate or s2.degenerate:
        return VerdictRecord(
            verdict="UNDECIDED_BY_PAPER",
            distance=None,
            certificate=None,
            thresholds=thresholds,
            note="a degenerate scenario (no inner slot) realizes the zero submodule; "
            "the equality rule does not apply",
        )
    if full1 or full2:
        why = (
            "zero-symbol slot patterns differ"
            if full1 != full2
            else "zero-symbol slots present"
        )
        return VerdictRecord(
            verdict="UNDECIDED_BY_PAPER",
            distance=None,
            certificate=None,
            thresholds=thresholds,
            note=f"{why}: submodules with zero-symbol slots can be unitarily "
            "equivalent without being equal",
        )

    result = equality_test(s1, s2, tol=equal_tol)
    if result.equal:
        return VerdictRecord(
            verdict="EQUIVALENT",
            distance=result.distance,
            certificate=None,
            thresholds=thresholds,
            note=None,
        )
    f1 = fingerprint(s1, rank_tol=rank_tol)
    f2 = fingerprint(s2, rank_tol=rank_tol)
    gap = fingerprint_gap(f1, f2)
    certificate = None
    if gap > certificate_tol:
        certificate = {
            "invariant_gap": gap,
            "first": _fingerprint_dict(f1),
            "second": _fingerprint_dict(f2),
        }
    note = None
    if f1.quotient_dimension == 0 or f2.quotient_dimension == 0:
        note = "one side is the full module (trivial quotient); no proper submodule is equivalent to it"
    return VerdictRecord(
        verdict="NOT_EQUIVALENT",
        distance=result.distance,
        certificate=certificate,
        thresholds=thresholds,
        note=note,
    )


def _fingerprint_dict(f: Fingerprint) -> dict:
    return {
        "slot_kinds": list(f.slot_kinds),
        "slot_dimensions": list(f.slot_dimensions),
        "quotient_dimension": f.quotient_dimension,
        "cross_commutator_singular_values": [
            {"pair": [i, j], "values": list(s)}
            for i, j, s in f.cross_commutator_singular_values
        ],
        "degrees": list(f.degrees),
        "rank_tol": f.rank_tol,
    }
