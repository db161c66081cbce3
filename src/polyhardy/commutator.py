"""Cross commutators on the submodule, two independent ways, plus diagnostics.

For a pair of Inner slots ``i < j`` the restricted cross commutator
factorizes into a Kronecker product: a rank-one backward-shift compression
on slot ``i``, its adjoint shape on slot ``j``, and quotient projectors on
the remaining slots.  The brute-force route computes the same operator
P_S M_j (I - P_S) M_i* P_S from ambient truncated shifts and the quotient
alone; at matched truncation the two agree to float rounding, which is the
oracle check every report asserts.  When a slot of the pair carries the
zero symbol its factor I - Q_k vanishes, so the structural route of such a
mixed pair is the zero operator with an empty spectrum, and the report
judges the oracle's Frobenius norm against it.

The quotient is the tensor product of the slot model spaces, so
I - P_S = V V* with V the ambient quotient basis of r = prod dim K_theta_k
columns, and the oracle is the rank-r product (P_S M_j V)(P_S M_i V)*;
dense P_S is never formed.  ``commutator_reports`` realizes the small
agreement handle once and shares it among all pairs of one analysis.

Norm, rank and Hilbert-Schmidt data come from the singular values of a
compressed Kronecker word whose two Inner pair factors are computed at a
high one-variable truncation independent of the ambient degrees, so
geometric tails sit far below every tolerance.  The word itself is never
formed: its singular values are products of the pair factors' singular
values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .defaults import (
    AGREEMENT_DIM_BUDGET,
    AGREEMENT_GRAM_TOL,
    HS_NORM_SLACK,
    NONCOMPACT_PLATEAU_FRACTION,
    NORM_LAW_TOL,
    RANK_REL_TOL,
    STRUCTURAL_AGREEMENT_TOL,
    disc_truncation,
)
from .disc import (
    BlaschkeProduct,
    predicted_compression_norm,
    rank_one_compression,
)
from .errors import AnalysisFailure, ContractError, NumericError
from .lattice import (
    FullHardy,
    Inner,
    PolydiscScenario,
    SubmoduleHandle,
    make_scenario,
    quotient_basis,
    shrink_degrees,
    slot_apply,
    submodule_projection,
)

__all__ = [
    "CommutatorReport",
    "DecayProfile",
    "EssentialNormalityReport",
    "c0_annihilation",
    "commutator_report",
    "commutator_reports",
    "cross_commutator_spectrum",
    "cross_commutator_structural",
    "essential_dc_diagnostic",
    "essential_normality_check",
]

# Leading singular values echoed in every commutator report.
LEADING_SINGULAR_VALUES = 8


@dataclass(frozen=True)
class CommutatorReport:
    """Everything measured about one cross commutator pair.

    ``predicted_norm`` is the closed form
    ``sqrt((1-|theta_i(0)|^2)(1-|theta_j(0)|^2))`` and is only available when
    both slots are Inner; ``closed_form_hs`` records the same value next to
    the computed tensor-law ``hs_norm`` without asserting their equality.
    """

    pair: tuple[int, int]
    operator_norm: float
    hs_norm: float
    numerical_rank: int
    leading_singular_values: tuple[float, ...]
    structural_vs_oracle_error: float
    predicted_norm: float | None
    closed_form_hs: float | None
    identity_factor_dimension: int
    agreement_degrees: tuple[int, ...] | None
    precision_degrees: tuple[int, ...]
    rank_tol: float
    tolerances: dict = field(default_factory=dict)
    failures: tuple[str, ...] = ()


def _check_pair(scenario: PolydiscScenario, i: int, j: int) -> None:
    if not (0 <= i < j < scenario.n):
        raise ContractError(f"need 0 <= i < j < n, got pair ({i}, {j}) for n={scenario.n}")


def _require_inner(scenario: PolydiscScenario, slot: int) -> BlaschkeProduct:
    f = scenario.factors[slot]
    if not isinstance(f, Inner):
        raise ContractError(f"slot {slot} is not an Inner slot")
    return f.product


def cross_commutator_bruteforce_ambient(handle: SubmoduleHandle, i: int, j: int) -> np.ndarray:
    """Ambient matrix of P_S (M_i* M_j) P_S - P_S M_j P_S M_i* P_S.

    Evaluated as P_S M_j (I - P_S) M_i* P_S, the same operator since M_i* and
    M_j act on different slots and commute.  I - P_S is the tensor quotient
    projector V V*, V the ambient quotient basis with r orthonormal columns,
    so the operator is A B* with A = P_S M_j V = M_j V - V (V* M_j V) and B
    likewise for M_i, about D r (D + 2r) multiply-adds.  An empty quotient
    (r = 0) and a degenerate scenario (P_S = 0, r = D) give the exact zero
    matrix.
    """
    _check_pair(handle.scenario, i, j)
    if handle.quotient_dimension == 0 or handle.degenerate:
        return np.zeros((handle.dimension, handle.dimension), dtype=complex)
    dims = tuple(s.dimension for s in handle.slots)
    v = quotient_basis(handle)

    def off_quotient(slot: int) -> np.ndarray:
        mv = slot_apply(handle.slots[slot].shift, v, slot, dims)
        return mv - v @ (v.conj().T @ mv)

    return off_quotient(j) @ off_quotient(i).conj().T


def cross_commutator_structural(handle: SubmoduleHandle, i: int, j: int) -> np.ndarray:
    """Kronecker-factorized cross commutator, embedded in the ambient space.

    Slot ``i`` carries the backward-shift compression onto the model space,
    slot ``j`` its forward counterpart, every other slot its quotient
    projector (identity for FullHardy slots).  Both pair slots must be
    Inner.
    """
    scenario = handle.scenario
    _check_pair(scenario, i, j)
    _require_inner(scenario, i)
    _require_inner(scenario, j)
    mats: list[np.ndarray] = []
    for k, s in enumerate(handle.slots):
        q = s.quotient_projector()
        eye = np.eye(s.dimension, dtype=complex)
        if k == i:
            mats.append(q @ s.shift.conj().T @ (eye - q))
        elif k == j:
            mats.append((eye - q) @ s.shift @ q)
        else:
            mats.append(q)
    return kernel.kron_all(mats, cap=handle.dimension)


def _pair_factor_spectra(
    scenario: PolydiscScenario, i: int, j: int
) -> dict[int, tuple[tuple[int, int], np.ndarray]]:
    """Shape and singular values of the pair factors c_i and c_j*.

    Both are computed at the high one-variable truncation of their Blaschke
    degree, so they do not depend on the degrees of any slot.
    """
    _check_pair(scenario, i, j)
    pair = {i: _require_inner(scenario, i), j: _require_inner(scenario, j)}
    factors = {}
    for k, b in pair.items():
        if b.degree == 0:
            # constant inner factor: empty model space, empty compression
            factors[k] = ((0, 1), np.zeros(0))
            continue
        c = rank_one_compression(b, disc_truncation(b.degree))
        c = c if k == i else c.conj().T
        factors[k] = (c.shape, kernel.singular_values(c))
    return factors


def _word_spectrum(
    scenario: PolydiscScenario, pair_factors: dict[int, tuple[tuple[int, int], np.ndarray]]
) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """``cross_commutator_spectrum`` from pair factors already computed."""
    precision = tuple(
        disc_truncation(f.product.degree) if isinstance(f, Inner) else scenario.degrees[k]
        for k, f in enumerate(scenario.factors)
    )
    shapes: list[tuple[int, int]] = []
    for k, f in enumerate(scenario.factors):
        if k in pair_factors:
            shapes.append(pair_factors[k][0])
        else:
            d = f.product.degree if isinstance(f, Inner) else scenario.degrees[k] + 1
            shapes.append((d, d))
    identity = math.prod(r for k, (r, _) in enumerate(shapes) if k not in pair_factors)
    first, second = (spectrum for _, spectrum in pair_factors.values())
    products = np.repeat(np.outer(first, second).ravel(), identity)
    svals = np.zeros(min(math.prod(r for r, _ in shapes), math.prod(c for _, c in shapes)))
    svals[: products.size] = np.sort(products)[::-1]
    return svals, tuple(r for r, _ in shapes), precision


def cross_commutator_spectrum(
    scenario: PolydiscScenario, i: int, j: int
) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Singular values of the high-precision compressed cross commutator.

    Returns (singular values, factor dimensions, precision degrees).  The
    compressed commutator is the Kronecker word with the rank-one
    compression c_i on slot i, c_j* on slot j, both at a high one-variable
    truncation, model-space identities on the other Inner slots and
    truncated identities on FullHardy slots.  Its singular values are the
    products of the two pair factors' singular values, each repeated once
    per identity dimension, zero-padded to min(rows, cols) of the word; the
    word itself is never formed.
    """
    return _word_spectrum(scenario, _pair_factor_spectra(scenario, i, j))


def commutator_report(
    scenario: PolydiscScenario,
    i: int,
    j: int,
    *,
    rank_tol: float = RANK_REL_TOL,
    agreement_gram_tol: float = AGREEMENT_GRAM_TOL,
    raise_on_failure: bool = True,
) -> CommutatorReport:
    """The report of one pair; see ``commutator_reports``."""
    return commutator_reports(
        scenario,
        [(i, j)],
        rank_tol=rank_tol,
        agreement_gram_tol=agreement_gram_tol,
        raise_on_failure=raise_on_failure,
    )[0]


def commutator_reports(
    scenario: PolydiscScenario,
    pairs: Sequence[tuple[int, int]],
    *,
    rank_tol: float = RANK_REL_TOL,
    agreement_gram_tol: float = AGREEMENT_GRAM_TOL,
    raise_on_failure: bool = True,
) -> list[CommutatorReport]:
    """Run both cross-commutator routes on each pair and assemble the reports.

    The agreement degrees (the scenario's, shrunk to ``AGREEMENT_DIM_BUDGET``)
    and their handle are realized once and shared by every pair.

    Asserts: structural and brute-force routes agree within 1e-7 in Frobenius
    norm at a common truncation (a mixed pair, one with a FullHardy slot, has
    the zero operator as its structural route and an empty spectrum, so the
    oracle's own Frobenius norm is judged); the operator norm matches the
    closed form within 1e-6 when both slots are Inner; for n=2 the numerical
    rank is at most one; the operator norm never exceeds the Hilbert-Schmidt
    norm.  A failing pair raises AnalysisFailure carrying its finished report
    unless ``raise_on_failure`` is false.
    """
    for i, j in pairs:
        _check_pair(scenario, i, j)
    agree_degrees = shrink_degrees(scenario.factors, scenario.degrees, AGREEMENT_DIM_BUDGET)
    handle = submodule_projection(
        make_scenario(scenario.factors, agree_degrees), gram_tol=agreement_gram_tol
    )
    reports = []
    for i, j in pairs:
        report = _pair_report(scenario, handle, i, j, rank_tol)
        if report.failures and raise_on_failure:
            raise AnalysisFailure(
                f"commutator report for pair ({i}, {j}) failed: " + "; ".join(report.failures),
                details={"report": report},
            )
        reports.append(report)
    return reports


def _pair_report(
    scenario: PolydiscScenario, handle: SubmoduleHandle, i: int, j: int, rank_tol: float
) -> CommutatorReport:
    """One pair's report, judged against the oracle on the agreement handle."""
    fi, fj = scenario.factors[i], scenario.factors[j]
    both_inner = isinstance(fi, Inner) and isinstance(fj, Inner)
    agree_degrees = handle.scenario.degrees
    failures: list[str] = []

    # oracle minus structural route, formed in place
    residual = cross_commutator_bruteforce_ambient(handle, i, j)

    predicted: float | None = None
    closed_form_hs: float | None = None

    if both_inner:
        residual -= cross_commutator_structural(handle, i, j)
        svals, dims, precision = cross_commutator_spectrum(scenario, i, j)
        identity_dim = math.prod(d for k, d in enumerate(dims) if k not in (i, j))
        predicted = predicted_compression_norm(fi.product) * predicted_compression_norm(
            fj.product
        )
        closed_form_hs = predicted
    else:
        # mixed pair: the zero-symbol slot's factor I - Q_k vanishes, so the
        # structural route is the zero operator and its spectrum is empty
        svals = np.zeros(0)
        identity_dim = 0
        precision = agree_degrees
    # Frobenius dominates the operator norm, so this bound is conservative.
    agreement_error = float(np.linalg.norm(residual))
    if agreement_error > STRUCTURAL_AGREEMENT_TOL:
        failures.append(
            f"structural vs brute-force error {agreement_error:.3e} > "
            f"{STRUCTURAL_AGREEMENT_TOL:g}"
        )

    op_norm = float(svals[0]) if svals.size else 0.0
    hs = float(np.sqrt(np.sum(svals**2)))
    rank = kernel.spectrum_rank(svals, rank_tol)

    if predicted is not None and abs(op_norm - predicted) > NORM_LAW_TOL:
        failures.append(
            f"operator norm {op_norm:.9f} deviates from closed form "
            f"{predicted:.9f} by {abs(op_norm - predicted):.3e} > {NORM_LAW_TOL:g}"
        )
    # the rank-one law needs both factors inner; a zero-symbol slot carries
    # an infinite-dimensional identity factor instead
    if scenario.n == 2 and both_inner and rank > 1:
        failures.append(f"two-variable cross commutator has numerical rank {rank} > 1")
    if op_norm > hs + HS_NORM_SLACK:
        failures.append(f"operator norm {op_norm!r} exceeds HS norm {hs!r}")

    return CommutatorReport(
        pair=(i, j),
        operator_norm=op_norm,
        hs_norm=hs,
        numerical_rank=rank,
        leading_singular_values=tuple(float(s) for s in svals[:LEADING_SINGULAR_VALUES]),
        structural_vs_oracle_error=agreement_error,
        predicted_norm=predicted,
        closed_form_hs=closed_form_hs,
        identity_factor_dimension=identity_dim,
        agreement_degrees=agree_degrees,
        precision_degrees=tuple(precision),
        rank_tol=rank_tol,
        tolerances={
            "structural_agreement": STRUCTURAL_AGREEMENT_TOL,
            "norm_law": NORM_LAW_TOL,
            "rank_tol": rank_tol,
        },
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class DecayProfile:
    """Singular-value snapshots of one cross commutator along a truncation schedule."""

    pair: tuple[int, int]
    schedule: tuple[int, ...]
    singular_values: tuple[tuple[float, ...], ...]
    ranks: tuple[int, ...]
    predicted_norm: float
    verdict: str  # FINITE_RANK | NONCOMPACT_LIKELY | COMPACT_LIKELY
    rank_tol: float
    plateau_fraction: float


def essential_dc_diagnostic(
    scenario: PolydiscScenario,
    pair: tuple[int, int],
    schedule,
    *,
    rank_tol: float = RANK_REL_TOL,
) -> DecayProfile:
    """Track cross-commutator singular values as FullHardy truncations grow.

    The schedule sets the truncation degree of every FullHardy slot; Inner
    factors are computed at high one-variable precision throughout.  The
    verdict is FINITE_RANK when the numerical rank is the same at every
    schedule point, NONCOMPACT_LIKELY when the count of singular values
    above ``NONCOMPACT_PLATEAU_FRACTION * predicted`` grows strictly with
    the schedule, and COMPACT_LIKELY otherwise.
    """
    i, j = pair
    _check_pair(scenario, i, j)
    bi = _require_inner(scenario, i)
    bj = _require_inner(scenario, j)
    schedule = tuple(int(s) for s in schedule)
    if len(schedule) < 3 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ContractError("schedule must be strictly increasing with length >= 3")
    predicted = predicted_compression_norm(bi) * predicted_compression_norm(bj)
    # the pair factors do not depend on the schedule
    pair_factors = _pair_factor_spectra(scenario, i, j)

    snapshots: list[tuple[float, ...]] = []
    ranks: list[int] = []
    plateau_counts: list[int] = []
    for n_free in schedule:
        degrees = tuple(
            n_free if isinstance(f, FullHardy) else scenario.degrees[k]
            for k, f in enumerate(scenario.factors)
        )
        # staged scenarios only feed the spectrum route, which assembles no
        # ambient tensor, so the ambient cap does not apply to them
        staged = PolydiscScenario(factors=scenario.factors, degrees=degrees)
        svals, _, _ = _word_spectrum(staged, pair_factors)
        rank = kernel.spectrum_rank(svals, rank_tol)
        ranks.append(rank)
        plateau_counts.append(
            int(np.count_nonzero(svals >= NONCOMPACT_PLATEAU_FRACTION * predicted))
        )
        # keep the rank plus a short sub-threshold tail as evidence
        snapshots.append(tuple(float(s) for s in svals[: min(svals.size, rank + 4)]))

    if all(r == ranks[0] for r in ranks):
        verdict = "FINITE_RANK"
    elif (
        all(b > a for a, b in zip(plateau_counts, plateau_counts[1:]))
        and plateau_counts[0] > 0
    ):
        verdict = "NONCOMPACT_LIKELY"
    else:
        verdict = "COMPACT_LIKELY"

    return DecayProfile(
        pair=(i, j),
        schedule=schedule,
        singular_values=tuple(snapshots),
        ranks=tuple(ranks),
        predicted_norm=predicted,
        verdict=verdict,
        rank_tol=rank_tol,
        plateau_fraction=NONCOMPACT_PLATEAU_FRACTION,
    )


@dataclass(frozen=True)
class SlotSelfCommutator:
    slot: int
    kind: str  # "inner" | "full"
    norm: float
    rank: int
    interior_rank: int | None
    factor_dimension: int | None  # None marks the FullHardy (infinite) intent


@dataclass(frozen=True)
class EssentialNormalityReport:
    verdict: str  # ESSENTIALLY_NORMAL | NOT_ESSENTIALLY_NORMAL
    slots: tuple[SlotSelfCommutator, ...]
    quotient_dimension: int | None


def essential_normality_check(handle: SubmoduleHandle) -> EssentialNormalityReport:
    """Per-slot self-commutators of the compressed shifts, verdict from types.

    Each slot's compressed shift is read from ``handle.slots[k]``; the
    quotient is their tensor product, so the slot factors carry every
    self-commutator.  The quotient is essentially normal exactly when every
    slot is Inner (finite-dimensional factors).  A FullHardy slot
    contributes the truncated full shift whose self-commutator picks up a
    finite-section artifact at the top degree; the interior-restricted rank
    (one) reflects the untruncated operator.
    """
    entries: list[SlotSelfCommutator] = []
    all_inner = True
    for k, f in enumerate(handle.scenario.factors):
        slot = handle.slots[k]
        if isinstance(f, Inner):
            c = slot.compressed_shift
            comm = c.conj().T @ c - c @ c.conj().T
            entries.append(
                SlotSelfCommutator(
                    slot=k,
                    kind="inner",
                    norm=kernel.operator_norm(comm),
                    rank=kernel.numerical_rank(comm) if comm.size else 0,
                    interior_rank=None,
                    factor_dimension=slot.quotient_dimension,
                )
            )
        else:
            all_inner = False
            s = slot.shift
            comm = s.conj().T @ s - s @ s.conj().T
            interior = comm.copy()
            interior[-1, :] = 0.0
            interior[:, -1] = 0.0
            entries.append(
                SlotSelfCommutator(
                    slot=k,
                    kind="full",
                    norm=kernel.operator_norm(comm),
                    rank=kernel.numerical_rank(comm),
                    interior_rank=kernel.numerical_rank(interior),
                    factor_dimension=None,
                )
            )
    return EssentialNormalityReport(
        verdict="ESSENTIALLY_NORMAL" if all_inner else "NOT_ESSENTIALLY_NORMAL",
        slots=tuple(entries),
        quotient_dimension=handle.quotient_dimension if all_inner else None,
    )


def blaschke_of_matrix(b: BlaschkeProduct, c: np.ndarray) -> np.ndarray:
    """Evaluate the Blaschke product on a square contraction, factor by factor.

    Each factor is (C - a I)(I - conj(a) C)^{-1}, applied through a linear
    solve; the resolvent exists because the zeros are strictly interior and
    the spectrum of C sits in the closed disc.
    """
    m = kernel.as_complex_matrix(c)
    if m.shape[0] != m.shape[1]:
        raise ContractError("matrix evaluation needs a square matrix")
    dim = m.shape[0]
    out = b.constant * np.eye(dim, dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for a in b.zeros:
        try:
            # (I - conj(a) C)^{-1} (C - a I); the factors commute (rational in C)
            factor = np.linalg.solve(eye - a.conjugate() * m, m - a * eye)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - excluded by preconditions
            raise NumericError(f"resolvent solve failed for zero {a}: {exc}") from exc
        out = out @ factor
    return out


def c0_annihilation(handle: SubmoduleHandle, slot: int) -> float:
    """Residual norm of the slot symbol evaluated on its compressed shift.

    The compressed shift is ``handle.slots[slot].compressed_shift``, at the
    handle's truncation; the residual inherits the slot's geometric tail,
    so short truncations show larger values.
    """
    f = handle.scenario.factors[slot]
    if not isinstance(f, Inner):
        raise ContractError(f"slot {slot} is not an Inner slot")
    return _c0_residual(f.product, handle.slots[slot].compressed_shift)


def _c0_residual(b: BlaschkeProduct, c: np.ndarray) -> float:
    """Operator norm of b(C) for a compressed shift C; zero on an empty model space."""
    if c.shape[0] == 0:
        return 0.0
    return kernel.operator_norm(blaschke_of_matrix(b, c))
