"""Operator-pencil representing symbol of the submodule, plus its checks.

The distinguished variable is slot 0.  On the truncated coefficient space
(the remaining slots) the symbol is the affine pencil

    Theta(z) = A + theta_0(z) * B,

where ``B`` is the product of the complementary projections of the other
Inner slots (their tensor quotient projector) and ``A = I - B``.  ``A`` and
``B`` are complementary commuting orthogonal projections, so the pencil is
inner: on the boundary circle ``Theta* Theta = A + |theta_0|^2 B = I``.

For any Hermitian ``B`` and ``t = theta_0(z)``,

    Theta* Theta - I = (|t|^2 - 1) B + |1 - t|^2 (B^2 - B),

which is diagonal in B's eigenbasis.  ``inner_deviation`` reads the boundary
deviation off B's eigenvalues, the products of the slot projectors'
eigenvalues; ``verify_inner`` is its dense oracle.

When slot 0 is not Inner the scenario is reordered so an Inner slot comes
first; the permutation is recorded on the symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .defaults import GRAM_TOL, MATRIX_CAP, SPAN_RANK_REL_TOL, TAIL_WINDOW
from .disc import (
    BlaschkeProduct,
    blaschke_eval,
    boundary_values,
    multiplication_operator,
    taylor_coefficients,
)
from .errors import ContractError, SizingError
from .lattice import (
    Inner,
    PolydiscScenario,
    SubmoduleHandle,
    interior_mask,
    make_scenario,
    quotient_basis,
    realize_slots,
    slot_apply,
)

__all__ = [
    "BlhSymbol",
    "build_blh_symbol",
    "evaluate_symbol",
    "inner_deviation",
    "pencil_residuals",
    "verify_inner",
    "verify_range",
    "wandering_subspace",
]


@dataclass(frozen=True)
class BlhSymbol:
    """Affine inner pencil A + theta_0(z) B on the truncated coefficient space."""

    theta0: BlaschkeProduct
    constant_part: np.ndarray  # A
    theta_part: np.ndarray  # B
    theta_spectrum: np.ndarray  # eigenvalues of B
    scenario: PolydiscScenario  # after any reordering
    permutation: tuple[int, ...]  # permutation[new_slot] = original slot
    coefficient_dims: tuple[int, ...]

    @property
    def coefficient_dimension(self) -> int:
        return self.constant_part.shape[0]


def build_blh_symbol(scenario: PolydiscScenario, *, gram_tol: float = GRAM_TOL) -> BlhSymbol:
    """Assemble the pencil for a scenario with at least one Inner slot."""
    if scenario.degenerate:
        raise ContractError("the representing symbol needs at least one Inner slot")
    perm = list(range(scenario.n))
    if not isinstance(scenario.factors[0], Inner):
        first = scenario.inner_slots[0]
        perm[0], perm[first] = perm[first], perm[0]
        scenario = make_scenario(
            [scenario.factors[p] for p in perm],
            [scenario.degrees[p] for p in perm],
            cap=max(MATRIX_CAP, scenario.dimension),
        )
    theta0 = scenario.factors[0].product
    coeff_slots = realize_slots(scenario.factors[1:], scenario.degrees[1:], gram_tol=gram_tol)
    projectors = [s.quotient_projector() for s in coeff_slots]
    b = kernel.kron_all(projectors, cap=MATRIX_CAP)
    # the eigenvalues of a Kronecker product of Hermitian factors are the
    # products of the factors' eigenvalues
    spectrum = np.ones(1)
    for q in projectors:
        spectrum = np.outer(spectrum, np.linalg.eigvalsh(q)).ravel()
    dim = b.shape[0]
    a = np.eye(dim, dtype=complex) - b
    return BlhSymbol(
        theta0=theta0,
        constant_part=a,
        theta_part=b,
        theta_spectrum=spectrum,
        scenario=scenario,
        permutation=tuple(perm),
        coefficient_dims=tuple(s.dimension for s in coeff_slots),
    )


def evaluate_symbol(sym: BlhSymbol, z: complex) -> np.ndarray:
    return sym.constant_part + blaschke_eval(sym.theta0, z) * sym.theta_part


def pencil_residuals(sym: BlhSymbol) -> dict[str, float]:
    """Idempotency and orthogonality residuals of A and B.

    A is built as I - B, so their complementarity holds by construction.
    """
    a, b = sym.constant_part, sym.theta_part
    return {
        "a_idempotent": float(np.linalg.norm(a @ a - a, 2)),
        "b_idempotent": float(np.linalg.norm(b @ b - b, 2)),
        "ab": float(np.linalg.norm(a @ b, 2)),
    }


def inner_deviation(sym: BlhSymbol, grid_size: int = 256) -> float:
    """max over a boundary grid of || Theta(e^{it})* Theta(e^{it}) - I ||, factorwise.

    At each grid value t of theta_0 the Hermitian matrix
    ``(|t|^2 - 1) B + |1 - t|^2 (B^2 - B)`` has the eigenvalues
    ``(|t|^2 - 1) beta + |1 - t|^2 (beta^2 - beta)``, beta running over the
    spectrum of B, so this is the exact spectral norm at every coefficient
    dimension.  ``verify_inner`` computes the same number densely.
    """
    if grid_size < 64:
        raise ContractError(f"boundary grid must have at least 64 points, got {grid_size}")
    t = boundary_values(sym.theta0, grid_size)
    beta = sym.theta_spectrum
    deviation = np.outer(np.abs(t) ** 2 - 1.0, beta) + np.outer(
        np.abs(1.0 - t) ** 2, beta**2 - beta
    )
    return float(np.max(np.abs(deviation)))


def verify_inner(sym: BlhSymbol, grid_size: int = 256) -> float:
    """max over a boundary grid of || Theta(e^{it})* Theta(e^{it}) - I ||, densely.

    One coefficient-space spectral norm per grid point, from precomputed Gram
    blocks of A and B: the dense oracle of ``inner_deviation``.  It reads A
    and B as stored, so it also sees a pencil whose A is not I - B.
    """
    if grid_size < 64:
        raise ContractError(f"boundary grid must have at least 64 points, got {grid_size}")
    a, b = sym.constant_part, sym.theta_part
    eye = np.eye(a.shape[0], dtype=complex)
    gaa = a.conj().T @ a
    gbb = b.conj().T @ b
    gab = a.conj().T @ b
    gba = b.conj().T @ a
    worst = 0.0
    for t in boundary_values(sym.theta0, grid_size):
        g = gaa + (abs(t) ** 2) * gbb + t * gab + t.conjugate() * gba - eye
        worst = max(worst, kernel.operator_norm(g))
    return worst


def symbol_columns(sym: BlhSymbol) -> np.ndarray:
    """Ambient columns of Theta applied to the coefficient-space basis.

    Column ``c`` is the polydisc vector of ``z |-> Theta(z) e_c``: the
    slot-0 Taylor column of theta_0 tensored with ``B e_c`` plus the
    constant slot-0 direction tensored with ``A e_c``.
    """
    n0 = sym.scenario.degrees[0]
    theta_col = taylor_coefficients(sym.theta0, n0)
    e0 = np.zeros(n0 + 1, dtype=complex)
    e0[0] = 1.0
    return np.kron(theta_col[:, None], sym.theta_part) + np.kron(
        e0[:, None], sym.constant_part
    )


def _projector_split(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of ran p and ran(I - p) for an orthogonal projector p."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5], v[:, w <= 0.5]


def _tail_window(n_slot: int, window: int | None) -> int:
    """Top-window width for a slot of degree ``n_slot``; None picks the default."""
    if window is None:
        window = min(TAIL_WINDOW, max(1, (n_slot + 1) // 2))
    if not 1 <= window <= n_slot:
        raise SizingError(
            f"tail window {window} does not fit the slot truncation {n_slot}"
        )
    return window


def wandering_subspace(
    handle: SubmoduleHandle,
    slot: int = 0,
    *,
    threshold: float = 0.5,
) -> np.ndarray:
    """Orthonormal basis of ran(P_S - M_slot P_S M_slot*).

    Eigenvectors of the Hermitian difference with eigenvalue above
    ``threshold`` in (0, 1).  With the slot axis first, S the slot shift and
    Q_r the quotient projector of the other slots, the difference is

        e_0 e_0* x (I - Q_r)  +  D_0 x Q_r,   D_0 = e_0 e_0* - Q_slot + S Q_slot S*,

    so the basis is ``[e_0 x ran(I - Q_r), v_0 x ran Q_r]`` with v_0 the
    eigenvectors of the slot-sized D_0 above ``threshold``.  The spectrum is
    near-binary, with boundary effects confined to the top degree of the
    shifted slot.
    """
    own = handle.slots[slot]
    rest = [s for k, s in enumerate(handle.slots) if k != slot]
    u_b, u_a = _projector_split(kernel.kron_all([s.quotient_projector() for s in rest]))
    e0 = np.zeros((own.dimension, 1), dtype=complex)
    e0[0] = 1.0
    q = own.quotient_projector()
    d0 = e0 @ e0.T - q + own.shift @ q @ own.shift.conj().T
    w, v = np.linalg.eigh(d0)
    basis = np.hstack([np.kron(e0, u_a), np.kron(v[:, w > threshold], u_b)])
    dims = (own.dimension,) + tuple(s.dimension for s in rest)
    basis = np.moveaxis(basis.reshape(dims + (-1,)), 0, slot)
    return np.ascontiguousarray(basis).reshape(handle.dimension, -1)


def submodule_basis(handle: SubmoduleHandle) -> np.ndarray:
    """Orthonormal basis of ran P_S: completion of the quotient basis."""
    bq = quotient_basis(handle)
    if bq.shape[1] == 0:
        return np.eye(handle.dimension, dtype=complex)
    q, _ = np.linalg.qr(bq, mode="complete")
    return q[:, bq.shape[1] :]


def shifted_span_gaps(
    handle: SubmoduleHandle,
    columns: np.ndarray,
    *,
    slot: int = 0,
    window: int | None = None,
) -> dict[str, float]:
    """Containment and generation gaps for a shifted column family.

    ``containment``: largest sine of an angle from span{M_slot^l columns}
    into ran P_S.  ``generation``: largest sine of an angle from ran P_S
    into that span enlarged by the top-window coordinate slack (the
    truncation boundary the shifts cannot reach).  ``window=None`` picks
    the default tail window clamped to the slot degree.

    Dense ambient route for arbitrary columns; ``verify_range`` computes
    the same gaps for the symbol columns from per-slot factors.
    """
    scenario = handle.scenario
    dims = tuple(s.dimension for s in handle.slots)
    window = _tail_window(scenario.degrees[slot], window)
    l_max = scenario.degrees[slot] - window
    blocks = [columns]
    current = columns
    for _ in range(l_max):
        current = slot_apply(handle.slots[slot].shift, current, slot, dims)
        blocks.append(current)
    stacked = np.hstack(blocks)
    span = kernel.orthonormal_basis_of_span(stacked, rel_tol=SPAN_RANK_REL_TOL)

    bq = quotient_basis(handle)
    if bq.shape[1] == 0:
        containment = 0.0
    elif span.shape[1] == 0:
        containment = 0.0
    else:
        containment = kernel.operator_norm(bq.conj().T @ span)

    # slack: coordinates whose slot index lies inside the top window
    top = ~interior_mask(scenario, slot, width=window)
    slack = np.eye(handle.dimension, dtype=complex)[:, top]
    enlarged = kernel.orthonormal_basis_of_span(
        np.hstack([stacked, slack]), rel_tol=SPAN_RANK_REL_TOL
    )

    bs = submodule_basis(handle)
    if bs.shape[1] == 0:
        generation = 0.0
    else:
        generation = kernel.subspace_gap(bs, enlarged)
    return {"containment": containment, "generation": generation, "span_dimension": span.shape[1]}


def verify_range(
    sym: BlhSymbol,
    handle: SubmoduleHandle,
    *,
    window: int | None = None,
) -> float:
    """Gap between the shifted symbol range and ran P_S on the interior window.

    The handle must share the symbol scenario's truncation degrees; a large
    gap flags a handle built from different factors.  Returns the larger of
    the containment and generation gaps of
    ``span{z_0^l Theta (coefficient basis)}`` against ran P_S, the quantity
    ``shifted_span_gaps(handle, symbol_columns(sym))`` computes densely.

    Factorwise, with l <= l_max = N_0 - window, T_theta = span{S^l theta_0},
    T_e = span{e_l} and E the top-window slot-0 coordinates, the shifted
    span is T_theta x ran B + T_e x ran A, and T_e + E is the whole slot.
    Slot-0 factors q_0 and the coefficient factor q_r of the quotient basis
    come from the handle, B from the symbol, so a mismatched handle shows.
    """
    if sym.scenario.degrees != handle.scenario.degrees:
        raise ContractError(
            "symbol and handle have different truncation degrees: "
            f"{sym.scenario.degrees} vs {handle.scenario.degrees}"
        )
    n0 = sym.scenario.degrees[0]
    l_max = n0 - _tail_window(n0, window)
    q0 = handle.slots[0].quotient_basis
    qr = kernel.kron_all([s.quotient_basis for s in handle.slots[1:]])
    u_b, u_a = _projector_split(sym.theta_part)
    shifted_theta = multiplication_operator(sym.theta0, n0)[:, : l_max + 1]

    u_theta = kernel.orthonormal_basis_of_span(shifted_theta, rel_tol=SPAN_RANK_REL_TOL)
    containment = kernel.operator_norm(
        np.hstack(
            [
                np.kron(q0.conj().T @ u_theta, qr.conj().T @ u_b),
                np.kron(q0[: l_max + 1].conj().T, qr.conj().T @ u_a),
            ]
        )
    )

    # the enlarged span is (T_theta + E) x ran B + everything x ran A, so its
    # complement is U_perp x ran B, U_perp the slot-0 complement of T_theta + E;
    # the gap is || P_S (U_perp x U_B) ||, split over ran(I - Q_0) and ran Q_0
    top = np.eye(n0 + 1, dtype=complex)[:, l_max + 1 :]
    u, s, _ = np.linalg.svd(np.hstack([shifted_theta, top]))
    u_perp = u[:, s <= SPAN_RANK_REL_TOL * s[0]]
    generation = kernel.operator_norm(
        np.vstack(
            [
                np.kron(u_perp - q0 @ (q0.conj().T @ u_perp), np.eye(u_b.shape[1])),
                np.kron(q0.conj().T @ u_perp, u_b - qr @ (qr.conj().T @ u_b)),
            ]
        )
    )
    return max(containment, min(1.0, generation))
