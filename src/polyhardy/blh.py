"""Operator-pencil representing symbol of the submodule, plus its checks.

The distinguished variable is slot 0.  On the truncated coefficient space
(the remaining slots) the symbol is the affine pencil

    Theta(z) = A + theta_0(z) * B,

where ``B`` is the product of the complementary projections of the other
Inner slots (their tensor quotient projector) and ``A = I - B``.  ``A`` and
``B`` are complementary commuting orthogonal projections, so the pencil is
inner: on the boundary circle ``Theta* Theta = A + |theta_0|^2 B = I``.

When slot 0 is not Inner the scenario is reordered so an Inner slot comes
first; the permutation is recorded on the symbol.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import kernel
from .defaults import GRAM_TOL, MATRIX_CAP, TAIL_WINDOW
from .disc import BlaschkeProduct, blaschke_eval, taylor_coefficients
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
    b = kernel.kron_all([s.quotient_projector() for s in coeff_slots], cap=MATRIX_CAP)
    dim = b.shape[0]
    a = np.eye(dim, dtype=complex) - b
    return BlhSymbol(
        theta0=theta0,
        constant_part=a,
        theta_part=b,
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


def verify_inner(sym: BlhSymbol, grid_size: int = 256, *, exact_norm_dim: int = 256) -> float:
    """max over a boundary grid of || Theta(e^{it})* Theta(e^{it}) - I ||.

    Uses precomputed Gram blocks so each grid point costs O(dim^2); above
    ``exact_norm_dim`` the per-point norm is Frobenius (an upper bound on
    the spectral norm).
    """
    if grid_size < 64:
        raise ContractError(f"boundary grid must have at least 64 points, got {grid_size}")
    a, b = sym.constant_part, sym.theta_part
    dim = a.shape[0]
    eye = np.eye(dim, dtype=complex)
    gaa = a.conj().T @ a
    gbb = b.conj().T @ b
    gab = a.conj().T @ b
    gba = b.conj().T @ a
    worst = 0.0
    for k in range(grid_size):
        z = cmath.exp(2j * cmath.pi * k / grid_size)
        t = blaschke_eval(sym.theta0, z)
        g = gaa + (abs(t) ** 2) * gbb + t * gab + t.conjugate() * gba - eye
        if dim <= exact_norm_dim:
            dev = kernel.operator_norm(g)
        else:
            dev = float(np.linalg.norm(g))
        worst = max(worst, dev)
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


def wandering_subspace(
    handle: SubmoduleHandle,
    slot: int = 0,
    *,
    threshold: float = 0.5,
    max_dimension: int = 2500,
) -> np.ndarray:
    """Orthonormal basis of ran(P_S - M_slot P_S M_slot*).

    Eigenvectors of the Hermitian difference with eigenvalue above
    ``threshold``; the spectrum is near-binary, with boundary effects
    confined to the top degree of the shifted slot.
    """
    dim = handle.dimension
    if dim > max_dimension:
        raise SizingError(
            f"wandering-subspace eigendecomposition at dimension {dim} exceeds "
            f"the bound {max_dimension}; use smaller truncation degrees"
        )
    dims = tuple(s.dimension for s in handle.slots)
    s = handle.slots[slot].shift
    ps = handle.projection
    shifted = slot_apply(s, slot_apply(s, ps.conj().T, slot, dims).conj().T, slot, dims)
    r = ps - shifted
    w, v = np.linalg.eigh((r + r.conj().T) / 2.0)
    return v[:, w > threshold]


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
    """
    scenario = handle.scenario
    dims = tuple(s.dimension for s in handle.slots)
    n_slot = scenario.degrees[slot]
    if window is None:
        window = min(TAIL_WINDOW, max(1, (n_slot + 1) // 2))
    if not 1 <= window <= n_slot:
        raise SizingError(
            f"tail window {window} does not fit the slot truncation {n_slot}"
        )
    l_max = n_slot - window
    blocks = [columns]
    current = columns
    for _ in range(l_max):
        current = slot_apply(handle.slots[slot].shift, current, slot, dims)
        blocks.append(current)
    stacked = np.hstack(blocks)
    span = kernel.orthonormal_basis_of_span(stacked, rel_tol=1e-10)

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
    enlarged = kernel.orthonormal_basis_of_span(np.hstack([stacked, slack]), rel_tol=1e-10)

    from .commutator import submodule_basis  # local import avoids a cycle

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
    ``span{z_0^l Theta (coefficient basis)}`` against ran P_S.
    """
    if sym.scenario.degrees != handle.scenario.degrees:
        raise ContractError(
            "symbol and handle have different truncation degrees: "
            f"{sym.scenario.degrees} vs {handle.scenario.degrees}"
        )
    gaps = shifted_span_gaps(handle, symbol_columns(sym), slot=0, window=window)
    return max(gaps["containment"], gaps["generation"])
