"""Dense complex linear-algebra substrate.

All operators in this package are plain ``numpy.ndarray`` matrices with
``complex128`` entries.  This module wraps the handful of LAPACK-backed
primitives everything else is built from: Kronecker products, SVD-based
norms and ranks, orthonormalization and projector construction.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .defaults import (
    MATRIX_CAP,
    ORTHONORMALITY_TOL,
    PROJECTOR_TOL,
    RANK_REL_TOL,
    SPAN_RANK_REL_TOL,
)
from .errors import ContractError, NumericError, RankDeficiencyError, SizingError

__all__ = [
    "as_complex_matrix",
    "hs_norm",
    "kron_all",
    "numerical_rank",
    "operator_norm",
    "orthonormal_basis_of_span",
    "orthonormalize",
    "projector_from_basis",
    "singular_values",
    "spectrum_rank",
    "subspace_gap",
    "tensor_product",
]


def as_complex_matrix(a: np.ndarray | Sequence) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ContractError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ContractError("matrix contains non-finite entries")
    return m


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, non-increasing; raises NumericError if LAPACK does not converge."""
    m = as_complex_matrix(a)
    if 0 in m.shape:
        return np.zeros(0)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"SVD did not converge on shape {m.shape}: {exc}") from exc


def operator_norm(a: np.ndarray) -> float:
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_complex_matrix(a)))


def spectrum_rank(s: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Count of a non-increasing spectrum above ``rel_tol * s[0]``; 0 if empty or zero."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def numerical_rank(a: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular values above ``rel_tol * sigma_max``; 0 for the zero matrix."""
    if not 0.0 < rel_tol < 1.0:
        raise ContractError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return spectrum_rank(singular_values(a), rel_tol)


def tensor_product(a: np.ndarray, b: np.ndarray, *, cap: int = MATRIX_CAP) -> np.ndarray:
    """Kronecker product with the first factor slowest.

    Basis labels follow lexicographic multi-index order with the first
    factor's index varying slowest (C-order raveling), the convention used
    by every polydisc assembly in this package.
    """
    ma, mb = as_complex_matrix(a), as_complex_matrix(b)
    rows = ma.shape[0] * mb.shape[0]
    cols = ma.shape[1] * mb.shape[1]
    if rows > cap or cols > cap:
        raise SizingError(
            f"tensor product of {ma.shape} and {mb.shape} has "
            f"{max(rows, cols)} rows/cols, exceeding the cap {cap}"
        )
    return np.kron(ma, mb)


def kron_all(mats: Iterable[np.ndarray], *, cap: int = MATRIX_CAP) -> np.ndarray:
    """Kronecker product of several factors, first slowest, cap enforced."""
    mats = list(mats)
    if not mats:
        raise ContractError("kron_all needs at least one factor")
    if len(mats) == 1:
        return as_complex_matrix(mats[0])
    return reduce(lambda x, y: tensor_product(x, y, cap=cap), mats)


def orthonormalize(columns: np.ndarray, *, rel_tol: float = SPAN_RANK_REL_TOL) -> np.ndarray:
    """QR-orthonormalize nearly independent columns, preserving their span.

    Already orthonormal input comes back unchanged up to a unimodular phase
    per column.  Numerically dependent columns raise RankDeficiencyError
    carrying the detected rank.
    """
    m = as_complex_matrix(columns)
    if m.shape[1] == 0:
        return m.copy()
    s = singular_values(m)
    if s[0] == 0.0:
        raise RankDeficiencyError("all columns are zero", detected_rank=0)
    rank = int(np.count_nonzero(s > rel_tol * s[0]))
    if rank < m.shape[1]:
        raise RankDeficiencyError(
            f"columns are dependent at rel_tol {rel_tol:g}: "
            f"detected rank {rank} < {m.shape[1]} columns",
            detected_rank=rank,
        )
    q, _ = np.linalg.qr(m)
    return q


def orthonormal_basis_of_span(
    columns: np.ndarray, *, rel_tol: float = SPAN_RANK_REL_TOL
) -> np.ndarray:
    """Orthonormal basis of the column span, rank-filtered (dependence allowed)."""
    m = as_complex_matrix(columns)
    if m.shape[1] == 0 or m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    keep = s > rel_tol * s[0]
    return u[:, keep]


def projector_from_basis(orthonormal_columns: np.ndarray, *, tol: float = ORTHONORMALITY_TOL) -> np.ndarray:
    """Orthogonal projector ``B B*`` onto the span of orthonormal columns."""
    b = as_complex_matrix(orthonormal_columns)
    if b.shape[1] == 0:
        return np.zeros((b.shape[0], b.shape[0]), dtype=complex)
    gram = b.conj().T @ b
    dev = np.linalg.norm(gram - np.eye(b.shape[1]), 2)
    if dev > tol:
        raise ContractError(
            f"basis columns are not orthonormal: Gram deviation {dev:.3e} > {tol:g}"
        )
    return b @ b.conj().T


def check_projector(p: np.ndarray, *, idem_tol: float = PROJECTOR_TOL, herm_tol: float = 1e-12) -> None:
    """Raise ContractError unless p is Hermitian idempotent within tolerance."""
    m = as_complex_matrix(p)
    herm = np.linalg.norm(m - m.conj().T, 2)
    if herm > herm_tol:
        raise ContractError(f"projector is not Hermitian: deviation {herm:.3e}")
    idem = np.linalg.norm(m @ m - m, 2)
    if idem > idem_tol:
        raise ContractError(f"projector is not idempotent: deviation {idem:.3e}")


def subspace_gap(u_basis: np.ndarray, v_basis: np.ndarray) -> float:
    """Largest sine of a principal angle from span(u) into span(v).

    Directional: zero iff span(u) is contained in span(v).  Bases must have
    orthonormal columns.
    """
    u = as_complex_matrix(u_basis)
    v = as_complex_matrix(v_basis)
    if u.shape[1] == 0:
        return 0.0
    if v.shape[1] == 0:
        return 1.0
    resid = u - v @ (v.conj().T @ u)
    return min(1.0, operator_norm(resid))


def symmetric_gap(u_basis: np.ndarray, v_basis: np.ndarray) -> float:
    """max of the two directional gaps; zero iff the spans coincide."""
    return max(subspace_gap(u_basis, v_basis), subspace_gap(v_basis, u_basis))
