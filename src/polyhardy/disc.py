"""One-variable layer: finite Blaschke products and truncated disc operators.

Everything lives in the truncated monomial basis ``1, z, ..., z^N`` of the
Hardy space of the disc.  A finite Blaschke product ``B`` of degree ``m``
has an ``m``-dimensional model space ``H^2 \\ominus B H^2``, realized here
through Takenaka-Malmquist columns

    e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} (z - a_j)/(1 - conj(a_j) z)

truncated at degree ``N`` and re-orthonormalized.  Coefficient tails decay
geometrically like ``rho^N`` with ``rho = max |a_k|``, and every error bound
in this module is a product of two such tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .defaults import (
    GRAM_TOL,
    TAIL_WINDOW,
    UNIMODULAR_TOL,
    ZERO_MODULUS_BOUND,
    ZERO_MODULUS_MARGIN,
    minimum_truncation,
)
from .errors import ContractError, SizingError, TruncationError

__all__ = [
    "BlaschkeProduct",
    "ModelSpace1D",
    "blaschke_eval",
    "boundary_values",
    "model_space",
    "multiplication_operator",
    "rank_one_compression",
    "taylor_coefficients",
    "truncated_shift",
]


class BlaschkeProduct:
    """A finite Blaschke product: interior zeros plus a unimodular constant."""

    __slots__ = ("zeros", "constant")

    def __init__(
        self,
        zeros=(),
        constant: complex = 1.0,
        *,
        max_modulus: float = ZERO_MODULUS_BOUND,
    ):
        zs = tuple(complex(a) for a in zeros)
        for a in zs:
            if abs(a) > max_modulus:
                raise ContractError(
                    f"zero {a} has modulus {abs(a):.6f} exceeding the bound {max_modulus}"
                )
            if abs(a) > 1.0 - ZERO_MODULUS_MARGIN:
                raise ContractError(
                    f"zero {a} is not strictly interior (margin {ZERO_MODULUS_MARGIN:g})"
                )
        c = complex(constant)
        if abs(abs(c) - 1.0) > UNIMODULAR_TOL:
            raise ContractError(f"constant {c} is not unimodular: |c| = {abs(c)!r}")
        self.zeros = zs
        self.constant = c

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def zero_radius(self) -> float:
        """max |a_k|, the geometric decay rate of the coefficient tail."""
        return max((abs(a) for a in self.zeros), default=0.0)

    def __repr__(self) -> str:
        return f"BlaschkeProduct(zeros={list(self.zeros)!r}, constant={self.constant!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlaschkeProduct)
            and self.zeros == other.zeros
            and self.constant == other.constant
        )

    def __hash__(self) -> int:
        return hash((self.zeros, self.constant))


@dataclass(frozen=True)
class ModelSpace1D:
    """Orthonormal truncated model-space basis plus its compressed shift.

    ``basis`` has one column per zero of ``source`` expressed in monomial
    coordinates; ``compressed_shift`` is the matrix of the compression of
    multiplication-by-z to the model space in that basis.  Treat all arrays
    as immutable.
    """

    source: BlaschkeProduct
    truncation: int
    basis: np.ndarray
    compressed_shift: np.ndarray
    gram_deviation: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def blaschke_eval(b: BlaschkeProduct, z: complex) -> complex:
    """Evaluate the product at a point of the closed disc."""
    z = complex(z)
    if abs(z) > 1.0 + 1e-8:
        raise ContractError(f"|z| = {abs(z):.6f} lies outside the closed disc")
    value = b.constant
    for a in b.zeros:
        value *= (z - a) / (1.0 - a.conjugate() * z)
    return value


def taylor_coefficients(b: BlaschkeProduct, n: int) -> np.ndarray:
    """First n+1 Taylor coefficients at the origin."""
    if n < b.degree:
        raise SizingError(f"truncation {n} is below the Blaschke degree {b.degree}")
    c = np.zeros(n + 1, dtype=complex)
    c[0] = b.constant
    powers = np.arange(n + 1)
    for a in b.zeros:
        # multiply the series by (z - a) / (1 - conj(a) z)
        c = np.convolve(c, a.conjugate() ** powers)[: n + 1]
        shifted = np.zeros(n + 1, dtype=complex)
        shifted[1:] = c[:-1]
        c = shifted - a * c
    return c


def truncated_shift(n: int) -> np.ndarray:
    """Matrix of multiplication by z on degrees <= n; the top degree maps to 0."""
    s = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n):
        s[k + 1, k] = 1.0
    return s


def multiplication_operator(b: BlaschkeProduct, n: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of the truncated symbol."""
    return coefficient_multiplication_operator(taylor_coefficients(b, n), n)


def coefficient_multiplication_operator(coefficients, n: int) -> np.ndarray:
    """Truncated Toeplitz matrix of a raw coefficient list.

    Diagnostics entry point for symbols that are not finite Blaschke
    products (singular inner functions, infinite products): no model space
    exists for them here, but their truncated multiplication operators do.
    """
    coeffs = np.asarray(coefficients, dtype=complex).ravel()
    if coeffs.size < n + 1:
        padded = np.zeros(n + 1, dtype=complex)
        padded[: coeffs.size] = coeffs
        coeffs = padded
    m = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        m[j:, j] = coeffs[: n + 1 - j]
    return m


def takenaka_malmquist_columns(b: BlaschkeProduct, n: int) -> np.ndarray:
    """Raw truncated Takenaka-Malmquist columns, before re-orthonormalization."""
    m = b.degree
    powers = np.arange(n + 1)
    cols = np.zeros((n + 1, m), dtype=complex)
    for k in range(m):
        a = b.zeros[k]
        c = np.sqrt(1.0 - abs(a) ** 2) * (a.conjugate() ** powers)
        for j in range(k):
            zj = b.zeros[j]
            c = np.convolve(c, zj.conjugate() ** powers)[: n + 1]
            shifted = np.zeros(n + 1, dtype=complex)
            shifted[1:] = c[:-1]
            c = shifted - zj * c
        cols[:, k] = c
    return cols


def model_space(b: BlaschkeProduct, n: int, *, gram_tol: float = GRAM_TOL) -> ModelSpace1D:
    """Truncated model space of a Blaschke product of degree >= 1.

    Raises TruncationError when the truncated columns are too far from
    orthonormal (Gram deviation above ``gram_tol``), which means ``n`` is
    too small for the zero moduli at hand.
    """
    if b.degree < 1:
        raise ContractError("model_space needs a Blaschke product of degree >= 1")
    if n < minimum_truncation(b.degree):
        raise TruncationError(
            f"truncation {n} below the floor {minimum_truncation(b.degree)} "
            f"for degree {b.degree}"
        )
    raw = takenaka_malmquist_columns(b, n)
    gram = raw.conj().T @ raw
    gdev = float(np.linalg.norm(gram - np.eye(b.degree), 2))
    if gdev > gram_tol:
        raise TruncationError(
            f"Gram deviation {gdev:.3e} exceeds {gram_tol:g} at truncation {n}; "
            f"increase the truncation degree (zero radius {b.zero_radius:.3f})"
        )
    basis = kernel.orthonormalize(raw)
    shift = truncated_shift(n)
    compressed = basis.conj().T @ shift @ basis
    return ModelSpace1D(
        source=b,
        truncation=n,
        basis=basis,
        compressed_shift=compressed,
        gram_deviation=gdev,
    )


def shift_range_columns(
    b: BlaschkeProduct, n: int, *, window: int = TAIL_WINDOW
) -> np.ndarray:
    """Orthonormal columns spanning the truncated shifted multiples of b.

    Columns are the truncations of ``z^j * b`` for ``j <= n - degree - window``;
    the discarded top window keeps the raw columns near-isometric.
    """
    j_max = n - b.degree - window
    if j_max < 0:
        raise TruncationError(
            f"truncation {n} leaves no columns below the tail window {window} "
            f"for degree {b.degree}"
        )
    mult = multiplication_operator(b, n)
    return kernel.orthonormalize(mult[:, : j_max + 1])


def rank_one_compression(
    b: BlaschkeProduct,
    n: int,
    *,
    window: int = TAIL_WINDOW,
    gram_tol: float = GRAM_TOL,
) -> np.ndarray:
    """Compression of the backward shift from the shifted-multiples span to the model space.

    The result maps the orthonormalized truncated columns of ``z^j b`` into
    the model-space basis; it is numerically rank one with norm
    ``sqrt(1 - |b(0)|^2)``.
    """
    parts = rank_one_compression_parts(b, n, window=window, gram_tol=gram_tol)
    return parts[0]


def rank_one_compression_parts(
    b: BlaschkeProduct,
    n: int,
    *,
    window: int = TAIL_WINDOW,
    gram_tol: float = GRAM_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(compression, model basis, domain basis) for the rank-one compression."""
    if b.degree < 1:
        raise ContractError("rank_one_compression needs degree >= 1")
    space = model_space(b, n, gram_tol=gram_tol)
    domain = shift_range_columns(b, n, window=window)
    shift = truncated_shift(n)
    comp = space.basis.conj().T @ shift.conj().T @ domain
    return comp, space.basis, domain


def predicted_compression_norm(b: BlaschkeProduct) -> float:
    """Closed form sqrt(1 - |b(0)|^2) for the rank-one compression norm."""
    v0 = blaschke_eval(b, 0.0)
    return float(np.sqrt(max(0.0, 1.0 - abs(v0) ** 2)))


def boundary_values(b: BlaschkeProduct, grid: int) -> np.ndarray:
    """Values of b at the ``grid`` points e^{2 pi i k / grid} of the unit circle."""
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    values = np.full(grid, b.constant, dtype=complex)
    for a in b.zeros:
        values *= (z - a) / (1.0 - a.conjugate() * z)
    return values
