"""Kernel primitives: tensor products, SVD, ranks, orthonormalization, projectors."""

from __future__ import annotations

import numpy as np
import pytest

from polyhardy import kernel
from polyhardy.errors import ContractError, RankDeficiencyError, SizingError

from conftest import random_complex_matrix


def test_tensor_identity_case():
    out = kernel.tensor_product(np.eye(2), np.eye(3))
    assert np.array_equal(out, np.eye(6))


def test_tensor_scalar_case():
    rng = np.random.default_rng(0)
    b = random_complex_matrix(rng, 3, 2)
    out = kernel.tensor_product(np.array([[2.0]]), b)
    assert np.allclose(out, 2.0 * b)


def test_tensor_norm_multiplicativity():
    rng = np.random.default_rng(1)
    a = random_complex_matrix(rng, 2, 2)
    b = random_complex_matrix(rng, 2, 2)
    lhs = kernel.operator_norm(kernel.tensor_product(a, b))
    rhs = kernel.operator_norm(a) * kernel.operator_norm(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_tensor_norm_laws_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        ra, ca, rb, cb = rng.integers(1, 9, size=4)
        a = random_complex_matrix(rng, ra, ca)
        b = random_complex_matrix(rng, rb, cb)
        t = kernel.tensor_product(a, b)
        op = kernel.operator_norm(a) * kernel.operator_norm(b)
        hs = kernel.hs_norm(a) * kernel.hs_norm(b)
        assert abs(kernel.operator_norm(t) - op) <= 1e-9 * max(1.0, op)
        assert abs(kernel.hs_norm(t) - hs) <= 1e-9 * max(1.0, hs)


def test_tensor_cap():
    with pytest.raises(SizingError):
        kernel.tensor_product(np.eye(100), np.eye(100), cap=4096)


def test_svd_diagonal():
    assert np.allclose(kernel.singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])


def test_svd_rank_one():
    rng = np.random.default_rng(3)
    u = random_complex_matrix(rng, 4, 1)
    v = random_complex_matrix(rng, 4, 1)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    s = kernel.singular_values(u @ v.conj().T)
    assert abs(s[0] - 1.0) <= 1e-12
    assert np.all(s[1:] <= 1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(ContractError):
        kernel.singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_numerical_rank_cases():
    rng = np.random.default_rng(5)
    assert kernel.numerical_rank(np.zeros((3, 3))) == 0
    assert kernel.numerical_rank(np.eye(7)) == 7
    u = random_complex_matrix(rng, 6, 1)
    v = random_complex_matrix(rng, 6, 1)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    noise = random_complex_matrix(rng, 6, 6)
    noise /= np.linalg.norm(noise, 2)
    m = u @ v.conj().T + 1e-14 * noise
    assert kernel.numerical_rank(m, 1e-8) == 1


def test_numerical_rank_tol_domain():
    with pytest.raises(ContractError):
        kernel.numerical_rank(np.eye(2), rel_tol=2.0)


def test_orthonormalize_stable_on_orthonormal_input():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(random_complex_matrix(rng, 6, 3))
    out = kernel.orthonormalize(q)
    phases = np.abs(np.sum(out.conj() * q, axis=0))
    assert np.allclose(phases, 1.0, atol=1e-12)


def test_orthonormalize_two_columns():
    cols = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = kernel.orthonormalize(cols)
    gram = out.conj().T @ out
    assert np.linalg.norm(gram - np.eye(2), 2) <= 1e-12
    # same span: both original columns stay inside the output span
    proj = out @ (out.conj().T @ cols)
    assert np.linalg.norm(proj - cols) <= 1e-10


def test_orthonormalize_single_column():
    col = np.array([[0.0], [2.0], [0.0]], dtype=complex)
    out = kernel.orthonormalize(col)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-14
    assert abs(abs(np.vdot(out[:, 0], col[:, 0])) - 2.0) <= 1e-12


def test_orthonormalize_dependent_columns():
    cols = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RankDeficiencyError) as info:
        kernel.orthonormalize(cols)
    assert info.value.detected_rank == 1


def test_projector_cases():
    assert np.array_equal(
        kernel.projector_from_basis(np.zeros((4, 0), dtype=complex)), np.zeros((4, 4))
    )
    assert np.allclose(kernel.projector_from_basis(np.eye(4)), np.eye(4))
    u = np.array([[0.6], [0.8j], [0.0]], dtype=complex)
    p = kernel.projector_from_basis(u)
    assert abs(np.trace(p) - 1.0) <= 1e-12
    assert np.linalg.norm(p @ u - u) <= 1e-12


def test_projector_invariants():
    rng = np.random.default_rng(7)
    for cols in (1, 3, 5):
        q, _ = np.linalg.qr(random_complex_matrix(rng, 8, cols))
        p = kernel.projector_from_basis(q)
        assert np.linalg.norm(p @ p - p, 2) <= 1e-10
        assert np.linalg.norm(p - p.conj().T, 2) <= 1e-12


def test_projector_rejects_nonorthonormal():
    with pytest.raises(ContractError):
        kernel.projector_from_basis(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_subspace_gap_directional():
    e1 = np.eye(3)[:, :1]
    e12 = np.eye(3)[:, :2]
    assert kernel.subspace_gap(e1, e12) <= 1e-15
    assert abs(kernel.subspace_gap(e12, e1) - 1.0) <= 1e-15
