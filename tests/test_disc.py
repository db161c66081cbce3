"""One-variable layer: Blaschke products, Toeplitz symbols, model spaces."""

from __future__ import annotations

import numpy as np
import pytest

from polyhardy import (
    BlaschkeProduct,
    blaschke_eval,
    model_space,
    multiplication_operator,
    rank_one_compression,
    taylor_coefficients,
)
from polyhardy.disc import (
    boundary_values,
    predicted_compression_norm,
    rank_one_compression_parts,
    shift_range_columns,
    truncated_shift,
)
from polyhardy.errors import ContractError, SizingError, TruncationError

from conftest import random_blaschke


def test_eval_empty_product():
    b = BlaschkeProduct([], 1.0)
    assert blaschke_eval(b, 0.3) == 1.0


def test_eval_single_zero_at_origin():
    b = BlaschkeProduct([0.0])
    assert abs(blaschke_eval(b, 0.5) - 0.5) <= 1e-15


def test_eval_single_zero_half():
    b = BlaschkeProduct([0.5])
    assert abs(blaschke_eval(b, 0.0) - (-0.5)) <= 1e-15


def test_eval_outside_disc_rejected():
    with pytest.raises(ContractError):
        blaschke_eval(BlaschkeProduct([0.2]), 1.5)


def test_zero_modulus_bound():
    with pytest.raises(ContractError) as info:
        BlaschkeProduct([0.99])
    assert "0.95" in str(info.value)


def test_constant_must_be_unimodular():
    with pytest.raises(ContractError):
        BlaschkeProduct([0.1], constant=0.5)


def test_boundary_unimodularity():
    rng = np.random.default_rng(10)
    for _ in range(5):
        b = random_blaschke(rng, max_degree=5, max_modulus=0.7)
        values = boundary_values(b, 256)
        assert values.shape == (256,)
        assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-10
        assert abs(values[64] - blaschke_eval(b, 1j)) <= 1e-14


def test_taylor_monomial():
    b = BlaschkeProduct([0.0, 0.0])
    assert np.allclose(taylor_coefficients(b, 4), [0, 0, 1, 0, 0])


def test_taylor_single_zero_half():
    b = BlaschkeProduct([0.5])
    expected = [-0.5, 0.75, 0.375, 0.1875]
    assert np.allclose(taylor_coefficients(b, 3), expected, atol=1e-15)


def test_taylor_matches_boundary_eval():
    rng = np.random.default_rng(11)
    theta = 0.7
    z = np.exp(1j * theta)
    for _ in range(5):
        b = random_blaschke(rng, max_degree=4, max_modulus=0.6)
        coeffs = taylor_coefficients(b, 60)
        total = np.polyval(coeffs[::-1], z)
        assert abs(abs(total) - abs(blaschke_eval(b, z))) <= 1e-8


def test_taylor_needs_room():
    with pytest.raises(SizingError):
        taylor_coefficients(BlaschkeProduct([0.1, 0.2]), 1)


def test_multiplication_operator_shift():
    b = BlaschkeProduct([0.0])
    assert np.array_equal(multiplication_operator(b, 3), truncated_shift(3))


def test_multiplication_operator_constant():
    c = np.exp(0.4j)
    b = BlaschkeProduct([], constant=c)
    assert np.allclose(multiplication_operator(b, 4), c * np.eye(5))


def test_multiplication_column_isometry():
    b = BlaschkeProduct([0.5])
    n = 40
    m = multiplication_operator(b, n)
    assert abs(np.linalg.norm(m[:, 0]) - 1.0) <= 0.5 ** (2 * (n - 1))
    # all columns below the tail window stay isometric within the tail bound
    tau = 0.5 ** (n - b.degree - 20)
    for j in range(n - b.degree - 20 + 1):
        assert abs(np.linalg.norm(m[:, j]) - 1.0) <= tau


def test_model_space_single_zero_at_origin():
    ms = model_space(BlaschkeProduct([0.0]), 20)
    e0 = np.zeros(21)
    e0[0] = 1.0
    assert np.allclose(np.abs(ms.basis[:, 0]), e0)
    assert np.allclose(ms.compressed_shift, [[0.0]])


def test_model_space_double_zero_at_origin():
    ms = model_space(BlaschkeProduct([0.0, 0.0]), 20)
    assert ms.dimension == 2
    # basis spans {1, z}; compressed shift is the nilpotent cell
    assert np.allclose(np.abs(ms.compressed_shift), [[0.0, 0.0], [1.0, 0.0]])
    assert np.linalg.norm(np.linalg.matrix_power(ms.compressed_shift, 2), 2) <= 1e-12


def test_model_space_geometric_column():
    ms = model_space(BlaschkeProduct([0.5]), 60)
    col = ms.basis[:, 0]
    expected = np.sqrt(0.75) * 0.5 ** np.arange(61)
    phase = np.vdot(expected, col)
    phase /= abs(phase)
    assert np.linalg.norm(col - phase * expected) <= 1e-10


def test_model_space_orthogonal_to_shifted_multiples_exact_for_monomials():
    ms = model_space(BlaschkeProduct([0.0, 0.0]), 12)
    cols = multiplication_operator(BlaschkeProduct([0.0, 0.0]), 12)
    assert np.linalg.norm(ms.basis.conj().T @ cols, 2) == 0.0


def test_model_space_orthogonal_to_shifted_multiples():
    rng = np.random.default_rng(12)
    for _ in range(4):
        b = random_blaschke(rng, max_degree=3, max_modulus=0.6)
        n = 60
        ms = model_space(b, n)
        window = n - b.degree - 20
        cols = multiplication_operator(b, n)[:, : window + 1]
        tau = max(b.zero_radius, 1e-16) ** (n - b.degree - 20)
        overlap = np.linalg.norm(ms.basis.conj().T @ cols, 2)
        assert overlap <= max(tau, 1e-12)


def test_compressed_shift_contraction_and_nilpotency():
    rng = np.random.default_rng(13)
    for _ in range(4):
        b = random_blaschke(rng, max_degree=5, max_modulus=0.7)
        ms = model_space(b, 60)
        assert np.linalg.norm(ms.compressed_shift, 2) <= 1.0 + 1e-10
    m = 4
    ms = model_space(BlaschkeProduct([0.0] * m), 30)
    assert np.linalg.norm(np.linalg.matrix_power(ms.compressed_shift, m), 2) <= 1e-12


def test_model_space_requires_degree():
    with pytest.raises(ContractError):
        model_space(BlaschkeProduct([], 1.0), 20)


def test_model_space_truncation_error():
    with pytest.raises(TruncationError) as info:
        model_space(BlaschkeProduct([0.9], max_modulus=0.95), 10)
    assert "increase the truncation" in str(info.value)


def test_rank_one_norm_shift():
    c = rank_one_compression(BlaschkeProduct([0.0]), 60)
    s = np.linalg.svd(c, compute_uv=False)
    assert abs(s[0] - 1.0) <= 1e-12


def test_rank_one_norm_half():
    c = rank_one_compression(BlaschkeProduct([0.5]), 60)
    s = np.linalg.svd(c, compute_uv=False)
    assert abs(s[0] - np.sqrt(0.75)) <= 1e-8


def test_rank_one_random_family():
    rng = np.random.default_rng(14)
    for _ in range(10):
        b = random_blaschke(rng, max_degree=5, max_modulus=0.7)
        c = rank_one_compression(b, 60)
        s = np.linalg.svd(c, compute_uv=False)
        assert s.size == 0 or s[1:].size == 0 or s[1] <= 1e-8 * s[0]
        assert abs(s[0] - predicted_compression_norm(b)) <= 1e-6


def test_rank_one_action_formula():
    # the compression acts as g |-> <g, theta> * (backward shift of theta)
    rng = np.random.default_rng(15)
    n = 60
    for _ in range(4):
        b = random_blaschke(rng, max_degree=4, max_modulus=0.6)
        comp, basis, domain = rank_one_compression_parts(b, n)
        theta = taylor_coefficients(b, n)
        shifted = truncated_shift(n).conj().T @ theta
        u = basis.conj().T @ shifted
        weights = domain.conj().T @ theta
        expected = np.outer(u, weights.conj())
        tau = max(b.zero_radius, 1e-16) ** (n - b.degree - 20)
        assert np.linalg.norm(comp - expected, 2) <= max(tau, 1e-10)


def test_shift_range_columns_need_window():
    with pytest.raises(TruncationError):
        shift_range_columns(BlaschkeProduct([0.3, 0.2]), 10, window=20)


def test_coefficient_multiplication_operator():
    from polyhardy.disc import coefficient_multiplication_operator

    b = BlaschkeProduct([0.4, -0.1j])
    direct = multiplication_operator(b, 12)
    from_coeffs = coefficient_multiplication_operator(taylor_coefficients(b, 12), 12)
    assert np.array_equal(direct, from_coeffs)
    # short coefficient lists are zero-padded: a plain polynomial symbol
    poly = coefficient_multiplication_operator([1.0, 0.5], 3)
    expected = np.array(
        [[1.0, 0, 0, 0], [0.5, 1.0, 0, 0], [0, 0.5, 1.0, 0], [0, 0, 0.5, 1.0]]
    )
    assert np.allclose(poly, expected)
