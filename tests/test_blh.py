"""Representing pencil: construction, inner-ness, ranges, wandering subspaces."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from polyhardy import (
    BlaschkeProduct,
    FullHardy,
    Inner,
    build_blh_symbol,
    evaluate_symbol,
    make_scenario,
    pencil_residuals,
    submodule_projection,
    verify_inner,
    verify_range,
    wandering_subspace,
)
from polyhardy.blh import shifted_span_gaps, symbol_columns
from polyhardy.errors import ContractError
from polyhardy.kernel import subspace_gap

from conftest import random_inner_scenario


def z_factor():
    return Inner(BlaschkeProduct([0.0]))


def test_single_factor_case():
    scn = make_scenario([z_factor(), FullHardy()], (10, 8))
    sym = build_blh_symbol(scn)
    assert np.linalg.norm(sym.constant_part) == 0.0
    assert np.allclose(sym.theta_part, np.eye(9))
    assert np.allclose(evaluate_symbol(sym, 0.37), 0.37 * np.eye(9))


def test_two_inner_pencil_shape():
    scn = make_scenario([Inner(BlaschkeProduct([0.4])), z_factor()], (12, 10))
    sym = build_blh_symbol(scn)
    # theta part projects onto the slot-1 model space (constants for theta = z)
    b = sym.theta_part
    e0 = np.zeros(11)
    e0[0] = 1.0
    assert np.linalg.norm(b @ e0 - e0) <= 1e-12
    assert abs(np.trace(b) - 1.0) <= 1e-12
    res = pencil_residuals(sym)
    assert max(res.values()) <= 1e-10


def test_pencil_residuals_random():
    rng = np.random.default_rng(40)
    scn = random_inner_scenario(rng, 3, (8, 8, 8), max_degree=2, max_modulus=0.5)
    res = pencil_residuals(build_blh_symbol(scn))
    assert max(res.values()) <= 1e-10


def test_contractive_at_origin_unitary_on_boundary():
    scn = make_scenario([z_factor(), z_factor(), z_factor()], (6, 6, 6))
    sym = build_blh_symbol(scn)
    at0 = evaluate_symbol(sym, 0.0)
    assert np.linalg.norm(at0.conj().T @ at0, 2) <= 1.0 + 1e-12
    assert verify_inner(sym, 256) <= 1e-8


def test_verify_inner_random():
    rng = np.random.default_rng(41)
    scn = random_inner_scenario(rng, 2, (16, 16), max_degree=2, max_modulus=0.6)
    sym = build_blh_symbol(scn)
    assert verify_inner(sym, 256) <= 1e-8


def test_verify_inner_grid_floor():
    scn = make_scenario([z_factor(), z_factor()], (6, 6))
    with pytest.raises(ContractError):
        verify_inner(build_blh_symbol(scn), 32)


def test_perturbed_pencil_is_flagged():
    scn = make_scenario([Inner(BlaschkeProduct([0.4])), z_factor()], (12, 12))
    sym = build_blh_symbol(scn)
    broken = dataclasses.replace(sym, theta_part=0.9 * sym.theta_part)
    deviation = verify_inner(broken, 128)
    assert abs(deviation - 0.19) <= 0.02
    assert deviation > 1e-2


def test_degenerate_scenario_rejected():
    scn = make_scenario([FullHardy(), FullHardy()], (6, 6))
    with pytest.raises(ContractError):
        build_blh_symbol(scn)


def test_permutation_when_first_slot_full():
    scn = make_scenario([FullHardy(), Inner(BlaschkeProduct([0.3]))], (8, 20))
    sym = build_blh_symbol(scn)
    assert sym.permutation == (1, 0)
    assert isinstance(sym.scenario.factors[0], Inner)
    handle = submodule_projection(sym.scenario)
    assert verify_range(sym, handle) <= 1e-6


def test_verify_range_positive_controls():
    rng = np.random.default_rng(42)
    scn = random_inner_scenario(rng, 2, (24, 24), max_degree=2, max_modulus=0.6)
    sym = build_blh_symbol(scn)
    handle = submodule_projection(scn)
    assert verify_range(sym, handle) <= 1e-6

    scn3 = make_scenario(
        [z_factor(), Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (6, 6, 6)
    )
    sym3 = build_blh_symbol(scn3)
    handle3 = submodule_projection(scn3)
    assert verify_range(sym3, handle3, window=3) <= 1e-6


def test_verify_range_flags_mismatched_scenario():
    scn_a = make_scenario([z_factor(), z_factor()], (16, 16))
    scn_b = make_scenario([Inner(BlaschkeProduct([0.5])), z_factor()], (16, 16))
    sym = build_blh_symbol(scn_a)
    handle = submodule_projection(scn_b)
    assert verify_range(sym, handle) >= 0.05


def test_wandering_z_z_contains_expected_vectors():
    n = 8
    scn = make_scenario([z_factor(), z_factor()], (n, n))
    handle = submodule_projection(scn)
    w = wandering_subspace(handle, 0)
    assert w.shape[1] == n + 1
    dim = handle.dimension
    # z_0 direction: raveled index (1, 0); the z_1 chain: indices (0, k), k >= 1
    members = [np.zeros(dim, dtype=complex) for _ in range(2)]
    members[0][(n + 1) * 1 + 0] = 1.0
    members[1][0 * (n + 1) + 3] = 1.0
    for vec in members:
        assert subspace_gap(vec[:, None], w) <= 1e-10


def test_wandering_single_factor_dimension():
    scn = make_scenario([Inner(BlaschkeProduct([0.4])), FullHardy()], (20, 7))
    handle = submodule_projection(scn)
    w = wandering_subspace(handle, 0)
    assert w.shape[1] == 8
    gram = w.conj().T @ w
    assert np.linalg.norm(gram - np.eye(8), 2) <= 1e-10


def test_wandering_degenerate_empty():
    scn = make_scenario([FullHardy(), FullHardy()], (6, 6))
    handle = submodule_projection(scn)
    assert wandering_subspace(handle, 0).shape[1] == 0


@pytest.mark.parametrize(
    "factors, degrees",
    [
        ([Inner(BlaschkeProduct([0.4])), Inner(BlaschkeProduct([0.3, -0.2j]))], (14, 12)),
        ([FullHardy(), Inner(BlaschkeProduct([0.3]))], (6, 14)),
        (
            [Inner(BlaschkeProduct([0.3])), FullHardy(), Inner(BlaschkeProduct([0.2 + 0.1j]))],
            (10, 5, 8),
        ),
        (
            [FullHardy(), Inner(BlaschkeProduct([0.4, 0.1])), Inner(BlaschkeProduct([0.3]))],
            (4, 10, 8),
        ),
    ],
)
def test_wandering_dimension_is_coefficient_dimension(factors, degrees):
    # BLH: the wandering subspace for z_0 is Theta applied to the coefficient space
    sym = build_blh_symbol(make_scenario(factors, degrees))
    handle = submodule_projection(sym.scenario)
    assert wandering_subspace(handle, 0).shape[1] == sym.coefficient_dimension


def test_wandering_generates_submodule():
    rng = np.random.default_rng(43)
    scn = random_inner_scenario(rng, 2, (24, 24), max_degree=2, max_modulus=0.6)
    handle = submodule_projection(scn)
    w = wandering_subspace(handle, 0)
    gaps = shifted_span_gaps(handle, w, slot=0)
    assert gaps["containment"] <= 1e-6
    assert gaps["generation"] <= 1e-6


def test_symbol_reordering_leaves_range_invariant():
    # reordering the non-distinguished slots permutes coefficient axes only
    za, zb = BlaschkeProduct([0.3]), BlaschkeProduct([0.2j])
    scn_a = make_scenario([z_factor(), Inner(za), Inner(zb)], (6, 8, 8))
    scn_b = make_scenario([z_factor(), Inner(zb), Inner(za)], (6, 8, 8))
    cols_a = symbol_columns(build_blh_symbol(scn_a))
    cols_b = symbol_columns(build_blh_symbol(scn_b))
    dims = (7, 9, 9)
    # transpose slots 1 and 2 of the row index of cols_b
    swapped = (
        cols_b.reshape(dims + (-1,)).transpose(0, 2, 1, 3).reshape(cols_a.shape[0], -1)
    )
    from polyhardy.kernel import orthonormal_basis_of_span, symmetric_gap

    span_a = orthonormal_basis_of_span(cols_a)
    span_b = orthonormal_basis_of_span(swapped)
    assert symmetric_gap(span_a, span_b) <= 1e-10


def test_wandering_at_dimension_2601():
    # D = 51 * 51 = 2601: the basis needs no ambient-size eigendecomposition
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.5, -0.3j])), Inner(BlaschkeProduct([0.4 + 0.2j]))], (50, 50)
    )
    sym = build_blh_symbol(scn)
    handle = submodule_projection(sym.scenario)
    assert handle.dimension == 2601
    assert wandering_subspace(handle, 0).shape[1] == sym.coefficient_dimension
