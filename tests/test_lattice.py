"""Polydisc assembly: projections, shifts, quotient handles, structural identities."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import pytest

from polyhardy import (
    BlaschkeProduct,
    FullHardy,
    Inner,
    commuting_projection_sum,
    coordinate_shift,
    make_scenario,
    quotient_assembly,
    submodule_projection,
)
from polyhardy.errors import ContractError, ScenarioError, SizingError
from polyhardy.kernel import orthonormal_basis_of_span, projector_from_basis
from polyhardy.lattice import (
    default_degrees,
    inner_range_projections,
    interior_mask,
    projection_formula_residuals,
    quotient_basis,
    shift_invariance_residual,
    slot_apply,
    submodule_span_gap,
)

from conftest import random_complex_matrix, random_inner_scenario


def z_factor():
    return Inner(BlaschkeProduct([0.0]))


def test_slot_apply_matches_dense_kron():
    rng = np.random.default_rng(20)
    # (dims, slot, rows of op, columns of x or None for a 1-D vector)
    cases = [((3, 4, 2), slot, d, 5) for slot, d in enumerate((3, 4, 2))]
    # rectangular operators: the slot changes dimension
    cases += [((3, 4, 2), 0, 5, 5), ((3, 4, 2), 1, 2, 5), ((3, 4, 2), 2, 3, 5)]
    cases += [((3, 4, 2), 1, 4, None), ((3, 4, 2), 2, 3, None)]
    # the last slot of an n=4 product
    cases += [((2, 3, 2, 3), 3, 3, 4), ((2, 3, 2, 3), 3, 2, None)]
    for dims, slot, rows, cols in cases:
        x = random_complex_matrix(rng, math.prod(dims), cols or 1)
        if cols is None:
            x = x[:, 0]
        op = random_complex_matrix(rng, rows, dims[slot])
        mats = [np.eye(d, dtype=complex) for d in dims]
        mats[slot] = op
        dense = reduce(np.kron, mats) @ x
        fast = slot_apply(op, x, slot, dims)
        assert fast.shape == dense.shape
        assert np.linalg.norm(dense - fast) <= 1e-12 * max(1.0, np.linalg.norm(dense))


def test_commuting_projection_sum_single():
    p = np.diag([1.0, 0.0, 1.0]).astype(complex)
    assert np.allclose(commuting_projection_sum([p]), p)


def test_commuting_projection_sum_two():
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    out = commuting_projection_sum([p, q])
    assert np.allclose(out, p + q - p @ q)


def test_commuting_projection_sum_union_oracle():
    rng = np.random.default_rng(21)
    projections = [np.diag(rng.integers(0, 2, 8).astype(complex)) for _ in range(3)]
    out = commuting_projection_sum(projections)
    stacked = np.hstack(projections)
    basis = orthonormal_basis_of_span(stacked)
    brute = projector_from_basis(basis)
    assert np.linalg.norm(out - brute, 2) <= 1e-10


def test_commuting_projection_sum_rejects_noncommuting():
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    q = v @ v.conj().T
    with pytest.raises(ContractError):
        commuting_projection_sum([p, q])


def test_coordinate_shift_basics():
    scn = make_scenario([z_factor(), z_factor()], (1, 1))
    m1 = coordinate_shift(scn, 0)
    # monomial 1 sits at index 0, z_0 at raveled index (1, 0) -> 2
    e = np.zeros(4)
    e[0] = 1.0
    out = m1 @ e
    assert abs(out[2] - 1.0) <= 1e-15 and np.linalg.norm(out) == 1.0
    # top degree in the shifted slot maps to zero
    top = np.zeros(4)
    top[2] = 1.0
    assert np.linalg.norm(m1 @ top) == 0.0


def test_coordinate_shifts_commute_exactly():
    scn = make_scenario([z_factor(), Inner(BlaschkeProduct([0.3]))], (6, 6))
    m1 = coordinate_shift(scn, 0)
    m2 = coordinate_shift(scn, 1)
    assert np.linalg.norm(m1 @ m2 - m2 @ m1, 2) == 0.0


def test_default_degrees_fit_budget():
    factors = [Inner(BlaschkeProduct([0.3, 0.1])) for _ in range(3)]
    degrees = default_degrees(factors, budget=1024)
    assert np.prod([d + 1 for d in degrees]) <= 1024
    factors2 = [z_factor(), FullHardy()]
    degrees2 = default_degrees(factors2, budget=1024)
    assert degrees2[1] == 12


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        make_scenario([z_factor()], (5,))
    with pytest.raises(ScenarioError):
        make_scenario([z_factor(), z_factor()], (5,))
    with pytest.raises(ScenarioError):
        make_scenario([Inner(BlaschkeProduct([0.1, 0.2, 0.3])), z_factor()], (2, 5))
    with pytest.raises(SizingError):
        make_scenario([z_factor(), z_factor()], (80, 80))


def test_submodule_projection_z_z():
    scn = make_scenario([z_factor(), z_factor()], (8, 8))
    h = submodule_projection(scn)
    assert h.quotient_dimension == 1
    expected = np.eye(81, dtype=complex)
    expected[0, 0] = 0.0
    assert np.linalg.norm(h.projection - expected, 2) <= 1e-12
    assert np.linalg.norm(h.projection @ h.projection - h.projection, 2) <= 1e-10
    assert np.linalg.norm(h.projection - h.projection.conj().T, 2) <= 1e-12


def test_submodule_projection_dimensions():
    scn = make_scenario([Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (8, 8))
    assert submodule_projection(scn).quotient_dimension == 2
    scn2 = make_scenario(
        [Inner(BlaschkeProduct([0.5])), Inner(BlaschkeProduct([0.0, 0.0]))], (30, 8)
    )
    assert submodule_projection(scn2).quotient_dimension == 2


def test_degenerate_scenario():
    scn = make_scenario([FullHardy(), FullHardy()], (6, 6))
    h = submodule_projection(scn)
    assert h.degenerate
    assert np.linalg.norm(h.projection) == 0.0


def test_projection_family_commutes_and_formulas_agree():
    rng = np.random.default_rng(22)
    scn = random_inner_scenario(rng, 2, (14, 14), max_degree=2, max_modulus=0.5)
    h = submodule_projection(scn)
    family = inner_range_projections(scn, h.slots)
    worst = max(
        np.linalg.norm(a @ b - b @ a, 2)
        for x, a in enumerate(family)
        for b in family[x + 1 :]
    )
    assert worst <= 1e-10
    residuals = projection_formula_residuals(family)
    assert max(residuals.values()) <= 1e-10
    combined = commuting_projection_sum(family)
    assert np.linalg.norm(combined - h.projection, 2) <= 1e-10


def test_brute_force_span_matches_projection_for_monomial_zeros():
    # zeros at the origin make the shifted-multiple span exactly monomial
    scn = make_scenario([Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (6, 6))
    h = submodule_projection(scn)
    from polyhardy.disc import multiplication_operator

    cols = []
    for i, f in zip(scn.inner_slots, [scn.factors[k] for k in scn.inner_slots]):
        mats = [np.eye(d, dtype=complex) for d in scn.dims]
        mats[i] = multiplication_operator(f.product, scn.degrees[i])
        cols.append(np.kron(mats[0], mats[1]))
    basis = orthonormal_basis_of_span(np.hstack(cols))
    brute = projector_from_basis(basis)
    assert np.linalg.norm(brute - h.projection, 2) <= 1e-9


def test_submodule_span_gap_general_zeros():
    rng = np.random.default_rng(23)
    scn = random_inner_scenario(rng, 2, (26, 26), max_degree=3, max_modulus=0.6)
    h = submodule_projection(scn)
    assert submodule_span_gap(h) <= 1e-7


def test_quotient_assembly_dimensions():
    scn = make_scenario([z_factor(), z_factor()], (6, 6))
    q = quotient_assembly(scn)
    assert q.quotient_dimension == 1
    assert np.linalg.norm(q.slots[0].compressed_shift) == 0.0

    scn2 = make_scenario(
        [Inner(BlaschkeProduct([0.5])), Inner(BlaschkeProduct([0.0, 0.0]))], (30, 8)
    )
    q2 = quotient_assembly(scn2)
    assert q2.quotient_dimension == 2

    scn3 = make_scenario([z_factor(), FullHardy()], (6, 9))
    q3 = quotient_assembly(scn3)
    assert tuple(s.quotient_dimension for s in q3.slots) == (1, 10)


def test_complementarity():
    rng = np.random.default_rng(24)
    scn = random_inner_scenario(rng, 2, (20, 20), max_degree=2, max_modulus=0.5)
    h = submodule_projection(scn)
    q = quotient_assembly(scn)
    pq = quotient_basis(q) @ quotient_basis(q).conj().T
    assert np.linalg.norm(pq - (np.eye(h.dimension) - h.projection), 2) <= 1e-9


def test_ambient_compression_matches_tensor_shift():
    rng = np.random.default_rng(26)
    scn = random_inner_scenario(rng, 2, (16, 16), max_degree=2, max_modulus=0.5)
    q = quotient_assembly(scn)
    bq = quotient_basis(q)
    for i in range(2):
        word = [np.eye(s.quotient_dimension, dtype=complex) for s in q.slots]
        word[i] = q.slots[i].compressed_shift
        ambient = bq.conj().T @ coordinate_shift(scn, i) @ bq
        assert np.linalg.norm(ambient - reduce(np.kron, word), 2) <= 1e-8


def test_interior_shift_invariance():
    rng = np.random.default_rng(27)
    scn = random_inner_scenario(rng, 2, (28, 28), max_degree=3, max_modulus=0.55)
    h = submodule_projection(scn)
    for slot in range(2):
        assert shift_invariance_residual(h, slot) <= 1e-8
    scn2 = make_scenario([Inner(BlaschkeProduct([0.4])), FullHardy()], (26, 10))
    h2 = submodule_projection(scn2)
    for slot in range(2):
        assert shift_invariance_residual(h2, slot) <= 1e-8


def test_interior_mask_shape():
    scn = make_scenario([z_factor(), z_factor()], (2, 3))
    mask = interior_mask(scn, 0)
    assert mask.sum() == 2 * 4
    assert not mask[-1]
