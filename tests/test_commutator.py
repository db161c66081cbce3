"""Cross commutators: both routes, norms, ranks, decay, normality, annihilation."""

from __future__ import annotations

import numpy as np
import pytest

from polyhardy import (
    BlaschkeProduct,
    FullHardy,
    Inner,
    c0_annihilation,
    commutator_report,
    cross_commutator_spectrum,
    cross_commutator_structural,
    essential_dc_diagnostic,
    essential_normality_check,
    make_scenario,
    quotient_assembly,
    submodule_projection,
)
from polyhardy import commutator
from polyhardy.commutator import (
    blaschke_of_matrix,
    cross_commutator_bruteforce_ambient,
)
from polyhardy.defaults import STRUCTURAL_AGREEMENT_TOL
from polyhardy.disc import blaschke_eval, predicted_compression_norm
from polyhardy.errors import ContractError

from conftest import random_blaschke, random_inner_scenario


def z_factor():
    return Inner(BlaschkeProduct([0.0]))


def test_brute_force_z_z_norm_one():
    scn = make_scenario([z_factor(), z_factor()], (10, 10))
    h = submodule_projection(scn)
    # supported on ran P_S both sides: same nonzero singular values as the
    # compression to a basis of ran P_S
    k = cross_commutator_bruteforce_ambient(h, 0, 1)
    s = np.linalg.svd(k, compute_uv=False)
    assert abs(s[0] - 1.0) <= 1e-12
    assert np.all(s[1:] <= 1e-12)


def test_brute_force_z2_z_norm_one():
    scn = make_scenario([Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (12, 12))
    h = submodule_projection(scn)
    k = cross_commutator_bruteforce_ambient(h, 0, 1)
    s = np.linalg.svd(k, compute_uv=False)
    assert abs(s[0] - 1.0) <= 1e-8


def test_structural_matches_brute_force():
    rng = np.random.default_rng(30)
    for _ in range(3):
        scn = random_inner_scenario(rng, 2, (14, 14), max_degree=3, max_modulus=0.6)
        h = submodule_projection(scn, gram_tol=1e-2)
        brute = cross_commutator_bruteforce_ambient(h, 0, 1)
        structural = cross_commutator_structural(h, 0, 1)
        assert np.linalg.norm(brute - structural) <= 1e-10


def test_structural_matches_brute_force_three_variables():
    rng = np.random.default_rng(31)
    scn = random_inner_scenario(rng, 3, (7, 7, 7), max_degree=2, max_modulus=0.6)
    h = submodule_projection(scn, gram_tol=1e-1)
    for pair in [(0, 1), (0, 2), (1, 2)]:
        brute = cross_commutator_bruteforce_ambient(h, *pair)
        structural = cross_commutator_structural(h, *pair)
        assert np.linalg.norm(brute - structural) <= 1e-10


def test_structural_requires_inner_slots():
    scn = make_scenario([z_factor(), FullHardy()], (8, 8))
    h = submodule_projection(scn)
    with pytest.raises(ContractError):
        cross_commutator_structural(h, 0, 1)


def test_pair_ordering_enforced():
    scn = make_scenario([z_factor(), z_factor()], (8, 8))
    h = submodule_projection(scn)
    with pytest.raises(ContractError):
        cross_commutator_bruteforce_ambient(h, 1, 0)


def test_report_z_z():
    scn = make_scenario([z_factor(), z_factor()], (20, 20))
    rep = commutator_report(scn, 0, 1)
    assert abs(rep.operator_norm - 1.0) <= 1e-9
    assert rep.numerical_rank == 1
    assert abs(rep.hs_norm - 1.0) <= 1e-9
    assert rep.structural_vs_oracle_error <= 1e-7
    assert rep.predicted_norm == 1.0
    assert not rep.failures


def test_report_norm_law_half_and_point_three():
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.5])), Inner(BlaschkeProduct([0.3]))], (30, 30)
    )
    rep = commutator_report(scn, 0, 1)
    assert abs(rep.operator_norm - np.sqrt(0.75 * 0.91)) <= 1e-6
    assert rep.numerical_rank == 1
    assert abs(rep.hs_norm - rep.operator_norm) <= 1e-8


def test_brute_force_norm_oracle_n2():
    # direct ambient singular values at a clean truncation
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.5])), Inner(BlaschkeProduct([0.3]))], (26, 26)
    )
    h = submodule_projection(scn)
    k = cross_commutator_bruteforce_ambient(h, 0, 1)
    s = np.linalg.svd(k, compute_uv=False)
    assert abs(s[0] - np.sqrt(0.75 * 0.91)) <= 1e-6
    assert s[1] <= 1e-8 * s[0]


def test_report_mixed_pair_has_no_prediction():
    scn = make_scenario([z_factor(), FullHardy()], (10, 8))
    rep = commutator_report(scn, 0, 1)
    assert rep.predicted_norm is None
    assert isinstance(rep.structural_vs_oracle_error, float)
    assert rep.structural_vs_oracle_error <= STRUCTURAL_AGREEMENT_TOL
    assert not rep.failures


def test_report_mixed_pair_judges_the_oracle(monkeypatch):
    # the structural route of a mixed pair is zero, so a perturbed oracle
    # must show up as a structural-vs-brute-force failure
    original = commutator.cross_commutator_bruteforce_ambient

    def perturbed(handle, i, j):
        out = original(handle, i, j)
        out[0, 0] += 1e-6
        return out

    monkeypatch.setattr(commutator, "cross_commutator_bruteforce_ambient", perturbed)
    scn = make_scenario([z_factor(), FullHardy()], (10, 8))
    rep = commutator_report(scn, 0, 1, raise_on_failure=False)
    assert any("structural vs brute-force" in f for f in rep.failures)
    assert rep.structural_vs_oracle_error >= 1e-6


def test_report_mixed_pair_commutator_vanishes():
    # a zero-symbol slot inside the pair kills the whole tensor factor, so
    # the commutator is exactly zero; the rank must not count float noise
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.4, -0.2j])), FullHardy()], (20, 12)
    )
    rep = commutator_report(scn, 0, 1)
    assert rep.operator_norm <= 1e-12
    assert rep.numerical_rank == 0
    assert not rep.failures
    h = submodule_projection(scn)
    ambient = cross_commutator_bruteforce_ambient(h, 0, 1)
    assert np.linalg.norm(ambient) <= 1e-12


def test_three_variable_rank_equals_middle_dimension():
    scn = make_scenario(
        [z_factor(), Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (7, 7, 7)
    )
    h = submodule_projection(scn)
    k = cross_commutator_bruteforce_ambient(h, 0, 2)
    s = np.linalg.svd(k, compute_uv=False)
    assert int(np.count_nonzero(s > 1e-8 * s[0])) == 2
    assert abs(s[0] - 1.0) <= 1e-10
    rep = commutator_report(scn, 0, 2)
    assert rep.numerical_rank == 2
    assert abs(rep.operator_norm - 1.0) <= 1e-9
    # middle identity factor doubles the squared HS norm
    assert abs(rep.hs_norm - np.sqrt(2.0)) <= 1e-9


def test_rank_law_with_full_slot():
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.3])), Inner(BlaschkeProduct([0.2])), FullHardy()],
        (8, 8, 9),
    )
    s, dims, _ = cross_commutator_spectrum(scn, 0, 1)
    rank = int(np.count_nonzero(s > 1e-8 * s[0]))
    assert rank == 10  # identity factor of the truncated free slot
    predicted = predicted_compression_norm(BlaschkeProduct([0.3])) * \
        predicted_compression_norm(BlaschkeProduct([0.2]))
    assert np.all(np.abs(s[:10] - predicted) <= 1e-9)


def test_report_records_closed_form_next_to_hs():
    rng = np.random.default_rng(32)
    scn = random_inner_scenario(rng, 3, (8, 8, 8), max_degree=2, max_modulus=0.5)
    rep = commutator_report(scn, 0, 2, agreement_gram_tol=1e-1)
    assert rep.closed_form_hs == rep.predicted_norm
    middle = rep.identity_factor_dimension
    assert abs(rep.hs_norm - np.sqrt(middle) * rep.operator_norm) <= 1e-6


def test_decay_finite_rank_all_inner():
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.3])), Inner(BlaschkeProduct([0.2j])), Inner(BlaschkeProduct([0.1]))],
        (8, 8, 8),
    )
    profile = essential_dc_diagnostic(scn, (0, 1), (8, 12, 16))
    assert profile.verdict == "FINITE_RANK"
    assert profile.ranks == (1, 1, 1)
    # monotone truncation stability: leading value steady across the schedule
    leading = [s[0] for s in profile.singular_values]
    assert max(leading) - min(leading) <= 1e-10


def test_decay_noncompact_with_full_slot():
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.3])), Inner(BlaschkeProduct([0.2j])), FullHardy()],
        (8, 8, 8),
    )
    profile = essential_dc_diagnostic(scn, (0, 1), (8, 12, 16))
    assert profile.verdict == "NONCOMPACT_LIKELY"
    for n_free, svals in zip(profile.schedule, profile.singular_values):
        plateau = np.array(svals[: n_free + 1])
        assert np.all(np.abs(plateau - profile.predicted_norm) <= 1e-6)


def test_decay_needs_increasing_schedule():
    scn = make_scenario([z_factor(), z_factor()], (8, 8))
    with pytest.raises(ContractError):
        essential_dc_diagnostic(scn, (0, 1), (8, 8))


def test_essential_normality_verdicts():
    rng = np.random.default_rng(33)
    scn = random_inner_scenario(rng, 2, (20, 20), max_degree=3, max_modulus=0.5)
    rep = essential_normality_check(quotient_assembly(scn))
    assert rep.verdict == "ESSENTIALLY_NORMAL"
    assert all(e.factor_dimension is not None for e in rep.slots)

    scn2 = make_scenario([z_factor(), FullHardy()], (8, 10))
    rep2 = essential_normality_check(quotient_assembly(scn2))
    assert rep2.verdict == "NOT_ESSENTIALLY_NORMAL"
    full = rep2.slots[1]
    assert abs(full.norm - 1.0) <= 1e-12
    assert full.interior_rank == 1


def test_essential_normality_dim_one_quotient():
    scn = make_scenario([z_factor(), z_factor()], (6, 6))
    rep = essential_normality_check(quotient_assembly(scn))
    assert all(e.norm <= 1e-15 for e in rep.slots)


def test_blaschke_of_matrix_scalar():
    b = BlaschkeProduct([0.3, -0.2j], constant=np.exp(0.7j))
    point = 0.4 + 0.1j
    out = blaschke_of_matrix(b, np.array([[point]]))
    assert abs(out[0, 0] - blaschke_eval(b, point)) <= 1e-14


def test_c0_annihilation_monomials():
    scn = make_scenario([z_factor(), z_factor()], (8, 8))
    q = quotient_assembly(scn)
    assert c0_annihilation(q, 0) == 0.0
    scn2 = make_scenario([Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (8, 8))
    q2 = quotient_assembly(scn2)
    assert c0_annihilation(q2, 0) <= 1e-15


def test_c0_annihilation_general_zeros():
    scn = make_scenario(
        [Inner(BlaschkeProduct([0.5, -0.3])), z_factor()], (60, 4)
    )
    q = quotient_assembly(scn)
    assert c0_annihilation(q, 0) <= 1e-10


def test_c0_annihilation_random():
    rng = np.random.default_rng(34)
    for _ in range(5):
        b = random_blaschke(rng, max_degree=4, max_modulus=0.7)
        scn = make_scenario([Inner(b), z_factor()], (max(60, b.degree + 40), 3))
        assert c0_annihilation(quotient_assembly(scn), 0) <= 1e-8


def test_c0_requires_inner_slot():
    scn = make_scenario([z_factor(), FullHardy()], (6, 6))
    with pytest.raises(ContractError):
        c0_annihilation(quotient_assembly(scn), 1)
