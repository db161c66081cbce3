"""Equality distances, fingerprints and equivalence verdicts."""

from __future__ import annotations

import numpy as np
import pytest

from polyhardy import (
    BlaschkeProduct,
    FullHardy,
    Inner,
    equality_test,
    equivalence_verdict,
    fingerprint,
    fingerprint_gap,
    make_scenario,
    submodule_projection,
)
from polyhardy.errors import ContractError
from polyhardy.rigidity import projection_distance

from conftest import random_blaschke


def z_factor():
    return Inner(BlaschkeProduct([0.0]))


def handle_for(factors, degrees):
    return submodule_projection(make_scenario(factors, degrees))


def test_identical_scenarios_equal():
    h1 = handle_for([Inner(BlaschkeProduct([0.4])), z_factor()], (20, 20))
    h2 = handle_for([Inner(BlaschkeProduct([0.4])), z_factor()], (20, 20))
    res = equality_test(h1, h2)
    assert res.distance <= 1e-10
    assert res.equal


def test_distinct_zeros_separate():
    h1 = handle_for([Inner(BlaschkeProduct([0.5])), z_factor()], (24, 24))
    h2 = handle_for([Inner(BlaschkeProduct([0.3])), z_factor()], (24, 24))
    res = equality_test(h1, h2)
    assert res.distance >= 0.1
    assert not res.equal


def test_variable_swap_separates():
    h1 = handle_for([Inner(BlaschkeProduct([0.0, 0.0])), z_factor()], (10, 10))
    h2 = handle_for([z_factor(), Inner(BlaschkeProduct([0.0, 0.0]))], (10, 10))
    assert equality_test(h1, h2).distance >= 0.1


def test_unimodular_constant_is_quotiented_out():
    gamma = np.exp(1.3j)
    h1 = handle_for([Inner(BlaschkeProduct([0.4], constant=1.0)), z_factor()], (20, 20))
    h2 = handle_for([Inner(BlaschkeProduct([0.4], constant=gamma)), z_factor()], (20, 20))
    assert equality_test(h1, h2).distance <= 1e-12
    assert equivalence_verdict(h1, h2).verdict == "EQUIVALENT"


def test_zero_reordering_is_quotiented_out():
    zeros = [0.4, -0.2 + 0.1j]
    h1 = handle_for([Inner(BlaschkeProduct(zeros)), z_factor()], (24, 24))
    h2 = handle_for([Inner(BlaschkeProduct(zeros[::-1])), z_factor()], (24, 24))
    assert equality_test(h1, h2).distance <= 1e-10


def test_incompatible_truncations_rejected():
    h1 = handle_for([z_factor(), z_factor()], (8, 8))
    h2 = handle_for([z_factor(), z_factor()], (10, 10))
    with pytest.raises(ContractError):
        equality_test(h1, h2)


def test_projection_distance_matches_dense():
    h1 = handle_for([Inner(BlaschkeProduct([0.5])), z_factor()], (12, 12))
    h2 = handle_for([Inner(BlaschkeProduct([0.3])), z_factor()], (12, 12))
    dense = np.linalg.norm(h1.projection - h2.projection, 2)
    assert abs(projection_distance(h1, h2) - dense) <= 1e-10


def test_fingerprint_values():
    h = handle_for([z_factor(), z_factor()], (16, 16))
    fp = fingerprint(h)
    assert fp.quotient_dimension == 1
    (i, j, svals), = fp.cross_commutator_singular_values
    assert (i, j) == (0, 1)
    assert len(svals) == 1 and abs(svals[0] - 1.0) <= 1e-9

    h2 = handle_for([Inner(BlaschkeProduct([0.5])), z_factor()], (16, 16))
    fp2 = fingerprint(h2)
    (_, _, svals2), = fp2.cross_commutator_singular_values
    assert abs(svals2[0] - np.sqrt(0.75)) <= 1e-8


def test_fingerprint_deterministic():
    zeros = [0.35, 0.2 - 0.3j]
    fps = []
    for order in (zeros, zeros[::-1]):
        h = handle_for([Inner(BlaschkeProduct(order)), z_factor()], (20, 20))
        fps.append(fingerprint(h))
    assert fingerprint_gap(fps[0], fps[1]) <= 1e-8


def test_fingerprint_degenerate_is_empty():
    h = handle_for([FullHardy(), FullHardy()], (8, 8))
    fp = fingerprint(h)
    assert fp.cross_commutator_singular_values == ()


def test_verdict_self_equivalent():
    h = handle_for([Inner(BlaschkeProduct([0.4])), z_factor()], (16, 16))
    rec = equivalence_verdict(h, h)
    assert rec.verdict == "EQUIVALENT"
    assert rec.thresholds["equal_projection"] == 1e-7


def test_verdict_not_equivalent_with_certificate():
    h1 = handle_for([Inner(BlaschkeProduct([0.5])), z_factor()], (20, 20))
    h2 = handle_for([Inner(BlaschkeProduct([0.3])), z_factor()], (20, 20))
    rec = equivalence_verdict(h1, h2)
    assert rec.verdict == "NOT_EQUIVALENT"
    assert rec.certificate is not None
    assert rec.certificate["invariant_gap"] > 1e-3


def test_verdict_does_not_need_the_wandering_subspace(monkeypatch):
    # the wandering dimension is fixed by the degrees, so it is no invariant
    # and the verdict must not compute it
    from polyhardy import blh

    def refuse(*args, **kwargs):
        raise AssertionError("wandering_subspace called")

    monkeypatch.setattr(blh, "wandering_subspace", refuse)
    h1 = handle_for([Inner(BlaschkeProduct([0.5])), z_factor()], (20, 20))
    h2 = handle_for([Inner(BlaschkeProduct([0.3])), z_factor()], (20, 20))
    rec = equivalence_verdict(h1, h2)
    assert rec.verdict == "NOT_EQUIVALENT"
    assert rec.certificate is not None


def test_verdict_proper_vs_full_module():
    proper = handle_for([Inner(BlaschkeProduct([0.4])), z_factor()], (16, 16))
    # a degree-0 inner factor fills its slot, so the submodule is everything
    full = handle_for([Inner(BlaschkeProduct([])), Inner(BlaschkeProduct([]))], (16, 16))
    rec = equivalence_verdict(proper, full)
    assert rec.verdict == "NOT_EQUIVALENT"
    assert abs(rec.distance - 1.0) <= 1e-10
    assert full.quotient_dimension == 0


def test_verdict_undecided_with_full_slots():
    h1 = handle_for([Inner(BlaschkeProduct([0.4])), FullHardy()], (16, 10))
    h2 = handle_for([Inner(BlaschkeProduct([0.2])), FullHardy()], (16, 10))
    rec = equivalence_verdict(h1, h2)
    assert rec.verdict == "UNDECIDED_BY_PAPER"
    h3 = handle_for([FullHardy(), Inner(BlaschkeProduct([0.2]))], (16, 10))
    rec2 = equivalence_verdict(h1, h3)
    assert rec2.verdict == "UNDECIDED_BY_PAPER"
    assert "differ" in rec2.note


def test_verdict_undecided_degenerate():
    h1 = handle_for([FullHardy(), FullHardy()], (8, 8))
    h2 = handle_for([z_factor(), z_factor()], (8, 8))
    assert equivalence_verdict(h1, h2).verdict == "UNDECIDED_BY_PAPER"


def test_verdict_symmetry():
    h1 = handle_for([Inner(BlaschkeProduct([0.5])), z_factor()], (16, 16))
    h2 = handle_for([Inner(BlaschkeProduct([0.3])), z_factor()], (16, 16))
    a = equivalence_verdict(h1, h2)
    b = equivalence_verdict(h2, h1)
    assert a.verdict == b.verdict
    assert abs(a.distance - b.distance) <= 1e-10


def test_certificate_soundness():
    # a genuine unitary invariant never separates equal subspaces
    rng = np.random.default_rng(50)
    for _ in range(8):
        b1 = random_blaschke(rng, max_degree=2, max_modulus=0.6)
        b2 = random_blaschke(rng, max_degree=2, max_modulus=0.6)
        h1 = handle_for([Inner(b1), z_factor()], (20, 20))
        h2 = handle_for([Inner(b2), z_factor()], (20, 20))
        gap = fingerprint_gap(fingerprint(h1), fingerprint(h2))
        if gap > 1e-6:
            assert equality_test(h1, h2).distance > 1e-6
