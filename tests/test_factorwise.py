"""Factorwise routes against dense oracles.

The production routes in ``blh``, ``lattice`` and ``commutator`` work on
per-slot factors: boundary inner deviation, range gap, span gap, shift
invariance, wandering basis and the spectrum of the compressed cross
commutator.  The helpers below
compute each quantity from ambient-size stacks, Kronecker words and
decompositions and serve as their oracles.  The ambient brute-force
commutator, itself the oracle of ``commutator_report``, is checked against
its three-projection form; no analysis assembles the ambient P_S.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyhardy import (
    BlaschkeProduct,
    FullHardy,
    Inner,
    SubmoduleHandle,
    build_blh_symbol,
    commutator_report,
    cross_commutator_spectrum,
    essential_dc_diagnostic,
    fingerprint,
    inner_deviation,
    make_scenario,
    submodule_projection,
    verify_inner,
    verify_range,
    wandering_subspace,
)
from polyhardy import commutator as commutator_module
from polyhardy.blh import shifted_span_gaps, symbol_columns
from polyhardy.commutator import cross_commutator_bruteforce_ambient
from polyhardy.defaults import AGREEMENT_DIM_BUDGET, SPAN_GAP_TOL, TAIL_WINDOW, disc_truncation
from polyhardy.disc import multiplication_operator, rank_one_compression
from polyhardy.errors import ContractError
from polyhardy.kernel import (
    kron_all,
    operator_norm,
    orthonormal_basis_of_span,
    singular_values,
    symmetric_gap,
)
from polyhardy.lattice import (
    interior_mask,
    quotient_basis,
    shift_invariance_residual,
    slot_apply,
    submodule_span_gap,
)
from polyhardy.report import RunOptions, execute
from polyhardy.scenario import parse_scenario_dict

ORACLE_TOL = 1e-12
OPERATOR_ORACLE_TOL = 1e-13
BASIS_GAP_TOL = 1e-10

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def dense_wandering_subspace(handle, slot, threshold=0.5):
    dims = tuple(s.dimension for s in handle.slots)
    s = handle.slots[slot].shift
    ps = handle.projection
    shifted = slot_apply(s, slot_apply(s, ps.conj().T, slot, dims).conj().T, slot, dims)
    r = ps - shifted
    w, v = np.linalg.eigh((r + r.conj().T) / 2.0)
    return v[:, w > threshold]


def dense_span_gap(handle, window=TAIL_WINDOW):
    scenario = handle.scenario
    if handle.degenerate:
        return 0.0
    cols = []
    for i in scenario.inner_slots:
        product = scenario.factors[i].product
        j_max = max(0, scenario.degrees[i] - product.degree - window)
        mats = [np.eye(d, dtype=complex) for d in scenario.dims]
        mats[i] = multiplication_operator(product, scenario.degrees[i])[:, : j_max + 1]
        cols.append(kron_all(mats, cap=handle.dimension))
    basis = orthonormal_basis_of_span(np.hstack(cols), rel_tol=1e-10)
    bq = quotient_basis(handle)
    if bq.shape[1] == 0:
        return 0.0
    return operator_norm(bq.conj().T @ basis)


def dense_shift_invariance_residual(handle, slot):
    """||(I - P_S) M_slot P_S D|| as ||B_Q* M_slot P_S D||, D the interior mask."""
    bq = quotient_basis(handle)
    if bq.shape[1] == 0:
        return 0.0
    dims = tuple(s.dimension for s in handle.slots)
    x = handle.projection.copy()
    x[:, ~interior_mask(handle.scenario, slot)] = 0.0
    return operator_norm(bq.conj().T @ slot_apply(handle.slots[slot].shift, x, slot, dims))


def dense_range_gap(sym, handle, window=None):
    gaps = shifted_span_gaps(handle, symbol_columns(sym), slot=0, window=window)
    return max(gaps["containment"], gaps["generation"])


def dense_compressed_word(scenario, i, j):
    """The compressed cross commutator as a Kronecker word, every factor formed."""
    mats = []
    for k, f in enumerate(scenario.factors):
        if k in (i, j):
            b = f.product
            if b.degree == 0:
                mats.append(np.zeros((0, 1), dtype=complex))
                continue
            c = rank_one_compression(b, disc_truncation(b.degree))
            mats.append(c if k == i else c.conj().T)
        elif isinstance(f, Inner):
            mats.append(np.eye(f.product.degree, dtype=complex))
        else:
            mats.append(np.eye(scenario.degrees[k] + 1, dtype=complex))
    return reduce(np.kron, mats)


def three_projection_oracle(handle, i, j):
    """P_S M_j M_i* P_S - P_S M_j P_S M_i* P_S, projecting each term separately."""
    dims = tuple(s.dimension for s in handle.slots)

    def proj(x):
        y = x
        for k, s in enumerate(handle.slots):
            y = slot_apply(s.quotient_projector(), y, k, dims)
        return x - y

    si = handle.slots[i].shift
    sj = handle.slots[j].shift
    t1 = proj(slot_apply(sj, slot_apply(si.conj().T, handle.projection, i, dims), j, dims))
    t2 = proj(slot_apply(si.conj().T, handle.projection, i, dims))
    t2 = proj(slot_apply(sj, t2, j, dims))
    return t1 - t2


def range_rounding_allowance(sym, window=None):
    """How far rounding alone may move the range gap of either route.

    Both routes cut the slot-0 stacks ``[S^l theta_0]`` and ``[S^l theta_0,
    top window]`` at 1e-10 of their largest singular value.  A backward
    error of a few eps moves the kept span by about eps over the smallest
    kept singular value (Wedin's sin-theta bound), which is large when
    theta_0(0) is small and the shifts reach far.
    """
    n0 = sym.scenario.degrees[0]
    if window is None:
        window = min(TAIL_WINDOW, max(1, (n0 + 1) // 2))
    shifted = multiplication_operator(sym.theta0, n0)[:, : n0 - window + 1]
    smallest = math.inf
    for stack in (shifted, np.hstack([shifted, np.eye(n0 + 1)[:, n0 - window + 1 :]])):
        s = np.linalg.svd(stack, compute_uv=False)
        smallest = min(smallest, s[s > 1e-10 * s[0]].min())
    return 16 * np.finfo(float).eps / smallest


# Zero moduli stay below the radius at which a slot of degree N still
# passes the 1e-6 Gram check (the tail decays like rho^N).
def _max_modulus(degree):
    return min(0.5, 10.0 ** (-8.0 / (degree + 1)))


@st.composite
def factor_lists(draw, degrees):
    factors = []
    for n in degrees:
        if draw(st.booleans()):
            factors.append(FullHardy())
            continue
        zero_count = min(n, draw(st.sampled_from([1, 2, 0])))
        radius = _max_modulus(n)
        zeros = [
            draw(st.floats(0.0, radius)) * np.exp(2j * np.pi * draw(st.integers(0, 7)) / 8)
            for _ in range(zero_count)
        ]
        constant = np.exp(2j * np.pi * draw(st.integers(0, 3)) / 4)
        factors.append(Inner(BlaschkeProduct(zeros, constant)))
    return factors


# ambient dimension at most 400: n=2 up to (19, 19), n=3 up to (6, 6, 6),
# n=4 up to (3, 3, 3, 3)
DEGREE_RANGES = {2: (4, 19), 3: (3, 6), 4: (2, 3)}


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    lo, hi = DEGREE_RANGES[n]
    degrees = tuple(draw(st.integers(lo, hi)) for _ in range(n))
    factors = draw(factor_lists(degrees))
    if all(isinstance(f, FullHardy) for f in factors):
        factors[draw(st.integers(0, n - 1))] = Inner(BlaschkeProduct([0.0]))
    return make_scenario(factors, degrees)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_range_gap_matches_dense_oracle(data):
    scenario = data.draw(scenarios())
    sym = build_blh_symbol(scenario)
    degrees = sym.scenario.degrees
    window = data.draw(st.one_of(st.none(), st.integers(1, degrees[0])))
    handle = submodule_projection(sym.scenario)
    tol = ORACLE_TOL + range_rounding_allowance(sym, window)
    gap = verify_range(sym, handle, window=window)
    assert abs(gap - dense_range_gap(sym, handle, window)) <= tol
    # a handle of other factors with the same degrees
    other = make_scenario(data.draw(factor_lists(degrees)), degrees)
    mismatched = submodule_projection(other)
    gap = verify_range(sym, mismatched, window=window)
    assert abs(gap - dense_range_gap(sym, mismatched, window)) <= tol


@PROPERTY_SETTINGS
@given(data=st.data())
def test_wandering_basis_matches_dense_oracle(data):
    scenario = data.draw(scenarios())
    handle = submodule_projection(scenario)
    slot = data.draw(st.integers(0, scenario.n - 1))
    w = wandering_subspace(handle, slot)
    dense = dense_wandering_subspace(handle, slot)
    assert w.shape == dense.shape
    assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1]), 2) <= BASIS_GAP_TOL
    assert symmetric_gap(w, dense) <= BASIS_GAP_TOL


@PROPERTY_SETTINGS
@given(data=st.data())
def test_span_gap_matches_dense_oracle(data):
    handle = submodule_projection(data.draw(scenarios()))
    window = data.draw(st.integers(0, TAIL_WINDOW))
    gap = submodule_span_gap(handle, window=window)
    assert abs(gap - dense_span_gap(handle, window)) <= ORACLE_TOL
    assert math.copysign(1.0, gap) == 1.0


@PROPERTY_SETTINGS
@given(scenario=scenarios())
def test_shift_invariance_matches_dense_oracle(scenario):
    handle = submodule_projection(scenario)
    for slot in range(scenario.n):
        residual = shift_invariance_residual(handle, slot)
        assert abs(residual - dense_shift_invariance_residual(handle, slot)) <= OPERATOR_ORACLE_TOL


def test_shift_invariance_nonzero_matches_dense_oracle():
    # a zero of modulus 0.7 at degree 14 leaves a visible tail in slot 1
    scenario = make_scenario(
        [Inner(BlaschkeProduct([0.1j, -0.128])), Inner(BlaschkeProduct([0.7]))], (18, 14)
    )
    handle = submodule_projection(scenario, gram_tol=1e-4)
    residual = shift_invariance_residual(handle, 1)
    assert 1e-5 <= residual <= 2e-5
    assert abs(residual - dense_shift_invariance_residual(handle, 1)) <= OPERATOR_ORACLE_TOL


def scaled_pencil(sym, scale):
    """The pencil (I - sB) + theta_0 sB: inner only at s = 1, Hermitian at every s."""
    b = scale * sym.theta_part
    return dataclasses.replace(
        sym,
        constant_part=np.eye(b.shape[0], dtype=complex) - b,
        theta_part=b,
        theta_spectrum=scale * sym.theta_spectrum,
    )


# a full slot 0, which permutes the symbol, and degree-0 Inner slots
@PROPERTY_SETTINGS
@given(scenario=scenarios(), scale=st.floats(0.5, 1.0))
@example(
    scenario=make_scenario(
        [FullHardy(), Inner(BlaschkeProduct([0.3j])), Inner(BlaschkeProduct([]))], (4, 5, 3)
    ),
    scale=1.0,
)
@example(
    scenario=make_scenario(
        [Inner(BlaschkeProduct([])), FullHardy(), Inner(BlaschkeProduct([0.01, -0.005j])), FullHardy()],
        (3, 2, 3, 2),
    ),
    scale=0.7,
)
def test_inner_deviation_matches_dense_oracle(scenario, scale):
    sym = build_blh_symbol(scenario)
    assert sym.theta_spectrum.shape == (sym.coefficient_dimension,)
    for pencil in (sym, scaled_pencil(sym, scale)):
        assert abs(inner_deviation(pencil, 128) - verify_inner(pencil, 128)) <= OPERATOR_ORACLE_TOL


def test_scaled_pencil_is_flagged_by_both_routes():
    scenario = make_scenario([Inner(BlaschkeProduct([0.4])), Inner(BlaschkeProduct([0.0]))], (12, 12))
    broken = scaled_pencil(build_blh_symbol(scenario), 0.9)
    factorwise = inner_deviation(broken, 256)
    assert factorwise > 1e-2
    assert abs(factorwise - verify_inner(broken, 256)) <= OPERATOR_ORACLE_TOL


def test_inner_deviation_grid_floor():
    sym = build_blh_symbol(make_scenario([Inner(BlaschkeProduct([0.0])), FullHardy()], (6, 6)))
    with pytest.raises(ContractError):
        inner_deviation(sym, 32)


@st.composite
def spectrum_cases(draw):
    """A scenario and an Inner pair (i, j), with the compressed word at most ~400 rows.

    The pair factors have about 40 domain columns at the precision
    truncation, so the pair degrees stay at most 3 and the identity
    dimension of the other slots at most 4.
    """
    n = draw(st.sampled_from([2, 3, 4]))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    factors, degrees = [], []
    for k in range(n):
        if k in (i, j):
            top = 3 if n == 2 else 2
            zeros = [
                draw(st.floats(0.0, 0.6)) * np.exp(2j * np.pi * draw(st.integers(0, 7)) / 8)
                for _ in range(min(top, draw(st.sampled_from([1, 2, 3, 0]))))
            ]
            factors.append(Inner(BlaschkeProduct(zeros)))
            degrees.append(4)
        elif draw(st.booleans()):
            factors.append(FullHardy())
            degrees.append(draw(st.sampled_from([1, 2, 3] if n == 3 else [1])))
        else:
            degree = min(3 if n == 3 else 2, draw(st.sampled_from([1, 2, 3, 0])))
            factors.append(Inner(BlaschkeProduct([0.3 * np.exp(0.7j * m) for m in range(degree)])))
            degrees.append(4)
    return make_scenario(factors, degrees), i, j


@PROPERTY_SETTINGS
@given(case=spectrum_cases())
def test_commutator_spectrum_matches_dense_word(case):
    scenario, i, j = case
    svals, dims, _ = cross_commutator_spectrum(scenario, i, j)
    word = dense_compressed_word(scenario, i, j)
    assert math.prod(dims) == word.shape[0]
    dense = singular_values(word)
    assert svals.shape == dense.shape
    assert np.all(np.abs(svals - dense) <= ORACLE_TOL)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_regrouped_oracle_matches_three_projections(data):
    scenario = data.draw(scenarios())
    pair = st.lists(st.integers(0, scenario.n - 1), min_size=2, max_size=2, unique=True)
    i, j = sorted(data.draw(pair))
    handle = submodule_projection(scenario)
    regrouped = cross_commutator_bruteforce_ambient(handle, i, j)
    assert np.linalg.norm(regrouped - three_projection_oracle(handle, i, j)) <= OPERATOR_ORACLE_TOL


# (factors, degrees, pair): a small quotient, r = 5 of D = 25, and two full
# slots, r = 48 of D = 80
ORACLE_RANK_CASES = [
    ([Inner(BlaschkeProduct([0.02j])), FullHardy()], (4, 4), (0, 1)),
    (
        [FullHardy(), Inner(BlaschkeProduct([0.02, -0.01j, 0.015])), FullHardy()],
        (3, 4, 3),
        (0, 1),
    ),
]


@pytest.mark.parametrize(
    "factors, degrees, pair", ORACLE_RANK_CASES, ids=["small_quotient", "two_full_slots"]
)
def test_rank_r_oracle_matches_three_projections(factors, degrees, pair):
    handle = submodule_projection(make_scenario(factors, degrees))
    oracle = cross_commutator_bruteforce_ambient(handle, *pair)
    assert "projection" not in vars(handle)
    assert np.linalg.norm(oracle - three_projection_oracle(handle, *pair)) <= OPERATOR_ORACLE_TOL


def test_oracle_is_exact_zero_on_degree_zero_pair_slot():
    scenario = make_scenario([Inner(BlaschkeProduct([])), Inner(BlaschkeProduct([0.02]))], (4, 4))
    handle = submodule_projection(scenario)
    oracle = cross_commutator_bruteforce_ambient(handle, 0, 1)
    assert oracle.shape == (handle.dimension, handle.dimension)
    assert not np.any(oracle)
    assert "projection" not in vars(handle)


def test_oracle_is_exact_zero_on_degenerate_scenario():
    # no Inner slot: P_S = 0 and the quotient is the whole space
    handle = submodule_projection(make_scenario([FullHardy(), FullHardy()], (3, 4)))
    oracle = cross_commutator_bruteforce_ambient(handle, 0, 1)
    assert oracle.shape == (handle.dimension, handle.dimension)
    assert not np.any(oracle)
    assert "projection" not in vars(handle)


def _recorded_shapes(monkeypatch):
    """Shapes of every operand passed to numpy's decompositions from now on."""
    shapes = []

    def recording(name):
        original = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            shapes.append((name, np.shape(a)))
            return original(a, *args, **kwargs)

        return call

    for name in ("svd", "svdvals", "eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    return shapes


def test_no_commutator_decomposition_beyond_one_slot(monkeypatch):
    # the largest slot factor has disc_truncation + 1 = 61 rows
    pinned = make_scenario(
        [Inner(BlaschkeProduct([0.3, -0.2j])), FullHardy(), Inner(BlaschkeProduct([0.4j]))],
        (20, 2, 16),
    )
    all_inner = make_scenario(
        [Inner(BlaschkeProduct([0.2])), Inner(BlaschkeProduct([0.3, 0.1j])), Inner(BlaschkeProduct([-0.4]))],
        (8, 8, 8),
    )
    handles = [submodule_projection(s) for s in (pinned, all_inner)]
    shapes = _recorded_shapes(monkeypatch)
    for handle in handles:
        essential_dc_diagnostic(handle.scenario, (0, 2), (20, 30, 40))
        fingerprint(handle)
        commutator_report(handle.scenario, 0, 2)
    # mixed pairs: the oracle is judged by its norm, not decomposed
    for i, j in ((0, 1), (1, 2)):
        commutator_report(pinned, i, j)
    assert shapes
    too_large = [(name, shape) for name, shape in shapes if min(shape[-2:]) > 61]
    assert not too_large


def test_no_ambient_size_decomposition(monkeypatch):
    # every decomposition stays within one slot or the coefficient space
    scenario = make_scenario(
        [Inner(BlaschkeProduct([0.4, -0.3j])), Inner(BlaschkeProduct([0.5]))], (31, 31)
    )
    handle = submodule_projection(scenario)
    bound = max(scenario.dims[0], math.prod(scenario.dims[1:]))
    shapes = _recorded_shapes(monkeypatch)
    sym = build_blh_symbol(scenario)
    inner_deviation(sym)
    verify_range(sym, handle)
    wandering_subspace(handle, 0)
    submodule_span_gap(handle)
    for slot in range(scenario.n):
        shift_invariance_residual(handle, slot)
    assert shapes
    too_large = [(name, shape) for name, shape in shapes if min(shape[-2:]) > bound]
    assert not too_large


def _projection_builds(monkeypatch):
    """Ambient dimension of every P_S assembled from now on."""
    builds = []
    prop = getattr(SubmoduleHandle, "projection", None)
    assert isinstance(prop, cached_property), "P_S is not assembled on first read"
    build = prop.func

    def counted(handle):
        builds.append(handle.dimension)
        return build(handle)

    monkeypatch.setattr(prop, "func", counted)
    return builds


def _execute(slots, analyses, second=None, options=None):
    doc = {"schema_version": 1, "n": len(slots), "slots": slots, "analyses": analyses}
    if second is not None:
        doc["second_scenario"] = {"n": len(second), "slots": second}
    bundle = execute(parse_scenario_dict(doc), options)
    assert not bundle.failed_blocks
    return bundle


def test_all_analyses_build_no_projection(monkeypatch):
    # n=2 at (31, 31): the quotient has r = 2 columns, so the commutator
    # oracle takes its rank-r form and nothing reads P_S
    first = [
        {"kind": "blaschke", "zeros": [[0.4, 0.0], [0.0, -0.3]], "degree": 31},
        {"kind": "blaschke", "zeros": [[0.5, 0.0]], "degree": 31},
    ]
    second = [first[0], dict(first[1], zeros=[[0.0, 0.5]])]
    builds = _projection_builds(monkeypatch)
    _execute(
        first,
        ["project", "commutator", "essnorm", "blh", "rigidity", "c0", "decay"],
        second,
    )
    assert builds == []


def test_no_projection_above_agreement_budget(monkeypatch):
    # the full slot resolves to degree 9, so the ambient D is 21 * 10 * 17 = 3570;
    # the shared agreement handle shrinks to D <= 1024
    slots = [
        {"kind": "blaschke", "zeros": [[0.3, 0.0], [0.0, -0.2]], "degree": 20},
        {"kind": "full"},
        {"kind": "blaschke", "zeros": [[0.0, 0.4]], "degree": 16},
    ]
    builds = _projection_builds(monkeypatch)
    bundle = _execute(slots, ["commutator", "essnorm", "c0", "decay"])
    assert bundle.blocks[0].results["pairs"]
    assert builds == []


def test_commutator_pairs_share_one_agreement_handle(monkeypatch):
    # the three pairs are judged on one agreement handle of D <= the budget,
    # and even with two full slots (r = 200 of D = 1000) none reads P_S
    slots = [
        {"kind": "blaschke", "zeros": [[0.3, 0.0], [0.0, -0.2]], "degree": 20},
        {"kind": "full"},
        {"kind": "full"},
    ]
    realized = []
    realize = commutator_module.submodule_projection

    def counted(scenario, **kwargs):
        realized.append(scenario.dimension)
        return realize(scenario, **kwargs)

    monkeypatch.setattr(commutator_module, "submodule_projection", counted)
    builds = _projection_builds(monkeypatch)
    bundle = _execute(slots, ["commutator"])
    assert len(bundle.blocks[0].results["pairs"]) == 3
    assert len(realized) == 1
    assert realized[0] <= AGREEMENT_DIM_BUDGET
    assert builds == []


def test_blh_decompositions_do_not_grow_with_the_grid(monkeypatch):
    slots = [
        {"kind": "blaschke", "zeros": [[0.4, 0.0], [0.0, -0.3]], "degree": 15},
        {"kind": "blaschke", "zeros": [[0.5, 0.0]], "degree": 15},
    ]
    counts = []
    for grid in (64, 1024):
        shapes = _recorded_shapes(monkeypatch)
        _execute(slots, ["blh"], options=RunOptions(grid=grid))
        counts.append(len(shapes))
        monkeypatch.undo()
    assert counts[0] == counts[1]


def test_decay_computes_pair_factors_once(monkeypatch):
    compress = commutator_module.rank_one_compression
    calls = []

    def counted(b, n, **kwargs):
        calls.append(n)
        return compress(b, n, **kwargs)

    monkeypatch.setattr(commutator_module, "rank_one_compression", counted)
    scenario = make_scenario(
        [Inner(BlaschkeProduct([0.3, -0.2j])), FullHardy(), Inner(BlaschkeProduct([0.4j]))],
        (20, 2, 16),
    )
    essential_dc_diagnostic(scenario, (0, 2), (20, 30, 40))
    assert calls == [disc_truncation(2), disc_truncation(1)]


def _project_span_gap(slots):
    return _execute(slots, ["project"]).blocks[0].results["span_gap"]


def test_span_gap_reported_above_dimension_1024():
    slot = {"kind": "blaschke", "zeros": [[0.3, 0.1]], "degree": 32}
    gap = _project_span_gap([slot, dict(slot, zeros=[[-0.2, 0.0]])])
    assert isinstance(gap, float)
    assert gap <= SPAN_GAP_TOL


def test_span_gap_has_no_negative_zero():
    slot = {"kind": "blaschke", "zeros": [[0.0, 0.0]], "degree": 6}
    gap = _project_span_gap([slot, slot, slot])
    assert gap == 0.0
    assert math.copysign(1.0, gap) == 1.0
