"""Multi-variable assembly on the truncated polydisc Hardy space.

Index conventions
-----------------
A scenario with per-slot truncation degrees ``N_1, ..., N_n`` lives on the
monomial basis ``z^alpha`` with ``alpha_i <= N_i``.  Basis index of a
multi-index is its C-order raveling with slot 0 slowest:

    index(alpha) = ravel_multi_index(alpha, dims, order="C"),  dims = (N_i + 1).

Every Kronecker assembly in this package lists slot 0 first, matching that
order.  Slot and pair indices are 0-based everywhere (library, scenario
files and reports).

A scenario attaches one factor per slot: ``Inner`` (a finite Blaschke
product, contributing a finite-dimensional model space to the quotient) or
``FullHardy`` (the zero symbol; the quotient keeps the whole truncated
slot).  The submodule projection is

    P_S = I - (Q_1 tensor ... tensor Q_n),

with ``Q_i`` the slot model-space projector for Inner slots and the identity
for FullHardy slots.  Because each ``Q_i`` comes from re-orthonormalized
columns, ``P_S`` is Hermitian idempotent to float rounding at any
truncation, and all structural identities below hold to rounding as well.

One ``SubmoduleHandle`` per realized scenario carries the slot factors:
quotient bases, truncated shifts and compressed shifts.  The quotient is
the tensor product of the slot quotients, so every analysis works on those
factors; the dense ambient ``P_S`` is assembled only when
``SubmoduleHandle.projection`` is first read, which no analysis does: the
brute-force commutator oracle writes ``I - P_S`` as ``V V*`` with
``V = quotient_basis(handle)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel
from .defaults import (
    AMBIENT_DIM_BUDGET,
    COMMUTING_TOL,
    FULL_SLOT_DEGREE,
    GRAM_TOL,
    MATRIX_CAP,
    SPAN_RANK_REL_TOL,
    TAIL_WINDOW,
    disc_truncation,
    minimum_truncation,
)
from .disc import (
    BlaschkeProduct,
    ModelSpace1D,
    model_space,
    multiplication_operator,
    truncated_shift,
)
from .errors import ContractError, ScenarioError, SizingError

__all__ = [
    "DiscFactor",
    "FullHardy",
    "Inner",
    "PolydiscScenario",
    "SubmoduleHandle",
    "commuting_projection_sum",
    "coordinate_shift",
    "default_degrees",
    "make_scenario",
    "quotient_assembly",
    "slot_apply",
    "submodule_projection",
]


@dataclass(frozen=True)
class Inner:
    """Tensor slot carrying a finite Blaschke product."""

    product: BlaschkeProduct


@dataclass(frozen=True)
class FullHardy:
    """Tensor slot with the zero symbol: the factor is the whole truncated space."""


DiscFactor = Inner | FullHardy


@dataclass(frozen=True)
class PolydiscScenario:
    """n tensor slots with factors and per-slot truncation degrees."""

    factors: tuple[DiscFactor, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ScenarioError("a polydisc scenario needs at least two variables")
        if len(self.degrees) != len(self.factors):
            raise ScenarioError(
                f"{len(self.degrees)} degrees given for {len(self.factors)} slots"
            )
        for i, (f, n) in enumerate(zip(self.factors, self.degrees)):
            if n < 1:
                raise ScenarioError(f"slot {i}: truncation degree must be >= 1, got {n}")
            if isinstance(f, Inner) and n < minimum_truncation(f.product.degree):
                raise ScenarioError(
                    f"slot {i}: truncation {n} below the floor "
                    f"{minimum_truncation(f.product.degree)} for Blaschke degree "
                    f"{f.product.degree}"
                )

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.degrees)

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    @property
    def inner_slots(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if isinstance(f, Inner))

    @property
    def degenerate(self) -> bool:
        """True when no slot is Inner, so the submodule collapses to {0}."""
        return not self.inner_slots


def shrink_degrees(factors, degrees, budget: int) -> tuple[int, ...]:
    """Best-effort shrink of per-slot degrees toward an ambient ``budget``.

    Repeatedly lowers the largest degree still above its floor (the
    model-space floor for Inner slots, 2 for FullHardy slots).  Stops when
    the ambient dimension fits or every slot sits at its floor, so the
    result may still exceed ``budget``.
    """
    degrees = list(degrees)
    floors = [
        minimum_truncation(f.product.degree) if isinstance(f, Inner) else 2
        for f in factors
    ]
    while math.prod(d + 1 for d in degrees) > budget:
        candidates = [i for i in range(len(degrees)) if degrees[i] > floors[i]]
        if not candidates:
            break
        worst = max(candidates, key=lambda i: degrees[i])
        degrees[worst] -= 1
    return tuple(degrees)


def default_degrees(
    factors: tuple[DiscFactor, ...] | list[DiscFactor],
    *,
    budget: int = AMBIENT_DIM_BUDGET,
    cap: int = MATRIX_CAP,
) -> tuple[int, ...]:
    """Per-slot truncations: one-variable defaults, shrunk to fit the budget.

    FullHardy slots get FULL_SLOT_DEGREE; Inner slots start from the
    one-variable default and are reduced evenly (never below the model-space
    floor) until the ambient dimension fits ``budget``.
    """
    budget = min(budget, cap)
    degrees = shrink_degrees(
        factors,
        [
            disc_truncation(f.product.degree) if isinstance(f, Inner) else FULL_SLOT_DEGREE
            for f in factors
        ],
        budget,
    )
    if math.prod(d + 1 for d in degrees) > budget:
        raise SizingError(
            f"ambient dimension {math.prod(d + 1 for d in degrees)} cannot be "
            f"reduced below the budget {budget} for these factors"
        )
    return degrees


def make_scenario(
    factors,
    degrees=None,
    *,
    budget: int = AMBIENT_DIM_BUDGET,
    cap: int = MATRIX_CAP,
) -> PolydiscScenario:
    """Build a scenario, resolving default degrees and enforcing the cap."""
    factors = tuple(factors)
    if degrees is None:
        degrees = default_degrees(factors, budget=budget, cap=cap)
    scenario = PolydiscScenario(factors=factors, degrees=tuple(int(d) for d in degrees))
    if scenario.dimension > cap:
        raise SizingError(
            f"ambient tensor dimension {scenario.dimension} exceeds the cap {cap}"
        )
    return scenario


@dataclass(frozen=True)
class SlotSpace:
    """One realized tensor slot: basis of the quotient factor plus the shift."""

    dimension: int
    quotient_basis: np.ndarray  # (dim, q): model basis for Inner, identity for FullHardy
    shift: np.ndarray  # truncated one-variable shift on the slot
    model: ModelSpace1D | None  # None for FullHardy and for degree-0 Inner factors

    @property
    def quotient_dimension(self) -> int:
        return self.quotient_basis.shape[1]

    def quotient_projector(self) -> np.ndarray:
        if self.quotient_basis.shape[1] == self.dimension:
            return np.eye(self.dimension, dtype=complex)
        return self.quotient_basis @ self.quotient_basis.conj().T

    @property
    def compressed_shift(self) -> np.ndarray:
        """The slot shift compressed to the quotient factor, in its basis.

        The model compressed shift for Inner slots, the truncated shift on a
        FullHardy slot and a 0x0 matrix for a degree-0 factor.
        """
        if self.model is not None:
            return self.model.compressed_shift
        if self.quotient_dimension == self.dimension:
            return self.shift
        return np.zeros((0, 0), dtype=complex)


def slot_spaces(scenario: PolydiscScenario, *, gram_tol: float = GRAM_TOL) -> list[SlotSpace]:
    """Realize every slot of a scenario at its truncation degree."""
    return realize_slots(scenario.factors, scenario.degrees, gram_tol=gram_tol)


def realize_slots(
    factors, degrees, *, gram_tol: float = GRAM_TOL
) -> list[SlotSpace]:
    """Realize an arbitrary list of (factor, degree) slots."""
    out: list[SlotSpace] = []
    for f, n in zip(factors, degrees):
        d = n + 1
        shift = truncated_shift(n)
        if isinstance(f, FullHardy):
            out.append(
                SlotSpace(dimension=d, quotient_basis=np.eye(d, dtype=complex), shift=shift, model=None)
            )
        elif f.product.degree == 0:
            # constant inner factor: its shifted multiples fill the slot, the
            # quotient factor is {0}
            out.append(
                SlotSpace(
                    dimension=d,
                    quotient_basis=np.zeros((d, 0), dtype=complex),
                    shift=shift,
                    model=None,
                )
            )
        else:
            ms = model_space(f.product, n, gram_tol=gram_tol)
            out.append(SlotSpace(dimension=d, quotient_basis=ms.basis, shift=shift, model=ms))
    return out


@dataclass(frozen=True)
class SubmoduleHandle:
    """Realized submodule: per-slot factors; P_S is assembled on first read."""

    scenario: PolydiscScenario
    slots: list[SlotSpace] = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.scenario.dimension

    @property
    def degenerate(self) -> bool:
        return self.scenario.degenerate

    @property
    def quotient_dimension(self) -> int:
        return math.prod(s.quotient_dimension for s in self.slots)

    @cached_property
    def projection(self) -> np.ndarray:
        """P_S on the ambient truncated basis; zero for a degenerate scenario."""
        dim = self.dimension
        if self.degenerate:
            return np.zeros((dim, dim), dtype=complex)
        pq = kernel.kron_all([s.quotient_projector() for s in self.slots], cap=MATRIX_CAP)
        return np.eye(dim, dtype=complex) - pq


def slot_apply(op: np.ndarray, x: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Apply ``I x ... x op x ... x I`` (op at ``slot``) to the columns of x.

    Equivalent to ``kron_all(identities with op at slot) @ x`` but costs
    O(rows(x) * cols(x) * dims[slot]) instead of a full dense product: one
    batched matmul over the slots before ``slot``, with the slots after it
    and the columns of x flattened into the matmul's column axis.
    """
    rows = math.prod(dims)
    if x.shape[0] != rows:
        raise ContractError(f"operand has {x.shape[0]} rows, expected {rows}")
    if op.shape[1] != dims[slot]:
        raise ContractError(
            f"operator acts on dimension {op.shape[1]}, slot {slot} has {dims[slot]}"
        )
    y = np.matmul(op, x.reshape(math.prod(dims[:slot]), dims[slot], -1))
    return y.reshape((op.shape[0] * rows // dims[slot],) + x.shape[1:])


def coordinate_shift(scenario: PolydiscScenario, slot: int, *, cap: int = MATRIX_CAP) -> np.ndarray:
    """Ambient matrix of multiplication by the slot coordinate (top degree to 0)."""
    if not 0 <= slot < scenario.n:
        raise ContractError(f"slot {slot} out of range for n={scenario.n}")
    mats = [np.eye(d, dtype=complex) for d in scenario.dims]
    mats[slot] = truncated_shift(scenario.degrees[slot])
    return kernel.kron_all(mats, cap=cap)


def commuting_projection_sum(
    projections: list[np.ndarray], *, tol: float = COMMUTING_TOL
) -> np.ndarray:
    """Projector onto the sum of ranges of commuting orthogonal projections.

    Checks that the projections commute and that the telescoping and product
    formulas of ``projection_formula_residuals`` agree within ``tol``, and
    returns the product form ``I - prod(I - P_i)``.
    """
    mats = [kernel.as_complex_matrix(p) for p in projections]
    if not mats:
        raise ContractError("commuting_projection_sum needs at least one projection")
    for p in mats:
        kernel.check_projector(p, idem_tol=tol, herm_tol=1e-10)
    worst = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            worst = max(worst, float(np.linalg.norm(mats[a] @ mats[b] - mats[b] @ mats[a], 2)))
    if worst > tol:
        raise ContractError(f"projections do not commute: max commutator norm {worst:.3e}")

    residuals = projection_formula_residuals(mats)
    if max(residuals.values()) > tol:
        raise ContractError(
            "projection-sum formulas disagree: telescoping "
            f"{residuals['forward_vs_backward']:.3e}/{residuals['backward_vs_product']:.3e}, "
            f"product {residuals['forward_vs_product']:.3e} (tol {tol:g})"
        )
    return _product_form(mats)


def _product_form(mats: list[np.ndarray]) -> np.ndarray:
    eye = np.eye(mats[0].shape[0], dtype=complex)
    prod = eye.copy()
    for p in mats:
        prod = prod @ (eye - p)
    return eye - prod


def projection_formula_residuals(projections: list[np.ndarray]) -> dict[str, float]:
    """Pairwise disagreements of the three projection-sum formulas.

    The two telescoping sums

        P_1(I-P_2)...(I-P_n) + P_2(I-P_3)...(I-P_n) + ... + P_n
        P_n(I-P_{n-1})...(I-P_1) + ... + P_2(I-P_1) + P_1

    against each other and against the product form ``I - prod(I - P_i)``.
    """
    mats = [kernel.as_complex_matrix(p) for p in projections]
    eye = np.eye(mats[0].shape[0], dtype=complex)
    comp = [eye - p for p in mats]

    def telescope(order):
        total = np.zeros_like(eye)
        for pos, k in enumerate(order):
            term = mats[k]
            for l in order[pos + 1 :]:
                term = term @ comp[l]
            total = total + term
        return total

    forward = telescope(list(range(len(mats))))
    backward = telescope(list(range(len(mats) - 1, -1, -1)))
    product_form = _product_form(mats)
    return {
        "forward_vs_backward": float(np.linalg.norm(forward - backward, 2)),
        "forward_vs_product": float(np.linalg.norm(forward - product_form, 2)),
        "backward_vs_product": float(np.linalg.norm(backward - product_form, 2)),
    }


def inner_range_projections(
    scenario: PolydiscScenario,
    slots: list[SlotSpace] | None = None,
    *,
    gram_tol: float = GRAM_TOL,
    cap: int = MATRIX_CAP,
) -> list[np.ndarray]:
    """Ambient projectors onto the shifted-multiple ranges, one per Inner slot."""
    if slots is None:
        slots = slot_spaces(scenario, gram_tol=gram_tol)
    family = []
    for i in scenario.inner_slots:
        mats = [np.eye(d, dtype=complex) for d in scenario.dims]
        s = slots[i]
        mats[i] = np.eye(s.dimension, dtype=complex) - s.quotient_projector()
        family.append(kernel.kron_all(mats, cap=cap))
    return family


def submodule_projection(
    scenario: PolydiscScenario,
    *,
    gram_tol: float = GRAM_TOL,
) -> SubmoduleHandle:
    """Realize every slot of the scenario into one submodule handle.

    The ambient projection ``I - kron(slot quotient projectors)``, the
    product form of the commuting-projection sum (the slotwise factorization
    is exact for tensor slots), is built on the first read of
    ``handle.projection``.  Degenerate scenarios yield the zero projection.
    """
    return SubmoduleHandle(scenario=scenario, slots=slot_spaces(scenario, gram_tol=gram_tol))


def quotient_assembly(
    scenario: PolydiscScenario,
    *,
    gram_tol: float = GRAM_TOL,
) -> SubmoduleHandle:
    """The same handle as ``submodule_projection``, named for quotient-side callers."""
    return submodule_projection(scenario, gram_tol=gram_tol)


def quotient_basis(handle: SubmoduleHandle, *, cap: int = MATRIX_CAP) -> np.ndarray:
    """Ambient orthonormal basis of the quotient (columns), slot 0 slowest."""
    return kernel.kron_all([s.quotient_basis for s in handle.slots], cap=cap)


def interior_mask(scenario: PolydiscScenario, slot: int, *, width: int = 1) -> np.ndarray:
    """Boolean ambient mask selecting multi-indices with alpha_slot <= N_slot - width."""
    keep = np.zeros(scenario.dims[slot], dtype=bool)
    keep[: max(0, scenario.dims[slot] - width)] = True
    full = np.ones(1, dtype=bool)
    for k, d in enumerate(scenario.dims):
        full = np.kron(full, keep if k == slot else np.ones(d, dtype=bool))
    return full.astype(bool)


def shift_invariance_residual(handle: SubmoduleHandle, slot: int) -> float:
    """Norm of (I - P_S) M_slot P_S restricted to interior multi-indices.

    With D the interior mask (slot index below the top degree) and q, Q, S,
    d the slot's quotient basis, quotient projector, shift and mask,

        (I - P_S) M_slot P_S D = (x)_{l != slot} Q_l  tensor  Q S (I - Q) d,

    since M_slot and D act on the slot alone and P_S = I - (x)_l Q_l.  Every
    other factor has norm one, so the residual is the slot-sized
    ``||q* S (I - Q) d||``, and 0 when the quotient is {0}.
    """
    if handle.quotient_dimension == 0:
        return 0.0
    s = handle.slots[slot]
    small = s.quotient_basis.conj().T @ s.shift @ (np.eye(s.dimension) - s.quotient_projector())
    small[:, -1] = 0.0
    return kernel.operator_norm(small)


def submodule_span_gap(
    handle: SubmoduleHandle,
    *,
    window: int = TAIL_WINDOW,
) -> float:
    """Directional gap from the stacked shifted-multiple columns into ran P_S.

    Columns are truncations of ``z^alpha * theta_i`` with the slot-i index
    kept ``window`` slots below the top; their span should sit inside the
    submodule up to tail products.

    Computed per slot: with U_i an orthonormal basis of the kept slot-i
    multiplication columns and q_i the slot quotient basis, the compressed
    span projector is ``q_Q* P_V q_Q = I - (x)_i q_i* (I - U_i U_i*) q_i``, so
    the gap is ``sqrt(1 - prod_i (1 - s_i^2))`` with ``s_i = ||q_i* U_i||``.
    """
    scenario = handle.scenario
    if handle.quotient_dimension == 0:
        return 0.0
    # no Inner slot (degenerate scenario): empty product, gap 0
    log_kept = 0.0
    for i in scenario.inner_slots:
        product = scenario.factors[i].product
        # keep at least the theta column itself
        j_max = max(0, scenario.degrees[i] - product.degree - window)
        mult_cols = multiplication_operator(product, scenario.degrees[i])[:, : j_max + 1]
        u = kernel.orthonormal_basis_of_span(mult_cols, rel_tol=SPAN_RANK_REL_TOL)
        s = kernel.operator_norm(handle.slots[i].quotient_basis.conj().T @ u)
        log_kept += math.log1p(-s * s)
    # expm1 keeps 1 - prod(...) exact near 0; abs() turns sqrt(-0.0) into 0.0
    return abs(math.sqrt(-math.expm1(log_kept)))
