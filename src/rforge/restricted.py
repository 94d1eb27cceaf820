"""Deterministic selection of well-conditioned column subsets.

Given an operator T and a frame x_1..x_m whose outer products sum to the
identity, the routine below picks k = floor(eps^2 ||T||_HS^2 / ||T||^2)
indices sigma so that the Gram matrix of {T x_i : i in sigma} has smallest
eigenvalue at least (1-eps)^2 ||T||_HS^2 / m.  Equivalently, the selected
images are linearly independent with an explicit lower bound on how far
they stay from degeneracy.

The driver is a descending barrier b_i: the running sum of selected outer
products always keeps its i nonzero eigenvalues above b_i, and the trace
potential tr(T^* (A_i - b_i I)^{-1} T) strictly decreases.  At every step a
feasibility inequality singles out candidates that keep both properties;
one always exists, and the implementation picks the one with the most
negative margin.  All of this is asserted at runtime; violations raise
SelectionInvariantError instead of silently returning a weak subset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bss import check_eps
from .errors import SelectionInvariantError
from .linalg import EigenDecomposition, Frame, certify_spectrum, eigh, isotropic_reduce, symmetrize

_MU_TOL = 1e-9
_MARGIN_SLACK = 1e-12
_POTENTIAL_DECREASE_RTOL = 1e-9
_EIGENCOUNT_TOL = 1e-9
_BARRIER_SEPARATION_RTOL = 1e-12
_GRAM_FLOOR_TOL = 1e-8


@dataclass
class RiState:
    """Selector state after ``step`` choices.

    ``A`` is the sum of outer products of the selected images, ``b`` the
    barrier level at this step, ``potential`` the trace potential
    tr(T^* (A - b I)^{-1} T).  The instance constants (frame size, target
    accuracy, and the two norms of T) ride along so per-candidate tests can
    derive the next barrier level without extra arguments.
    """

    step: int
    A: np.ndarray
    b: float
    potential: float
    selected: list[int] = field(default_factory=list)
    m: int = 0
    eps: float = 0.0
    t_hs_sq: float = 0.0
    t_op_sq: float = 0.0


def selection_size(t_hs_sq: float, t_op_sq: float, eps: float) -> int:
    return math.floor(eps**2 * t_hs_sq / t_op_sq)


def ri_barrier(i: int, t_hs_sq: float, t_op_sq: float, m: int, eps: float) -> float:
    """Barrier level before the i-th selection.

    Stays at least (1-eps)^2 * ||T||_HS^2 / m for all admissible i, which is
    what makes the final Gram bound work out.
    """
    check_eps(eps)
    if m < 1:
        raise ValueError(f"frame size must be positive, got {m}")
    k = selection_size(t_hs_sq, t_op_sq, eps)
    if not 0 <= i <= k:
        raise ValueError(f"barrier index {i} outside [0, {k}]")
    return (1.0 - eps) / m * (t_hs_sq - (i / eps) * t_op_sq)


def ri_candidate_test(state: RiState, t: np.ndarray, x: np.ndarray, mu: float) -> tuple[float, float]:
    """Both sides of the feasibility inequality for one candidate vector.

    Returns (lhs, rhs); the candidate is admissible iff lhs < rhs.  The lhs
    is a squared norm, hence nonnegative; for any admissible candidate the
    shifted quadratic form 1 + <(A - b' I)^{-1} T x, T x> is negative.
    Raises SelectionInvariantError when b' lies on the spectrum of A.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    b_next = ri_barrier(state.step + 1, state.t_hs_sq, state.t_op_sq, state.m, state.eps)
    image = t @ x
    decomp = eigh(symmetrize(state.A))
    d = _resolvent_diagonal(decomp.values, b_next, state.step + 1)
    w = decomp.vectors @ (d * (decomp.vectors.T @ image))
    lhs = float(np.sum((t.T @ w) ** 2))
    rhs = float(-mu * (1.0 + w @ image))
    return lhs, rhs


def _operator_norms(t: np.ndarray) -> tuple[float, float]:
    hs_sq = float(np.sum(t * t))
    op_sq = float(np.linalg.norm(t, ord=2) ** 2)
    return hs_sq, op_sq


def ri_select(
    frame: Frame,
    t: np.ndarray,
    eps: float,
    *,
    history: list | None = None,
) -> tuple[list[int], np.ndarray]:
    """Select k = floor(eps^2 ||T||_HS^2/||T||^2) well-conditioned columns.

    Returns the selected indices in choice order and the Gram matrix
    (<T x_i, T x_j>) over them; its smallest eigenvalue is certified to be
    at least (1-eps)^2 ||T||_HS^2 / m.  Frames that are not isotropy
    certified are whitened first and T is conjugated onto the reduced
    coordinates (reported through a warning).  When the stable rank of T is
    too small for the requested accuracy (k == 0) an empty selection is
    returned with a warning.

    ``history`` (a caller-supplied list) receives one record per step with
    the barrier level, the feasibility margin, and the trace potential.
    Each step eigendecomposes the running sum once; the candidate scores,
    the kernel-mass and eigenvalue-count invariant checks and the
    recomputed trace potential all read that one decomposition.
    """
    check_eps(eps)
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"operator must be a matrix, got shape {t.shape}")
    if not np.any(t):
        raise ValueError("operator is zero; nothing to select")

    work = frame
    if not frame.isotropy_certified:
        work, mapping = isotropic_reduce(frame)
        t = t @ mapping.matrix
        warnings.warn(
            f"frame was not a decomposition of the identity; whitened onto its span "
            f"(rank {mapping.rank}) and conjugated the operator accordingly",
            stacklevel=2,
        )
    if t.shape[1] != work.ambient_dim:
        raise ValueError(
            f"operator has {t.shape[1]} columns but the frame lives in "
            f"dimension {work.ambient_dim}"
        )

    m = work.size
    hs_sq, op_sq = _operator_norms(t)
    k = selection_size(hs_sq, op_sq, eps)
    if k == 0:
        warnings.warn(
            f"stable rank {hs_sq / op_sq:.3g} is below 1/eps^2 = {1 / eps**2:.3g}; "
            "returning an empty selection",
            stacklevel=2,
        )
        return [], np.zeros((0, 0))

    images = t @ work.vectors.T  # column j is T x_j
    dim = images.shape[0]
    a = np.zeros((dim, dim))
    decomp = eigh(a)
    coords = decomp.vectors.T @ images  # images in the eigenbasis of a
    potential = -hs_sq / ri_barrier(0, hs_sq, op_sq, m, eps)  # exactly -m/(1-eps)
    floor_level = -m / (1.0 - eps)
    selected: list[int] = []

    for i in range(1, k + 1):
        b_i = ri_barrier(i, hs_sq, op_sq, m, eps)
        d = _resolvent_diagonal(decomp.values, b_i, i)
        lin = d @ (coords * coords)
        mu = potential - float(lin.sum())
        if mu < -_MU_TOL * max(1.0, abs(potential)):
            raise SelectionInvariantError(
                f"barrier drop mu = {mu:.6g} negative at step {i}; breakdown"
            )
        # T^* (a - b_i I)^{-1} T x_j for every candidate j, as columns.
        pulled = (t.T @ decomp.vectors) @ (d[:, None] * coords)
        lhs = np.einsum("ij,ij->j", pulled, pulled)
        rhs = -mu * (1.0 + lin)
        margin = lhs - rhs
        chosen = int(np.argmin(margin))
        scale = max(abs(lhs[chosen]), abs(rhs[chosen]), 1.0)
        if not margin[chosen] < -_MARGIN_SLACK * scale:
            raise SelectionInvariantError(
                f"no admissible candidate at step {i}: best margin {margin[chosen]:.6g}"
            )
        if not 1.0 + lin[chosen] < 0.0:
            raise SelectionInvariantError(
                f"admissible candidate {chosen} has nonnegative shifted form "
                f"{1.0 + lin[chosen]:.6g} at step {i}"
            )
        _check_kernel_mass(decomp, t, i, hs_sq, op_sq)
        a = a + np.outer(images[:, chosen], images[:, chosen])
        selected.append(chosen)

        decomp = eigh(symmetrize(a))
        coords = decomp.vectors.T @ images
        d_new = _resolvent_diagonal(decomp.values, b_i, i)
        new_potential = float(d_new @ np.sum(coords * coords, axis=1))
        if not new_potential < potential + _POTENTIAL_DECREASE_RTOL * abs(potential):
            raise SelectionInvariantError(
                f"trace potential failed to decrease at step {i}: "
                f"{potential:.6g} -> {new_potential:.6g}"
            )
        if new_potential > floor_level * (1.0 - _POTENTIAL_DECREASE_RTOL):
            raise SelectionInvariantError(
                f"trace potential {new_potential:.6g} above {floor_level:.6g} at step {i}"
            )
        _check_eigenvalue_counts(decomp.values, b_i, i)
        if history is not None:
            history.append(
                {
                    "step": i,
                    "barrier": b_i,
                    "mu": mu,
                    "chosen": chosen,
                    "margin": float(margin[chosen]),
                    "potential": new_potential,
                }
            )
        potential = new_potential

    if len(set(selected)) != len(selected):
        raise SelectionInvariantError(f"selected indices repeat: {selected}")
    picked = images[:, selected]
    gram = symmetrize(picked.T @ picked)
    floor = (1.0 - eps) ** 2 * hs_sq / m
    lam = np.linalg.eigvalsh(gram)
    certify_spectrum(lam, floor, np.inf, tol=_GRAM_FLOOR_TOL, what="selected Gram matrix")
    return selected, gram


def _resolvent_diagonal(lam: np.ndarray, barrier: float, step: int) -> np.ndarray:
    # (a - b I)^{-1} in the eigenbasis of a; refuses a barrier on the spectrum.
    gap = lam - barrier
    if float(np.min(np.abs(gap))) <= _BARRIER_SEPARATION_RTOL * max(1.0, float(lam[0])):
        raise SelectionInvariantError(
            f"barrier {barrier:.6g} at step {step} sits on the spectrum "
            f"(closest eigenvalue gap {float(np.min(np.abs(gap))):.3e})"
        )
    return 1.0 / gap


def _check_eigenvalue_counts(lam: np.ndarray, barrier: float, step: int) -> None:
    above = int(np.count_nonzero(lam > barrier))
    if above != step:
        raise SelectionInvariantError(
            f"expected exactly {step} eigenvalues above the barrier {barrier:.6g}, "
            f"found {above}"
        )
    rest = lam[step:]
    if rest.size and float(np.max(np.abs(rest))) > _EIGENCOUNT_TOL * max(float(lam[0]), 1.0):
        raise SelectionInvariantError(
            f"trailing eigenvalues not at zero after step {step}: max "
            f"{float(np.max(np.abs(rest))):.3e}"
        )


def _check_kernel_mass(
    decomp: EigenDecomposition, t: np.ndarray, step: int, hs_sq: float, op_sq: float
) -> None:
    # Mass of T on the kernel of the running sum cannot drop faster than one
    # squared operator norm per completed step.
    lam = decomp.values
    positive = lam > _EIGENCOUNT_TOL * max(float(lam[0]), 1.0)
    basis = decomp.vectors[:, positive]
    kernel_mass = hs_sq - float(np.sum((basis.T @ t) ** 2))
    required = hs_sq - (step - 1) * op_sq
    if kernel_mass < required - 1e-8 * max(hs_sq, 1.0):
        raise SelectionInvariantError(
            f"kernel mass {kernel_mass:.9g} below {required:.9g} before step {step}"
        )
