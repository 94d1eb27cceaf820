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
negative margin (the lowest index among exact ties).  All of this is
asserted at runtime; violations raise SelectionInvariantError instead of
silently returning a weak subset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .bss import check_eps
from .errors import SelectionInvariantError
from .linalg import Certificate, Frame, certify_spectrum, eigh, isotropic_reduce, symmetrize

_MU_TOL = 1e-9
_MARGIN_SLACK = 1e-12
_POTENTIAL_DECREASE_RTOL = 1e-9
_EIGENCOUNT_TOL = 1e-9
_BARRIER_SEPARATION_RTOL = 1e-12
_GRAM_FLOOR_TOL = 1e-8
_RANGE_BASIS_TOL = 1e-10
# Margins this close to the best one (relative to the best candidate's lhs and
# rhs) tie; the lowest tied index wins.
_TIE_RTOL = 1e-12


class RiSelection(NamedTuple):
    """What ``ri_select`` returns, at the caller's scale.

    ``selected`` lists the chosen indices in choice order and ``gram`` is
    the Gram matrix (<T x_i, T x_j>) over them.  ``certificate`` bounds
    that Gram matrix's spectrum below by the floor (1-eps)^2 ||T||_HS^2 / m
    and records its measured extremes; it is None for an empty selection.
    ``stable_rank`` is ||T||_HS^2 / ||T||^2 of the operator the loop ran on.
    """

    selected: list[int]
    gram: np.ndarray
    certificate: Certificate | None
    stable_rank: float


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


def operator_norms(t: np.ndarray) -> tuple[float, float]:
    """Squared Hilbert-Schmidt and operator norms of T.

    ||T||^2 is the top eigenvalue of the smaller of T^T T and T T^T, which
    costs a fraction of a singular value decomposition.
    """
    t = np.asarray(t, dtype=float)
    small = t.T @ t if t.shape[1] <= t.shape[0] else t @ t.T
    return float(np.sum(t * t)), float(np.linalg.eigvalsh(small)[-1])


def ri_select(
    frame: Frame,
    t: np.ndarray,
    eps: float,
    *,
    history: list | None = None,
) -> RiSelection:
    """Select k = floor(eps^2 ||T||_HS^2/||T||^2) well-conditioned columns.

    Returns an ``RiSelection``: the selected indices in choice order, the
    Gram matrix (<T x_i, T x_j>) over them, the certificate that its
    smallest eigenvalue is at least (1-eps)^2 ||T||_HS^2 / m, and the
    stable rank of T.  Frames that are not isotropy certified are whitened
    first and T is conjugated onto the reduced coordinates (reported
    through a warning).  When the stable rank of T is too small for the
    requested accuracy (k == 0) an empty selection is returned with a
    warning.

    T is first scaled by the power of two that puts max|T| in [0.5, 1), so
    the selection does not depend on the scale of T: T * 2^j selects the
    same columns bit for bit, returns the Gram matrix and every certificate
    bound times 4^j, and the same stable rank.  A ValueError is raised when
    that Gram matrix or its certificate overflows or underflows at the
    caller's scale.

    The running sum A = P P^T of the i selected images P is kept factored.
    Each step eigendecomposes the i x i Gram matrix P^T P = W Lambda W^T,
    which gives A's range basis U = P W Lambda^{-1/2} (checked orthonormal)
    and A's spectrum, Lambda padded with zeros.  The resolvent is applied as
    U diag(1/(lambda - b) + 1/b) U^T - I/b, so the candidate scores, both
    invariant checks and the recomputed trace potential cost O(n i m) per
    step and no n x n matrix is decomposed.  Among candidates whose margin
    is within 1e-12 * max(1, |lhs|, |rhs|) of the best (the scale taken at
    the best one), the lowest index is picked, so rounding never decides
    between exactly tied columns.

    ``history`` (a caller-supplied list) receives one record per step with
    the barrier level (at the caller's scale), the feasibility margin, and
    the trace potential.
    """
    check_eps(eps)
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"operator must be a matrix, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("operator must be finite")
    if frame.vectors is None:
        raise ValueError("ri_select needs stored vectors; pass Frame(frame.rows()) for an edge frame")

    work = frame
    if not frame.isotropy_certified:
        work, lift = isotropic_reduce(frame)
        t = t @ lift
        if not np.all(np.isfinite(t)):
            raise ValueError("operator overflows float64 when conjugated onto the whitened span")
        warnings.warn(
            f"frame was not a decomposition of the identity; whitened onto its span "
            f"(rank {lift.shape[1]}) and conjugated the operator accordingly",
            stacklevel=2,
        )
    if t.shape[1] != work.ambient_dim:
        raise ValueError(
            f"operator has {t.shape[1]} columns but the frame lives in "
            f"dimension {work.ambient_dim}"
        )
    if not np.any(t):
        raise ValueError("operator is zero on the frame's span; nothing to select")

    _, exponent = np.frexp(np.max(np.abs(t)))
    exponent = int(exponent)
    t = np.ldexp(t, -exponent)  # exact: max|t| now in [0.5, 1)
    m = work.size
    hs_sq, op_sq = operator_norms(t)
    stable_rank = hs_sq / op_sq
    k = selection_size(hs_sq, op_sq, eps)
    if k == 0:
        warnings.warn(
            f"stable rank {stable_rank:.3g} is below 1/eps^2 = {1 / eps**2:.3g}; "
            "returning an empty selection",
            stacklevel=2,
        )
        return RiSelection([], np.zeros((0, 0)), None, stable_rank)

    images = t @ work.vectors.T  # column j is T x_j
    pulled_fixed = t.T @ images  # column j is T^* T x_j
    image_sq = np.einsum("ij,ij->j", images, images)
    image_total = float(image_sq.sum())
    # Factored state of the running sum: its nonzero eigenvalues, its range
    # basis pulled back by T^*, and every image in that basis.
    lam = np.zeros(0)
    t_basis = np.zeros((t.shape[1], 0))
    coords = np.zeros((0, m))
    potential = -hs_sq / ri_barrier(0, hs_sq, op_sq, m, eps)  # exactly -m/(1-eps)
    floor_level = -m / (1.0 - eps)
    selected: list[int] = []

    for i in range(1, k + 1):
        b_i = ri_barrier(i, hs_sq, op_sq, m, eps)
        e, d_kernel = _factored_resolvent(lam, b_i, i)
        weighted = e[:, None] * coords
        lin = np.einsum("ij,ij->j", weighted, coords) + d_kernel * image_sq
        mu = potential - float(lin.sum())
        if mu < -_MU_TOL * max(1.0, abs(potential)):
            raise SelectionInvariantError(
                f"barrier drop mu = {mu:.6g} negative at step {i}; breakdown"
            )
        # T^* (A - b_i I)^{-1} T x_j for every candidate j, as columns.
        pulled = t_basis @ weighted
        pulled += d_kernel * pulled_fixed
        lhs = np.einsum("ij,ij->j", pulled, pulled)
        rhs = -mu * (1.0 + lin)
        margin = lhs - rhs
        best = int(np.argmin(margin))
        scale = max(abs(lhs[best]), abs(rhs[best]), 1.0)
        chosen = int(np.argmax(margin <= margin[best] + _TIE_RTOL * scale))
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
        _check_kernel_mass(t_basis, i, hs_sq, op_sq)
        selected.append(chosen)

        picked = images[:, selected]
        gram = symmetrize(picked.T @ picked)
        decomp = eigh(gram)
        lam = decomp.values
        _check_eigenvalue_counts(np.append(lam, np.zeros(images.shape[0] - i)), b_i, i)
        to_basis = decomp.vectors / np.sqrt(lam)
        basis = picked @ to_basis
        residual = float(np.max(np.abs(basis.T @ basis - np.eye(i))))
        if residual > _RANGE_BASIS_TOL:
            raise SelectionInvariantError(
                f"range basis of the running sum not orthonormal after step {i}: "
                f"residual {residual:.3e}"
            )
        t_basis = pulled_fixed[:, selected] @ to_basis
        coords = basis.T @ images
        e, d_kernel = _factored_resolvent(lam, b_i, i)
        new_potential = float(e @ np.sum(coords * coords, axis=1)) + d_kernel * image_total
        if not new_potential < potential + _POTENTIAL_DECREASE_RTOL * abs(potential):
            raise SelectionInvariantError(
                f"trace potential failed to decrease at step {i}: "
                f"{potential:.6g} -> {new_potential:.6g}"
            )
        if new_potential > floor_level * (1.0 - _POTENTIAL_DECREASE_RTOL):
            raise SelectionInvariantError(
                f"trace potential {new_potential:.6g} above {floor_level:.6g} at step {i}"
            )
        if history is not None:
            history.append(
                {
                    "step": i,
                    "barrier": float(np.ldexp(b_i, 2 * exponent)),
                    "mu": mu,
                    "chosen": chosen,
                    "margin": float(margin[chosen]),
                    "potential": new_potential,
                }
            )
        potential = new_potential

    if len(set(selected)) != len(selected):
        raise SelectionInvariantError(f"selected indices repeat: {selected}")
    # The last step decomposed exactly this Gram matrix.
    floor = (1.0 - eps) ** 2 * hs_sq / m
    cert = certify_spectrum(lam, floor, np.inf, tol=_GRAM_FLOOR_TOL, what="selected Gram matrix")
    return RiSelection(selected, *_at_scale(gram, cert, 2 * exponent), stable_rank)


def _at_scale(gram: np.ndarray, cert: Certificate, exponent: int) -> tuple[np.ndarray, Certificate]:
    # The Gram matrix and its certificate times 2^exponent, which is exact
    # while every value stays normal; refuses a result float64 cannot hold.
    with np.errstate(over="ignore", under="ignore"):
        out = np.ldexp(gram, exponent)
        ends = np.ldexp([cert.low, cert.measured_min, cert.measured_max], exponent)
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(ends))):
        raise ValueError(
            f"Gram matrix of the selected columns overflows float64 at the operator's scale "
            f"(top eigenvalue {cert.measured_max:.3g} times 2^{exponent})"
        )
    low, lo, hi = (float(x) for x in ends)
    if min(low, lo) < np.finfo(float).tiny:
        raise ValueError(
            f"Gram matrix of the selected columns underflows float64 at the operator's scale "
            f"(certified floor {cert.low:.3g} times 2^{exponent})"
        )
    return out, replace(cert, low=low, measured_min=lo, measured_max=hi)


def _factored_resolvent(lam: np.ndarray, barrier: float, step: int) -> tuple[np.ndarray, float]:
    # (A - b I)^{-1} = U diag(e) U^T + d_kernel I when A = U diag(lam) U^T has
    # orthonormal U; A's spectrum is lam padded with zeros.  Refuses a barrier
    # on that spectrum.
    spectrum = np.append(lam, 0.0)
    gap = spectrum - barrier
    closest = float(np.min(np.abs(gap)))
    if closest <= _BARRIER_SEPARATION_RTOL * max(1.0, float(spectrum[0])):
        raise SelectionInvariantError(
            f"barrier {barrier:.6g} at step {step} sits on the spectrum "
            f"(closest eigenvalue gap {closest:.3e})"
        )
    d = 1.0 / gap
    return d[:-1] - d[-1], float(d[-1])


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


def _check_kernel_mass(t_basis: np.ndarray, step: int, hs_sq: float, op_sq: float) -> None:
    # Mass of T on the kernel of the running sum cannot drop faster than one
    # squared operator norm per completed step; ``t_basis`` is T^* U for the
    # orthonormal range basis U.
    kernel_mass = hs_sq - float(np.sum(t_basis * t_basis))
    required = hs_sq - (step - 1) * op_sq
    if kernel_mass < required - 1e-8 * max(hs_sq, 1.0):
        raise SelectionInvariantError(
            f"kernel mass {kernel_mass:.9g} below {required:.9g} before step {step}"
        )
