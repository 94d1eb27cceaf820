"""Deterministic selection of well-conditioned column subsets.

Given a p x m matrix T, the routine below picks k = floor(eps^2 ||T||_HS^2
/ ||T||^2) of its columns sigma so that their Gram matrix has smallest
eigenvalue at least (1-eps)^2 ||T||_HS^2 / m.  Equivalently, the selected
columns are linearly independent with an explicit lower bound on how far
they stay from degeneracy.  For an operator T and a frame x_1..x_m whose
outer products sum to the identity, the columns of T X^T are the images
T x_j and T X^T has T's norms, so the theorem for that pair is this one
with the standard basis as the frame.

The driver is a descending barrier b_i: the running sum of selected outer
products always keeps its i nonzero eigenvalues above b_i, and the trace
potential tr(T^* (A_i - b_i I)^{-1} T) strictly decreases.  At every step a
feasibility inequality singles out candidates that keep both properties;
one always exists, and the implementation picks the one with the most
negative margin (the lowest index among exact ties).  All of this is
asserted at runtime; violations raise SelectionInvariantError instead of
silently returning a weak subset.

No step decomposes anything: with G = P^T P for the selected columns P,
(P P^T - b I)^{-1} = -(I - P (G - b I)^{-1} P^T) / b puts each step on i x m
rows of T^T T, formed once, at O(m^2 + i^2 m), and the certificate is the
one eigensolve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .bss import _TIE_RTOL, check_eps
from .errors import SelectionInvariantError
from .linalg import Certificate, _one_blas_thread, certify_spectrum, eigh, symmetrize

_MU_TOL = 1e-9
_MARGIN_SLACK = 1e-12
_POTENTIAL_DECREASE_RTOL = 1e-9
_BARRIER_SEPARATION_RTOL = 1e-12
_GRAM_FLOOR_TOL = 1e-8
# Margins within bss's _TIE_RTOL of the best one (relative to the best
# candidate's lhs and rhs) tie; the lowest tied index wins.


class RiSelection(NamedTuple):
    """What ``ri_select`` returns, at the caller's scale.

    ``selected`` lists the chosen column indices in choice order and
    ``gram`` is the Gram matrix of those columns of T.  ``certificate`` bounds
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
        raise ValueError(f"column count must be positive, got {m}")
    k = selection_size(t_hs_sq, t_op_sq, eps)
    if not 0 <= i <= k:
        raise ValueError(f"barrier index {i} outside [0, {k}]")
    return (1.0 - eps) / m * (t_hs_sq - (i / eps) * t_op_sq)


@_one_blas_thread
def ri_select(t: np.ndarray, eps: float, *, history: list | None = None) -> RiSelection:
    """Select k = floor(eps^2 ||T||_HS^2/||T||^2) well-conditioned columns of T.

    T is a p x m matrix.  Returns an ``RiSelection``: the selected column
    indices in choice order, the Gram matrix of those columns, the
    certificate that its smallest eigenvalue is at least (1-eps)^2
    ||T||_HS^2 / m, and the stable rank of T.  An operator T on a frame
    x_1..x_m whose outer products sum to the identity is passed as
    ``t @ x.T``, the matrix whose column j is T x_j.  When the stable rank
    of T is too small for the requested accuracy (k == 0) an empty
    selection is returned with a warning.

    T is first scaled by the power of two that puts max|T| in [0.5, 1), so
    the selection does not depend on the scale of T: T * 2^j selects the
    same columns bit for bit, returns the Gram matrix and every certificate
    bound times 4^j, and the same stable rank.  A ValueError is raised when
    that Gram matrix or its certificate overflows or underflows at the
    caller's scale.

    The running sum A = P P^T of the selected columns P = [y_s] is never
    formed: T^T T is, once, and its rows <y_s, .> give G = P^T P, while one
    matrix-vector product with it per step adds the row <T^* y_s, T^* .>
    that gives F^T F for F = T^* P.  With w_j = (G - b I)^{-1} P^T y_j, the
    resolvent R = (A - b I)^{-1} gives y_j^T R y_j = (<P^T y_j, w_j> -
    ||y_j||^2) / b and b^2 ||T^* R y_j||^2 = ||T^* y_j||^2 - 2 <F^T T^* y_j,
    w_j> + w_j^T F^T F w_j, so a step costs O(m^2 + i^2 m).  A Cholesky factor of G - b I shows that A has exactly
    i eigenvalues above b, and the trace potential is recomputed from each
    new G.  Among candidates whose margin is within 1e-12 * max(1, |lhs|,
    |rhs|) of the best (the scale taken at the best one), the lowest index
    is picked, so rounding never decides between exactly tied columns.

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
    if not np.any(t):
        raise ValueError("operator is zero; nothing to select")

    _, exponent = np.frexp(np.max(np.abs(t)))
    exponent = int(exponent)
    t = np.ldexp(t, -exponent)  # exact: max|t| now in [0.5, 1)
    p, m = t.shape
    pulled = t.T @ t  # column j is T^* y_j; exactly symmetric
    hs_sq = float(np.sum(t * t))
    op_sq = float(np.linalg.eigvalsh(pulled if m <= p else t @ t.T)[-1])
    stable_rank = hs_sq / op_sq
    k = selection_size(hs_sq, op_sq, eps)
    if k == 0:
        warnings.warn(
            f"stable rank {stable_rank:.3g} is below 1/eps^2 = {1 / eps**2:.3g}; "
            "returning an empty selection",
            stacklevel=3,  # past the one-BLAS-thread wrapper, to ri_select's caller
        )
        return RiSelection([], np.zeros((0, 0)), None, stable_rank)

    image_sq = np.diagonal(pulled)
    pulled_sq = np.einsum("ij,ij->j", pulled, pulled)
    pulled_cross = np.empty((k, m))  # row s holds <T^* y_s, T^* y_j>
    gram = np.zeros((0, 0))
    potential = -hs_sq / ri_barrier(0, hs_sq, op_sq, m, eps)  # exactly -m/(1-eps)
    floor_level = -m / (1.0 - eps)
    selected: list[int] = []

    for i in range(1, k + 1):
        b_i = ri_barrier(i, hs_sq, op_sq, m, eps)
        rows, prows = pulled[selected], pulled_cross[: i - 1]  # P^T Y and F^T T^* Y
        pulled_gram = prows[:, selected]  # F^T F
        # R y_j = -(y_j - P w_j) / b with w_j = (G - b I)^{-1} P^T y_j.
        w = _shifted_inverse(gram, b_i, i) @ rows
        lin = (np.einsum("ij,ij->j", rows, w) - image_sq) / b_i
        mu = potential - float(lin.sum())
        if mu < -_MU_TOL * max(1.0, abs(potential)):
            raise SelectionInvariantError(
                f"barrier drop mu = {mu:.6g} negative at step {i}; breakdown"
            )
        # ||T^* R y_j||^2 = ||T^* y_j - F w_j||^2 / b^2, expanded over F^T F.
        lhs = pulled_sq - 2.0 * np.einsum("ij,ij->j", prows, w) + np.einsum("ij,ij->j", w, pulled_gram @ w)
        lhs /= b_i**2
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
        _check_kernel_mass(gram, pulled_gram, i, hs_sq, op_sq)
        selected.append(chosen)

        pulled_cross[i - 1] = pulled[chosen] @ pulled
        gram = pulled[np.ix_(selected, selected)]
        # The potential sum_j y_j^T R y_j at b_i, recomputed from the new Gram
        # matrix: (tr((G - b I)^{-1} P^T Y Y^T P) - sum_j ||y_j||^2) / b.
        shifted_inv = _shifted_inverse(gram, b_i, i)
        new_potential = (float(np.sum(shifted_inv * pulled_cross[:i, selected])) - hs_sq) / b_i
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
    picked = t[:, selected]
    gram = symmetrize(picked.T @ picked)
    floor = (1.0 - eps) ** 2 * hs_sq / m
    cert = certify_spectrum(eigh(gram).values, floor, np.inf, tol=_GRAM_FLOOR_TOL, what="selected Gram matrix")
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


def _shifted_inverse(gram: np.ndarray, barrier: float, step: int) -> np.ndarray:
    # (G - b I)^{-1}, refusing a barrier not below G's spectrum or within
    # 1e-12 * max(1, tr G) of A's (G's padded with zeros); the gap is at least
    # min(b, 1/||(G - b I)^{-1}||_F) and tr G >= max eig G, so never looser.
    order = gram.shape[0]
    shifted = gram - barrier * np.eye(order)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise SelectionInvariantError(
            f"barrier {barrier:.6g} at step {step} is not below the spectrum of the "
            f"{order} x {order} selected Gram matrix"
        ) from None
    inverse = np.linalg.inv(shifted)
    closest = min(barrier, 1.0 / float(np.linalg.norm(inverse))) if order else barrier
    if closest <= _BARRIER_SEPARATION_RTOL * max(1.0, float(np.trace(gram))):
        raise SelectionInvariantError(
            f"barrier {barrier:.6g} at step {step} sits on the spectrum "
            f"(eigenvalue gap at most {closest:.3e})"
        )
    return inverse


def _check_kernel_mass(gram: np.ndarray, pulled_gram: np.ndarray, step: int, hs_sq: float, op_sq: float) -> None:
    # Mass of T on the kernel of the running sum A = P P^T cannot drop faster
    # than one squared operator norm per completed step.  T's mass on A's
    # range is tr(G^{-1} F^T F) for G = P^T P and F = T^* P.
    kernel_mass = hs_sq - float(np.trace(np.linalg.solve(gram, pulled_gram)))
    required = hs_sq - (step - 1) * op_sq
    if kernel_mass < required - 1e-8 * max(hs_sq, 1.0):
        raise SelectionInvariantError(
            f"kernel mass {kernel_mass:.9g} below {required:.9g} before step {step}"
        )
