"""Deterministic barrier-potential sparsification of vector frames.

Given m vectors whose outer products sum to the identity on R^n and a
target accuracy eps in (0, 1), the iteration below selects at most
ceil(n/eps^2) of them, with positive weights, so that the weighted sum of
outer products has all eigenvalues inside [(1-eps)^2, (1+eps)^2].  Two
soft "barrier" potentials watch the extreme eigenvalues of the running sum:
the upper barrier advances by theta = (1+eps)/(1-eps) per step and its
potential is conserved exactly, while the lower barrier advances by 1 and
its potential never increases.  At every step some candidate vector keeps
both potentials in check; the iteration picks the one with the largest
slack and steps with weight 1/alpha, where alpha is the chosen vector's
upper-barrier score.

The state keeps the running sum's eigendecomposition A = U diag(lam) U^T.
A step adds one term, A + t x x^T, and updates (lam, U) in place of
eigendecomposing the sum again: a rank-one update in the current
eigenbasis, whose roots and vectors come from LAPACK's secular solver
dlaed9 (``linalg._rank_one_update``).  The new pairs must pass eigh's own
checks against the explicitly accumulated A (reconstruction and
orthonormality, both to 1e-10); an update that fails them, whose roots do
not interlace, or that finds no dlaed9 in numpy gives way to the full
validated eigh, and the step's history record says which ran ("update"
or "full").
The potentials and gaps come from lam alone, and every candidate is scored
in that eigenbasis: with Y = X U (one row per candidate), all four
resolvent quadratic forms are the columns of (Y*Y) @ [du, du^2, dl, dl^2],
where du = 1/(u' - lam) and dl = 1/(lam - l') at the advanced barriers u'
and l'.  The state is a frozen record of what a step cannot recompute
cheaply (A, its eigenpairs and the two potentials); the barrier positions
follow from eps, the step and the order, and one helper turns a spectrum
into its reciprocal gaps, checking that it lies inside the barriers.  All
invariants are re-checked eagerly at every step (any violation raises
BarrierInvariantError rather than returning a bad certificate).

An edge frame stores no rows, only its ``Incidence`` factor, and is scored
without forming Y: its vector for edge e = (i, j) is sqrt(w_e) (B[i] - B[j]), so
with V = B U every score is the effective-resistance form
w_e (M[i,i] + M[j,j] - 2 M[i,j]) of one n x n matrix M = V diag(c) V^T, c
the upper or lower combination of the reciprocal-gap columns.  Two such
matrices score all m edges in O(n^3 + m) per step instead of O(m n^2).
Edges whose endpoint rows are much longer than their difference, where
that gather would cancel, are scored from their rows; rows are built only
for those edges, each step's chosen vector and the certificate's support.

A frame with at most ceil(r/eps^2) nonzero vectors, r its whitened
dimension, already fits the support bound: weighting every nonzero vector
by (1-eps)^2 puts the weighted sum at exactly (1-eps)^2 times the frame's
own form, so ``sparsify_frame`` returns that reweighting, once it passes
the same spectral certificate, and runs no barrier step.  Either way the
returned ``SparseWeights`` carries that certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BarrierInvariantError, CertificationError
from .linalg import (
    Certificate,
    Frame,
    _one_blas_thread,
    _rank_one_update,
    _residual_failure,
    _SecularWorkspace,
    certify_spectrum,
    eigh,
    isotropic_reduce,
    symmetrize,
)

# Tolerances for the per-step invariant checks.
_UPPER_CONSERVATION_RTOL = 1e-8
_LOWER_MONOTONE_TOL = 1e-9
_LOWER_CAP_TOL = 1e-8
_SCORE_SUM_TOL = 1e-8
_FEASIBILITY_SLACK = 1e-9
# Slacks this close to the best one (relative to the score magnitudes) tie;
# the lowest tied index wins.  restricted's selection ties by the same rule.
_TIE_RTOL = 1e-12
_SANDWICH_TOL = 1e-8
# Largest rounding error, relative to the upper score, that an edge may carry
# from the incidence gather before it is scored from its row instead.
_GATHER_RTOL = 1e-10
_MACHINE_EPS = np.finfo(float).eps


def check_eps(eps: float) -> float:
    """Return ``eps`` if it lies in (0, 1); raise ValueError otherwise."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return eps


@dataclass(frozen=True)
class BarrierState:
    """State of the barrier iteration after ``step`` updates.

    ``A`` is the running weighted sum of outer products; the two potentials
    are the sums of reciprocal gaps between the barriers and the eigenvalues
    of A (kept in ``eigenvalues``, descending, with the matching orthonormal
    eigenvectors as the columns of ``eigenvectors``).  ``eigensolve`` says
    how the step that made this state found them: "update" or "full".  The
    barrier positions ``upper`` = theta*(n/eps + step) and ``lower`` =
    -n/eps + step follow from eps, step and the order n, and are not stored.
    The states of one run share one dlaed9 workspace, freed with the run, so
    two steps from states of one run must not run at once in two threads.
    """

    step: int
    A: np.ndarray
    eps: float
    upper_potential: float
    lower_potential: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigensolve: str = "full"
    _workspace: _SecularWorkspace | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._workspace is None:  # a run's first state makes the workspace its later states share
            object.__setattr__(self, "_workspace", _SecularWorkspace(self.order))

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def theta(self) -> float:
        return _theta(self.eps)

    @property
    def upper(self) -> float:
        return _barriers(self, self.step)[0]

    @property
    def lower(self) -> float:
        return _barriers(self, self.step)[1]


def _theta(eps: float) -> float:
    return (1.0 + eps) / (1.0 - eps)


def _barriers(state: BarrierState, step: int) -> tuple[float, float]:
    """(upper, lower) barrier positions after ``step`` updates of an iteration like ``state``'s."""
    n = state.order
    return _theta(state.eps) * (n / state.eps + step), -n / state.eps + step


@dataclass
class SparseWeights:
    """Positive finite weights on the frame rows ``support`` (strictly ascending), aligned with ``weights``."""

    support: np.ndarray
    weights: np.ndarray
    source_size: int
    certificate: Certificate  # the sandwich as sparsify_frame measured it (embed_lp_even: lifted onto [1, 1+eps*p/4])

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=float)
        outside = self.support[(self.support < 0) | (self.support >= self.source_size)]
        if outside.size:
            raise ValueError(f"weight index {outside[0]} outside [0, {self.source_size})")
        positive = (self.weights > 0) & np.isfinite(self.weights)
        if self.weights.shape != self.support.shape or not np.all(positive):
            raise ValueError("weights must be positive, finite and aligned with the support")
        if np.any(np.diff(self.support) <= 0):
            raise ValueError("support indices must be strictly ascending")


def support_bound(n: int, eps: float) -> int:
    """Maximum number of distinct vectors the iteration may select."""
    return math.ceil(n / eps**2)


def initial_barrier_state(n: int, eps: float) -> BarrierState:
    check_eps(eps)
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    return BarrierState(
        step=0,
        A=np.zeros((n, n)),
        eps=eps,
        upper_potential=eps / _theta(eps),
        lower_potential=eps,
        eigenvalues=np.zeros(n),
        eigenvectors=np.eye(n),
    )


def barrier_gaps(state: BarrierState) -> tuple[float, float]:
    """Potential drops freed by advancing both barriers one step.

    Returns (upper_gap, lower_gap): how much the upper potential falls when
    the upper barrier moves up by theta, and how much the lower potential
    rises when the lower barrier moves up by 1, both evaluated on the
    current matrix.  The potentials at the current barriers are the ones
    the state stores.  The spectrum must lie strictly inside the advanced
    barriers, and either gap being nonpositive means the invariants broke
    (BarrierInvariantError in both cases).
    """
    du, dl = _reciprocal_gaps(state, state.eigenvalues, "before")
    upper_gap = state.upper_potential - float(du.sum())
    lower_gap = float(dl.sum()) - state.lower_potential
    if not upper_gap > 0.0:
        raise BarrierInvariantError(f"upper barrier gap must be positive, got {upper_gap:.3e}")
    if not lower_gap > 0.0:
        raise BarrierInvariantError(f"lower barrier gap must be positive, got {lower_gap:.3e}")
    return upper_gap, lower_gap


def _reciprocal_gaps(state: BarrierState, lam: np.ndarray, when: str) -> tuple[np.ndarray, np.ndarray]:
    """du = 1/(u' - lam) and dl = 1/(lam - l') at the barriers u' and l' of step ``state.step + 1``.

    Raises BarrierInvariantError unless the spectrum ``lam`` (descending) lies strictly inside
    (l', u'); ``when`` ("before" or "at") places it relative to that step in the message.
    """
    upper_next, lower_next = _barriers(state, state.step + 1)
    if not (lam[0] < upper_next and lam[-1] > lower_next):
        raise BarrierInvariantError(
            f"eigenvalue window violated {when} step {state.step + 1}: "
            f"spectrum [{lam[-1]:.6g}, {lam[0]:.6g}] not inside "
            f"({lower_next:.6g}, {upper_next:.6g})"
        )
    return 1.0 / (upper_next - lam), 1.0 / (lam - lower_next)


def candidate_scores(
    state: BarrierState,
    frame: Frame,
    upper_gap: float,
    lower_gap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower barrier scores of every frame vector.

    The upper score of vector x is <R x, x> + <R^2 x, x>/upper_gap with
    R the resolvent at the advanced upper barrier; stepping with weight
    1/score keeps the upper potential exactly conserved.  The lower score is
    <S^2 x, x>/lower_gap - <S x, x> with S the resolvent at the advanced
    lower barrier; any step weight up to 1/score keeps the lower potential
    from growing.  Both resolvents are diagonal in the state's eigenbasis U,
    so each score is sum_k c_k (U^T x)_k^2 for a column c of reciprocal
    gaps.  Without an incidence factor, one product of the squared
    eigen-coordinates of all vectors with the four reciprocal-gap columns
    gives every score.  With one, x_e = sqrt(w_e) (B[i] - B[j]) for edge
    e = (i, j), so with V = B U and the n x n matrix M = V diag(c) V^T each
    score is w_e (M[i,i] + M[j,j] - 2 M[i,j]), an effective-resistance
    gather that costs O(n^3 + m) per step instead of O(m n^2).  Edges
    whose gather could lose more than 1e-10 of their upper score to
    cancellation (endpoint rows much longer than their difference) are
    scored from their rows instead.  The spectrum must lie strictly
    inside the advanced barriers (BarrierInvariantError otherwise).

    Requires an isotropy-certified frame; with it, the score sums must
    satisfy sum(upper) <= 1 - eps and sum(lower) >= 1 - eps, which is
    checked here (failure raises BarrierInvariantError).
    """
    if not frame.isotropy_certified:
        raise ValueError("candidate_scores requires an isotropy-certified frame")
    du, dl = _reciprocal_gaps(state, state.eigenvalues, "before")
    if frame.incidence is None:
        upper_scores, lower_scores = _row_scores(frame.vectors, state, du, dl, upper_gap, lower_gap)
    else:
        upper_scores, lower_scores = _edge_scores(frame, state, du, dl, upper_gap, lower_gap)

    _check_score_sums(state.eps, float(upper_scores.sum()), float(lower_scores.sum()))
    return upper_scores, lower_scores


def _row_scores(rows, state, du, dl, upper_gap, lower_gap):
    y = rows @ state.eigenvectors
    lin_up, quad_up, lin_lo, quad_lo = ((y * y) @ np.column_stack([du, du * du, dl, dl * dl])).T
    return lin_up + quad_up / upper_gap, quad_lo / lower_gap - lin_lo


def _edge_scores(frame, state, du, dl, upper_gap, lower_gap):
    inc = frame.incidence
    v = inc.basis @ state.eigenvectors
    c_up = du + du * du / upper_gap
    c_lo = dl * dl / lower_gap - dl
    w = inc.weights

    def gather(c):
        got = ((v * c) @ v.T).take(inc._gather)  # M[h, h], M[t, t] and M[h, t] of every edge
        scores = got[0]
        scores += got[1]
        scores -= 2.0 * got[2]
        scores *= w
        return scores

    upper_scores, lower_scores = gather(c_up), gather(c_lo)
    # Rounding in the gather is at most about r * eps_mach * w_e times the
    # endpoint rows' |c|-weighted squared lengths; rows where that could
    # reach _GATHER_RTOL of the upper score are scored from their rows.
    # When the bound with the largest weight and reach clears the smallest
    # score twice over, no edge can reach it and none is tested.
    reach = (v * v) @ (c_up + np.abs(c_lo))
    rounding = v.shape[1] * _MACHINE_EPS
    if 2.0 * rounding * inc._max_weight * reach.max() <= 0.5 * _GATHER_RTOL * upper_scores.min():
        return upper_scores, lower_scores
    error = rounding * w * (reach.take(inc.heads) + reach.take(inc.tails))
    loose = np.flatnonzero(~(error <= _GATHER_RTOL * upper_scores))
    if loose.size:
        upper_scores[loose], lower_scores[loose] = _row_scores(
            frame.rows(loose), state, du, dl, upper_gap, lower_gap
        )
    return upper_scores, lower_scores


def _check_score_sums(eps: float, upper_sum: float, lower_sum: float) -> None:
    if upper_sum > 1.0 - eps + _SCORE_SUM_TOL:
        raise BarrierInvariantError(
            f"upper score sum {upper_sum:.12g} exceeds 1 - eps = {1.0 - eps:.12g}"
        )
    if lower_sum < 1.0 - eps - _SCORE_SUM_TOL:
        raise BarrierInvariantError(
            f"lower score sum {lower_sum:.12g} falls below 1 - eps = {1.0 - eps:.12g}"
        )
    if lower_sum < upper_sum - _FEASIBILITY_SLACK:
        raise BarrierInvariantError(
            f"lower score sum {lower_sum:.12g} below upper score sum {upper_sum:.12g}; "
            "the averaging guarantee broke down"
        )


def select_and_step(
    state: BarrierState,
    frame: Frame,
    upper_scores: np.ndarray,
    lower_scores: np.ndarray,
) -> tuple[BarrierState, int, float]:
    """Pick the candidate with the largest score slack and add it to A.

    The slack of a candidate is lower_score - upper_score.  Ties are broken
    deterministically: the choice is the lowest index whose slack is at
    least max(slack) - 1e-12 * max(1, max|lower_scores|, max|upper_scores|),
    so rounding noise between exactly tied candidates never decides.
    Returns the advanced state, the chosen index, and the step weight
    t = 1/upper_score.  The new eigenpairs are a rank-one update of the
    state's, or the full validated eigh's where the update fails eigh's
    reconstruction and orthonormality checks against the accumulated A.
    The new state's invariants (eigenvalue window, exact upper-potential
    conservation, lower-potential monotonicity) are verified eagerly; a
    violation raises BarrierInvariantError.
    """
    slack = lower_scores - upper_scores
    magnitude = max(1.0, float(np.abs(lower_scores).max()), float(np.abs(upper_scores).max()))
    tol = _TIE_RTOL * magnitude
    chosen = int(np.argmax(slack >= slack.max() - tol))
    if slack[chosen] < -_FEASIBILITY_SLACK:
        raise BarrierInvariantError(
            f"no feasible candidate: best slack {slack[chosen]:.3e} "
            f"(index {chosen}); the averaging guarantee broke down"
        )
    t = 1.0 / float(upper_scores[chosen])
    xj = frame.rows(chosen)
    new_a = state.A + t * (xj[:, None] * xj)  # exactly symmetric, as the full eigh requires
    decomp = _rank_one_update(state.eigenvalues, state.eigenvectors, xj, t, state._workspace)
    if decomp is not None and _residual_failure(new_a, decomp) is None:
        eigensolve = "update"
    else:
        decomp, eigensolve = eigh(new_a), "full"
    lam = decomp.values
    du, dl = _reciprocal_gaps(state, lam, "at")
    upper_potential, lower_potential = float(du.sum()), float(dl.sum())
    target = state.eps / state.theta
    if abs(upper_potential - target) > _UPPER_CONSERVATION_RTOL * target:
        raise BarrierInvariantError(
            f"upper potential {upper_potential:.15g} drifted from {target:.15g} "
            f"at step {state.step + 1}"
        )
    if lower_potential > state.lower_potential + _LOWER_MONOTONE_TOL:
        raise BarrierInvariantError(
            f"lower potential rose from {state.lower_potential:.15g} to "
            f"{lower_potential:.15g} at step {state.step + 1}"
        )
    if lower_potential > state.eps + _LOWER_CAP_TOL:
        raise BarrierInvariantError(
            f"lower potential {lower_potential:.15g} exceeds eps = {state.eps}"
        )

    new_state = BarrierState(
        step=state.step + 1,
        A=new_a,
        eps=state.eps,
        upper_potential=upper_potential,
        lower_potential=lower_potential,
        eigenvalues=lam,
        eigenvectors=decomp.vectors,
        eigensolve=eigensolve,
        _workspace=state._workspace,
    )
    return new_state, chosen, t


def _run_barrier(frame: Frame, eps: float, steps: int, history: list | None):
    state = initial_barrier_state(frame.ambient_dim, eps)
    totals: dict[int, float] = {}
    for _ in range(steps):
        upper_gap, lower_gap = barrier_gaps(state)
        upper_scores, lower_scores = candidate_scores(state, frame, upper_gap, lower_gap)
        state, chosen, t = select_and_step(state, frame, upper_scores, lower_scores)
        totals[chosen] = totals.get(chosen, 0.0) + t
        if history is not None:
            history.append(
                {
                    "step": state.step,
                    "dimension": state.order,
                    "upper_barrier": state.upper,
                    "lower_barrier": state.lower,
                    "upper_gap": upper_gap,
                    "lower_gap": lower_gap,
                    "upper_score_sum": float(upper_scores.sum()),
                    "lower_score_sum": float(lower_scores.sum()),
                    "chosen": chosen,
                    "weight": t,
                    "upper_potential": state.upper_potential,
                    "lower_potential": state.lower_potential,
                    "spectrum_min": float(state.eigenvalues[-1]),
                    "spectrum_max": float(state.eigenvalues[0]),
                    "eigensolve": state.eigensolve,
                }
            )
    return state, totals


@_one_blas_thread
def sparsify_frame(
    frame: Frame,
    eps: float,
    *,
    history: list | None = None,
) -> SparseWeights:
    """Select and weight at most ceil(n/eps^2) frame vectors.

    The returned weights satisfy, for every y in the span of the frame,

        (1-eps)^2 * sum_i <x_i, y>^2  <=  sum_i s_i <x_i, y>^2
                                      <=  (1+eps)^2 * sum_i <x_i, y>^2,

    which is certified before returning by eigendecomposing the weighted
    sum (CertificationError on failure -- this should never trigger); the
    result carries that check as ``certificate``.
    Frames that are not isotropy-certified are whitened onto their span
    first (``isotropic_reduce``); the guarantee then holds on the span,
    which for a dense frame keeps every direction whose singular value
    exceeds n * eps_mach times the largest, and for an edge frame is the
    Laplacian's whole range (whitening raises CertificationError when it
    cannot resolve it); ``certificate.range_dim`` is its dimension.  As in
    the barrier result, the smallest eigenvalue of the weighted sum is (1-eps)^2.

    When the frame has at most ceil(r/eps^2) nonzero vectors (r the
    whitened dimension), every nonzero vector gets weight exactly
    (1-eps)^2, which meets the sandwich at its lower end, and no barrier
    step runs.  The same certificate decides: a frame certified isotropic
    only to within ISOTROPY_TOL can have a Gram spectrum too far from I for
    the uniform weights to pass it, and then the barrier loop runs instead.

    ``history``, if a list, receives one record per barrier iteration with
    the step diagnostics; it stays empty when no barrier step runs.
    """
    check_eps(eps)
    work = frame
    if not frame.isotropy_certified:
        work = isotropic_reduce(frame)
    steps = support_bound(work.ambient_dim, eps)
    nonzero = work.nonzero()
    if nonzero.size <= steps:
        uniform = np.full(nonzero.size, (1.0 - eps) ** 2)
        try:
            return _certified(work, nonzero, uniform, frame.size, eps)
        except CertificationError:
            pass  # Gram only near I: the loop's final rescaling absorbs the gap
    state, totals = _run_barrier(work, eps, steps, history)

    lam_min = float(state.eigenvalues[-1])
    if not lam_min > 0.0:
        raise BarrierInvariantError(
            f"final weighted sum is not positive definite on the span (lambda_min={lam_min:.3e})"
        )
    gamma = (1.0 - eps) ** 2 / lam_min
    support = np.array(sorted(totals))
    weights = gamma * np.array([totals[i] for i in support])
    return _certified(work, support, weights, frame.size, eps)


def _certified(work: Frame, support: np.ndarray, s: np.ndarray, size: int, eps: float) -> SparseWeights:
    rows = work.rows(support)
    lam = eigh(symmetrize((rows * s[:, None]).T @ rows)).values
    low, high = (1.0 - eps) ** 2, (1.0 + eps) ** 2
    cert = certify_spectrum(lam, low, high, tol=_SANDWICH_TOL, what="weighted sum")
    return SparseWeights(support, s, size, cert)


def lift_to_unit(sparse: SparseWeights, eps: float, high: float, row_weights: np.ndarray, *, what: str):
    """Weights s_i w_i / (1-eps)^2 on ``sparse``'s support, w the ``row_weights`` (squared row scales).

    The one lift of every sandwich layer (graph, L1, John, even-p): it moves the lower constant to exactly
    1 and certifies ``sparse``'s extremes times the lift on [1, high], at the sandwich tolerance times the
    lift, keeping range_dim.  Returns (weights, certificate).  A weight float64 cannot hold raises ValueError.
    """
    lift, measured = 1.0 / (1.0 - eps) ** 2, sparse.certificate
    extremes = [measured.measured_min * lift, measured.measured_max * lift]
    lifted = certify_spectrum(extremes, 1.0, high, tol=_SANDWICH_TOL * lift, what=what)
    with np.errstate(over="ignore"):
        weights = sparse.weights * lift * row_weights[sparse.support]
    if not np.all(np.isfinite(weights)):
        raise ValueError(
            f"{what} sparsifier's weights overflow float64 at the input's scale "
            f"(largest input weight {np.max(row_weights):.3g} times up to {np.max(sparse.weights) * lift:.3g})"
        )
    return weights, replace(lifted, range_dim=measured.range_dim)
