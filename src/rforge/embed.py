"""Geometric constructions on top of the frame sparsifier.

Three builders live here:

- ``approximate_john``: thin a John decomposition of the identity (unit
  contact points with weights summing, as outer products, to I) down to
  O(n/eps0^2) points while keeping both identity conditions exact.
- ``embed_l1``: embed an n-point subset of l1^d into l1^k, k = O(n/eps0^2),
  with multiplicative distance error in [1, 1+eps], through the cut-cone
  representation of the L1 metric.
- ``embed_lp_even``: for even p >= 4, select coordinates so that the p-norm
  of every vector in a given subspace is preserved within 1+eps, through a
  monomial lift of degree p/2.

Each output carries a numerically certified guarantee; failed certificates
raise instead of returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .bss import SparseWeights, check_eps, lift_to_unit, sparsify_frame
from .errors import CertificationError
from .linalg import Certificate, Frame, _one_blas_thread, certify_spectrum, eigh, isotropic_reduce, symmetrize

_JOHN_IDENTITY_TOL = 1e-8
_JOHN_CENTER_TOL = 1e-8
_JOHN_UNIT_TOL = 1e-10


def barrier_eps_for_ratio(ratio: float) -> float:
    """Accuracy eps0 whose sandwich ((1+eps0)/(1-eps0))^2 equals ``ratio``."""
    if not ratio > 1.0:
        raise ValueError(f"target ratio must exceed 1, got {ratio}")
    root = math.sqrt(ratio)
    return (root - 1.0) / (root + 1.0)


@dataclass
class JohnDecomposition:
    """Unit vectors and positive weights with Sum c_i x_i (x) x_i = I and Sum c_i x_i = 0."""

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise ValueError(f"points must be (m, {self.dim}), got {self.points.shape}")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must align with points")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("weights must be positive and finite")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def identity_residual(self) -> float:
        total = symmetrize((self.points * self.weights[:, None]).T @ self.points)
        return float(np.max(np.abs(total - np.eye(self.dim))))

    def center_of_mass(self) -> np.ndarray:
        # exact summation: the true value is 0 for mirror-symmetric outputs
        weighted = self.points * self.weights[:, None]
        return np.array([math.fsum(weighted[:, c]) for c in range(self.dim)])

    def validate(self) -> None:
        residual = self.identity_residual()
        if residual > _JOHN_IDENTITY_TOL:
            raise ValueError(f"identity residual {residual:.3e} exceeds {_JOHN_IDENTITY_TOL:.1e}")
        center = float(np.max(np.abs(self.center_of_mass())))
        if center > _JOHN_CENTER_TOL:
            raise ValueError(f"center of mass {center:.3e} exceeds {_JOHN_CENTER_TOL:.1e}")
        norms = np.linalg.norm(self.points, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > _JOHN_UNIT_TOL:
            raise ValueError(f"point norm deviates from 1 by {worst:.3e}")


@_one_blas_thread
def approximate_john(jd: JohnDecomposition, eps: float) -> JohnDecomposition:
    """Thin a John decomposition to O(n/eps0^2) mirror-symmetric points.

    Reweights a subset J of the inputs so the weighted outer products sum
    to a matrix within eps/4 of the identity in operator norm, then maps
    the surviving points through the inverse square root and mirrors them.
    The output satisfies both decomposition identities: the identity
    residual is at machine precision and the center of mass is exactly
    zero by symmetry.  An input of at most ceil(n/eps0^2) points is kept
    whole: the frame sparsifier gives every point the same weight, which
    the lift turns into 1, so the reweighted sum is I up to rounding.
    The eps/4 gap is certified on the spectrum of the same eigendecomposition
    that gives the inverse square root.
    """
    check_eps(eps)
    jd.validate()
    eps0 = barrier_eps_for_ratio(1.0 + eps / 4.0)
    scaled = jd.points * np.sqrt(jd.weights)[:, None]
    frame = Frame(scaled, isotropy_certified=True)
    sparse = sparsify_frame(frame, eps0)
    weights, _ = lift_to_unit(sparse, eps0, 1.0 + eps / 4.0, jd.weights, what="John reweighting")
    pts = jd.points[sparse.support]

    total = symmetrize((pts * weights[:, None]).T @ pts)
    decomp = eigh(total)
    certify_spectrum(decomp.values, 1.0 - eps / 4.0, 1.0 + eps / 4.0, tol=1e-9, what="reweighted sum")
    inv_sqrt = (decomp.vectors / np.sqrt(decomp.values)) @ decomp.vectors.T
    mapped = pts @ inv_sqrt
    norms = np.linalg.norm(mapped, axis=1)
    directions = mapped / norms[:, None]
    half_weights = 0.5 * weights * norms**2

    points_out = np.vstack([directions, -directions])
    weights_out = np.concatenate([half_weights, half_weights])
    out = JohnDecomposition(jd.dim, points_out, weights_out)
    out.validate()
    return out


def _byte_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value; these compare as byte strings."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


@dataclass
class CutDecomposition:
    """L1 metric on n points written as a weighted sum of cut pseudometrics.

    Row k of the boolean ``indicators`` (cuts x n), a proper nonempty subset, has weight
    ``weights[k]`` > 0 and no two rows are equal; d(i, j) sums the cuts separating i and j.
    """

    indicators: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indicators = np.asarray(self.indicators, dtype=bool)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.indicators.ndim != 2 or self.weights.shape != (self.size,):
            raise ValueError("indicators must be (cuts, n) with one weight per cut")
        if (self.indicators.all(axis=1) | ~self.indicators.any(axis=1)).any():
            raise ValueError("cuts must be proper nonempty subsets")
        if not ((self.weights > 0) & (self.weights < np.inf)).all():
            raise ValueError("cut weights must be positive and finite")
        if np.unique(_byte_rows(np.packbits(self.indicators, axis=1))).size < self.size:
            raise ValueError("cuts must be distinct")

    @property
    def n(self) -> int:
        return self.indicators.shape[1]

    @property
    def size(self) -> int:
        return self.indicators.shape[0]


def cut_decompose(points: np.ndarray) -> CutDecomposition:
    """Exact cut-cone representation of the L1 metric of a finite point set.

    Thresholding each coordinate between consecutive distinct values yields
    cuts whose weighted sum telescopes back to every pairwise L1 distance.
    Equal cuts merge, adding their gaps in threshold order (coordinates
    first); cuts are ordered by sorted member list, a proper prefix first.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError(f"need at least two points in a 2-D array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    n = pts.shape[0]
    srt = np.sort(pts, axis=0)
    gaps = np.diff(srt, axis=0).T  # gaps[c, k] = srt[k+1, c] - srt[k, c], > 0 at a threshold
    cols, ks = np.nonzero(gaps > 0)
    rows = pts.T[cols] > srt[ks, cols][:, None]
    # Key byte i: 1 for a member, 2 for a non-member before the last member,
    # 0 after it.  Equal keys are equal cuts, and byte order is sorted-list order.
    last = n - 1 - np.argmax(rows[:, ::-1], axis=1)
    keys = (np.arange(n) <= last[:, None]).view(np.uint8) * np.uint8(2) - rows.view(np.uint8)
    _, first, inverse = np.unique(_byte_rows(keys), return_index=True, return_inverse=True)
    weights = np.bincount(inverse, weights=gaps[cols, ks])  # sums in order
    if not np.isfinite(weights).all():
        raise ValueError("cut weights must be positive and finite")
    out = CutDecomposition.__new__(CutDecomposition)  # valid by construction: skip the caller checks
    out.indicators, out.weights = rows[first], weights
    return out


@dataclass
class EmbeddedPoints:
    """n points in R^k (rows) for the l1 norm; ``certificate`` bounds every ||z_i - z_j||_1 / d(i, j)."""

    points: np.ndarray
    certificate: Certificate

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {self.points.shape}")

    @property
    def k(self) -> int:
        return self.points.shape[1]


@_one_blas_thread
def embed_l1(points: np.ndarray, eps: float) -> EmbeddedPoints:
    """Low-dimensional L1 embedding of a finite point set.

    The output lives in l1^k with k at most ceil(n / eps0^2) for
    eps0 = (sqrt(1+eps) - 1)/(sqrt(1+eps) + 1), and every pairwise distance
    satisfies  d(i,j) <= ||z_i - z_j||_1 <= (1+eps) d(i,j).  When the cut
    decomposition has at most ceil(r/eps0^2) cuts (r the rank of its
    frame), every cut is kept with its own weight and the embedding is an
    isometry: k is the number of cuts and every distortion is 1.  Points
    must be finite.

    The result's ``certificate`` is the frame sparsifier's, lifted onto
    [1, 1+eps]: row E of the cut frame is sqrt(w_E) 1_E, so on y = e_i - e_j
    the frame's form is d(i, j) and the reweighted one ||z_i - z_j||_1, and
    the certified extremes bound every pair's distortion with no pair measured.
    Coincident points get an edgeless graph's certificate; cuts too light to
    whiten raise CertificationError.
    """
    check_eps(eps)
    cuts = cut_decompose(points)
    if cuts.size == 0:
        # all points coincide; the zero embedding is exact
        return EmbeddedPoints(np.zeros((cuts.n, 1)), Certificate(1.0, 1.0 + eps, 1.0, 1.0, 0))
    eps0 = barrier_eps_for_ratio(1.0 + eps)
    sparse = sparsify_frame(_whitened(cuts), eps0)
    scaled, cert = lift_to_unit(sparse, eps0, 1.0 + eps, cuts.weights, what="L1 distortion")
    coords = cuts.indicators[sparse.support].T * scaled  # point i's row: s_E w_E 1_E(i)
    return EmbeddedPoints(coords, cert)


def _whitened(cuts: CutDecomposition) -> Frame:
    """The whitened cut frame; CertificationError unless it spans the 0/1 indicators' row space.

    Whitening drops singular values below n * eps_mach times the largest, which cuts the only
    directions that separate two points when the cut weights span more than about
    (n * eps_mach)^-2.  The indicators' rank does not depend on the weights; it is computed only
    when the frame falls short of its bound, the number of distinct nonzero point columns.
    """
    frame = isotropic_reduce(Frame(cuts.indicators * np.sqrt(cuts.weights)[:, None]))
    r, columns = frame.ambient_dim, np.ascontiguousarray(cuts.indicators.T)
    bound = np.unique(_byte_rows(columns)).size - int(not columns.any(axis=1).all())  # a point in no cut
    if r < bound and r < (rank := np.linalg.matrix_rank(columns.astype(float))):
        raise CertificationError(
            f"whitening resolved {r} of the cut frame's {rank} span directions above the float64 "
            "rank floor; the cut weights span too wide a range to certify"
        )
    return frame


@_one_blas_thread
def embed_lp_even(basis: np.ndarray, p: int, eps: float) -> SparseWeights:
    """Coordinate selection preserving p-norms on a subspace, p even >= 4.

    ``basis`` holds n linearly independent vectors (rows) spanning a
    subspace X of R^m.  Every coordinatewise product of p/2 basis vectors
    is collected into a lifted subspace Y of dimension d <= C(n+p/2-1, p/2);
    selecting coordinates that preserve squared sums on Y within a factor
    1 + eps*p/4 preserves p-norms on X within 1 + eps.  Returns the
    selected coordinates (``support``, out of m) and their ``weights`` s;
    applying x -> (s_i^(1/p) * x_i) for selected i realizes the embedding.

    The basis is first scaled by the power of two that puts its largest
    entry in [0.5, 1), so the monomials neither overflow nor underflow;
    X and Y keep their spans.  The monomial rows go to ``sparsify_frame``,
    which whitens them onto Y with ``isotropic_reduce``'s SVD.  The
    ``certificate`` is its sandwich lifted onto [1, 1 + eps*p/4]; as x^(p/2)
    lies in Y and ||x||_p^p = ||x^(p/2)||_2^2, the p-th roots of its extremes
    bound ||x||_{p,s} / ||x||_p for every x in X, not just sampled ones.
    """
    if p % 2 != 0 or p < 4:
        raise ValueError(f"exponent must be an even integer >= 4, got {p}")
    check_eps(eps)
    u = np.asarray(basis, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"basis must be a 2-D array, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("basis must be finite")
    n, m = u.shape
    u = np.ldexp(u, -np.frexp(np.max(np.abs(u)))[1])  # exact: max entry now in [0.5, 1)
    if np.linalg.matrix_rank(u) < n:
        raise ValueError("basis vectors are linearly dependent")

    half = p // 2
    monomials = np.stack(
        [np.prod(u[list(combo), :], axis=0) for combo in combinations_with_replacement(range(n), half)],
        axis=1,
    )  # (m, number of monomials)
    eps0 = barrier_eps_for_ratio(1.0 + eps * p / 4.0)
    sparse = sparsify_frame(Frame(monomials), eps0)
    weights, cert = lift_to_unit(sparse, eps0, 1.0 + eps * p / 4.0, np.ones(m), what="lifted-space")
    return SparseWeights(sparse.support, weights, m, cert)


def apply_lp_embedding(x: np.ndarray, selected, weights, p: int) -> np.ndarray:
    """Realize the even-p coordinate embedding on a vector, or on each row of a batch."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    return w ** (1.0 / p) * x[..., list(selected)]
