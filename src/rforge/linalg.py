"""Dense symmetric linear algebra kernel.

Everything downstream (barrier iterations, graph certificates, embeddings)
is built on the three operations here: validated descending-order
eigendecomposition, whitening of a vector frame to an exact decomposition
of the identity, and the spectral certificate check, which compares a
measured spectrum with a claimed interval and returns the ``Certificate``
every builder carries.  Resolvents are never formed or solved against;
callers apply them in the eigenbasis that eigh returns.

An edge frame stores no rows, only its ``Incidence`` factor (endpoints,
weights and a per-vertex basis), so callers work with per-vertex
quantities and build a row only where they read it.

Matrices are plain float64 ``numpy`` arrays and are required to be stored
exactly symmetric (``M[i, j] == M[j, i]`` bitwise).  All functions are pure;
nothing here mutates its arguments.  The one process-wide setting touched
is numpy's OpenBLAS thread count, which ``_one_blas_thread`` sets and restores.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CertificationError, EigenConvergenceError, ZeroFrameError

# Max-entry tolerance under which a frame counts as a decomposition of the identity.
ISOTROPY_TOL = 1e-8
_MACHINE_EPS = np.finfo(float).eps

_RECONSTRUCT_TOL = 1e-10
_ORTHONORMAL_TOL = 1e-10
# Vertices per panel of edge whitening's blocked elimination and back substitution.
_PANEL = 32
# Frame rows per chunk of ``Frame.gram``.
_GRAM_CHUNK = 256


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return 0.5*(M + M^T), which is exactly symmetric in floating point."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def require_symmetric(m: np.ndarray, context: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{context} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{context} must have order >= 1")
    if not np.array_equal(m, m.T):
        residual = float(np.max(np.abs(m - m.T)))
        raise ValueError(
            f"{context} must be stored exactly symmetric "
            f"(max asymmetry {residual:.3e}); use symmetrize() first"
        )
    return m


@dataclass
class Incidence:
    """Edge factor of a frame: row e is sqrt(w_e) * (basis[heads[e]] - basis[tails[e]]).

    ``basis`` has one row per vertex and one column per frame dimension;
    ``heads`` and ``tails`` index its rows and ``weights`` holds w >= 0.  An
    edge frame starts with the identity basis, which whitening replaces with
    ``replace``, so the fields are never changed in place.  Construction also
    keeps, for the barrier step's gathers, the flat indices of M[h, h],
    M[t, t] and M[h, t] in any n x n matrix M over the vertices, and the
    largest weight.
    """

    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    _gather: np.ndarray = field(init=False, repr=False, compare=False)
    _max_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis, self.weights = (np.asarray(a, dtype=float) for a in (self.basis, self.weights))
        self.heads, self.tails = (np.asarray(a, dtype=np.intp) for a in (self.heads, self.tails))
        if self.basis.ndim != 2 or not np.all(np.isfinite(self.basis)):
            raise ValueError("incidence basis must be a finite 2-D array")
        m = self.weights.shape
        if self.weights.ndim != 1 or self.heads.shape != m or self.tails.shape != m:
            raise ValueError("incidence heads, tails and weights must be 1-D of equal length")
        if not np.all((self.weights >= 0.0) & np.isfinite(self.weights)):
            raise ValueError("incidence weights must be nonnegative and finite")
        ends = np.concatenate([self.heads, self.tails])
        n = self.basis.shape[0]
        if ends.size and not (ends.min() >= 0 and ends.max() < n):
            raise ValueError(f"incidence endpoints must lie in [0, {n})")
        self._gather = np.stack([self.heads * (n + 1), self.tails * (n + 1), self.heads * n + self.tails])
        self._max_weight = float(self.weights.max(initial=0.0))


@dataclass
class Frame:
    """An ordered list of m vectors in R^n.

    A dense frame stores them as the rows of ``vectors``.  An edge frame
    stores none: its ``incidence`` factor defines every row, and ``rows``
    builds only the rows a caller reads.  A frame has exactly one of the two.

    ``isotropy_certified`` records that the sum of outer products of the rows
    equals the identity to within ``ISOTROPY_TOL`` in max-entry norm; the flag
    is re-verified at construction time.
    """

    vectors: np.ndarray | None = None
    isotropy_certified: bool = False
    incidence: Incidence | None = None

    def __post_init__(self):
        if self.incidence is None:
            v = np.asarray(self.vectors, dtype=float)
            if v.ndim != 2:
                raise ValueError(f"frame vectors must be a 2-D array, got shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError("frame vectors must be finite")
            self.vectors = v
        elif self.vectors is not None:
            raise ValueError("a frame stores its vectors or an incidence factor, not both")
        if self.size < 1 or self.ambient_dim < 1:
            shape = (self.size, self.ambient_dim)
            raise ValueError(f"frame needs at least one vector and one dimension, got {shape}")
        if self.isotropy_certified:
            residual = float(np.max(np.abs(self.gram() - np.eye(self.ambient_dim))))
            if residual > ISOTROPY_TOL:
                raise ValueError(
                    f"frame claimed isotropic but identity residual is {residual:.3e} "
                    f"(tolerance {ISOTROPY_TOL:.1e})"
                )

    @property
    def size(self) -> int:
        return self.incidence.weights.size if self.vectors is None else self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.incidence.basis.shape[1] if self.vectors is None else self.vectors.shape[1]

    def rows(self, idx=slice(None)) -> np.ndarray:
        """Frame vectors ``idx`` (all by default); an edge frame builds only these."""
        if self.incidence is None:
            return self.vectors[idx]
        inc = self.incidence
        return (inc.basis[inc.heads[idx]] - inc.basis[inc.tails[idx]]) * np.sqrt(inc.weights[idx])[..., None]

    def nonzero(self) -> np.ndarray:
        """Ascending indices of the nonzero vectors; an edge's, by weight and endpoints (basis rows are distinct)."""
        if self.incidence is None:
            return np.flatnonzero(np.any(self.vectors != 0.0, axis=1))
        return np.flatnonzero((self.incidence.heads != self.incidence.tails) & (self.incidence.weights > 0.0))

    def gram(self) -> np.ndarray:
        """Sum of outer products of the frame vectors, exactly symmetric.

        Rows are built and summed ``_GRAM_CHUNK`` at a time, so an edge frame
        never holds all of its rows at once.  An edge row is differenced
        before it is weighted, so each term keeps its own relative error,
        where multiplying by the Laplacian loses about eps_mach * lambda_1 / lambda_r.
        """
        total = np.zeros((self.ambient_dim, self.ambient_dim))
        for s in range(0, self.size, _GRAM_CHUNK):
            rows = self.rows(slice(s, s + _GRAM_CHUNK))
            total += rows.T @ rows
        return symmetrize(total)


@dataclass
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


def _eigh_failure(m: np.ndarray, detail: str) -> EigenConvergenceError:
    """The error for a failed eigendecomposition, naming m's order and off-diagonal residual."""
    off = float(np.max(np.abs(m - np.diag(np.diag(m))))) if m.shape[0] > 1 else 0.0
    return EigenConvergenceError(m.shape[0], off, detail)


def _residual_failure(m: np.ndarray, decomp: EigenDecomposition) -> str | None:
    """Why ``decomp`` fails eigh's validation against ``m``, or None when it passes.

    The spectral reconstruction must match ``m`` to 1e-10 relative
    max-entry norm and the eigenvectors must be orthonormal to 1e-10; a NaN
    residual fails.
    """
    scale = 1.0 + float(np.abs(m).max())
    residual = decomp.reconstruct()
    residual -= m
    recon_err = float(np.abs(residual, out=residual).max())
    if not recon_err <= _RECONSTRUCT_TOL * scale:
        return f"reconstruction residual {recon_err:.3e}"
    gram = decomp.vectors.T @ decomp.vectors
    gram.ravel()[:: m.shape[0] + 1] -= 1.0
    ortho_err = float(np.abs(gram, out=gram).max())
    if not ortho_err <= _ORTHONORMAL_TOL:
        return f"orthonormality residual {ortho_err:.3e}"
    return None


def eigh(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Delegates to the LAPACK symmetric driver (tridiagonalization plus
    implicitly shifted iteration with its fixed internal sweep cap); hitting
    that cap raises EigenConvergenceError naming the matrix order and the
    off-diagonal residual.  The output is validated: the spectral
    reconstruction must match the input to 1e-10 relative max-entry norm and
    the eigenvector set must be orthonormal to 1e-10, otherwise
    EigenConvergenceError is raised as well.
    """
    m = require_symmetric(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise _eigh_failure(m, str(exc)) from exc
    decomp = EigenDecomposition(values[::-1].copy(), vectors[:, ::-1].copy())
    failure = _residual_failure(m, decomp)
    if failure is not None:
        raise _eigh_failure(m, failure)
    return decomp


@functools.cache
def _blas_thread_controls():
    """(get, set) of numpy's bundled OpenBLAS thread count; None where numpy exports neither (numpy 1.x, Windows)."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs at now; None when it cannot be read."""
    controls = _blas_thread_controls()
    return None if controls is None else controls[0]()


def _one_blas_thread(fn):
    """Run ``fn`` with numpy's OpenBLAS on one thread and give the caller's count back when it returns or raises.

    The engine makes thousands of small eigensolves and products: a second
    thread changes their summation order, and so the last bits of results,
    and concurrent processes collapse when their threads outnumber the cores.
    The count is process-global.  Nothing is done when it is already 1 (a
    nested call) or cannot be read.
    """

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        caller = _blas_threads()
        if caller in (None, 1):
            return fn(*args, **kwargs)
        set_threads = _blas_thread_controls()[1]
        set_threads(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_threads(caller)

    return pinned


@functools.cache
def _dlaed9():
    """LAPACK's dlaed9 in numpy's bundled ILP64 OpenBLAS; None where numpy exports none (numpy 1.x, Windows)."""
    try:
        solve = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dlaed9_64_
    except (AttributeError, OSError):
        return None
    solve.argtypes, solve.restype = [ctypes.c_void_p] * 13, None
    return solve


class _SecularWorkspace:
    """dlaed9's buffer, int64 scalars and argument tuple, for every order k <= n.

    The float64 buffer holds S and dlaed9's workspace Q (n x n each, leading dimension n), then the
    roots, poles and z (n each) and rho; the int64 array holds K (also KSTOP), N (also LDQ and LDS),
    KSTART and INFO.  N stays n and only K changes between calls (dlaed9 takes any K <= N), so the
    addresses in ``args`` hold for every call.
    """

    def __init__(self, n: int):
        nn = n * n
        self.order, self.buf, self.ints = n, np.empty(2 * nn + 3 * n + 1), np.array([n, n, 1, 0], dtype=np.int64)
        size, order, first, info = (self.ints.ctypes.data + 8 * i for i in range(4))
        s_at, work_at, roots_at, poles_at, w_at, rho_at = (
            self.buf.ctypes.data + 8 * offset for offset in (0, nn, 2 * nn, 2 * nn + n, 2 * nn + 2 * n, 2 * nn + 3 * n)
        )
        self.args = (size, first, size, order, roots_at, work_at, order, rho_at, poles_at, w_at, s_at, order, info)


def _secular_roots(
    d: np.ndarray, z: np.ndarray, t: float, workspace: _SecularWorkspace
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues (descending) and unit eigenvectors (columns) of diag(d) + t z z^T, d descending and distinct.

    dlaed9 takes the poles ascending and z of unit norm; None when it is missing or fails.  A call
    runs in ``workspace``, of order at least d.size, which a barrier run keeps for all its steps; the
    returned vectors are a view of it, valid until its next call.
    """
    solve = _dlaed9()
    if solve is None:
        return None
    k, norm = d.size, math.sqrt(float(z @ z))
    n, buf, ints = workspace.order, workspace.buf, workspace.ints
    ints[0] = k
    s = buf[: n * n].reshape(n, n)[:k, :k]
    roots, poles, w = buf[2 * n * n : -1].reshape(3, n)[:, :k]
    poles[:] = d[::-1]  # ascending, as dlaed9 wants them
    np.divide(z[::-1], norm, out=w)
    buf[-1] = t * norm * norm
    solve(*workspace.args)
    if ints[3] != 0:
        return None
    return roots[::-1].copy(), s[::-1, ::-1].T  # s's row j is root j's vector


def _rank_one_update(
    values: np.ndarray, vectors: np.ndarray, x: np.ndarray, t: float, workspace: _SecularWorkspace
) -> EigenDecomposition | None:
    """Eigenpairs of A + t x x^T, t > 0, from A = U diag(d) U^T; None when the roots fail.

    ``values`` (d, descending) and ``vectors`` (U) are A's eigenpairs.  In U
    the update is diag(d) + t z z^T with z = U^T x, and each stage below
    keeps the result exact for a problem near it:

    - Deflation.  With tol = 8 eps_mach max(|d|_max, t |z|^2), each run of
      d whose neighbours lie within tol (A = 0 and the null space of a
      rank-deficient A are such runs) gets a Householder reflection that
      moves the run's part of z onto its first member; this moves A by at
      most the run's spread.  Components with t |z| |z_j| <= tol are then
      dropped, as in LAPACK's dlaed2.  Dropped pairs carry over unchanged.
    - Roots and vectors.  The k remaining d are distinct, and LAPACK's
      dlaed9 solves diag(d) + t z z^T on them (``_secular_roots``, in
      ``workspace``).  Its dlaed4 finds each root as an offset from the
      nearer pole, so a root next to a pole keeps its relative accuracy
      (R.-C. Li, LAPACK Working Note 89); the vectors Q_ji = zhat_j /
      (d_j - mu_i), from the zhat for
      which d and mu are exact, are orthogonal to working precision (Gu and
      Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1994).  The new eigenvectors
      are U Q.  The roots must interlace d, mu_1 >= d_1 >= ... >= mu_k >= d_k
      (a root within half an ulp of its pole rounds onto it).

    Without numpy's dlaed9 every update returns None, and the caller runs
    the full eigh.  The result is not validated here.
    """
    if not (t > 0.0 and np.isfinite(t)):
        return None
    d, u = values, vectors
    z = u.T @ x
    norm2 = float(z @ z)
    tol = 8.0 * _MACHINE_EPS * max(abs(float(d[0])), abs(float(d[-1])), t * norm2)
    tied = d[:-1] - d[1:] <= tol
    if tied.any():
        u = u.copy()
        bounds = np.flatnonzero(np.diff(np.concatenate([[False], tied, [False]])))
        for first, last in zip(bounds[::2], bounds[1::2] + 1):  # d[first:last] is one cluster
            norm = float(np.linalg.norm(z[first:last]))
            if norm > 0.0:
                v = z[first:last].copy()
                head = -math.copysign(norm, v[0])
                v[0] -= head
                u[:, first:last] -= np.outer(u[:, first:last] @ v, v * (2.0 / (v @ v)))
                z[first:last] = 0.0
                z[first] = head
    keep = np.flatnonzero(t * math.sqrt(norm2) * np.abs(z) > tol)
    if keep.size == 0:
        return EigenDecomposition(d.copy(), u.copy())
    dk, zk = (d, z) if keep.size == d.size else (d[keep], z[keep])
    solved = _secular_roots(dk, zk, t, workspace)
    if solved is None:
        return None
    mu, q = solved
    if not ((mu >= dk).all() and (dk[:-1] >= mu[1:]).all()):  # NaN fails too
        return None
    if keep.size == d.size:
        return EigenDecomposition(mu, u @ q)
    d = d.copy()
    d[keep] = mu
    u = u.copy() if u is vectors else u
    u[:, keep] = u[:, keep] @ q
    order = np.argsort(-d, kind="stable")
    return EigenDecomposition(d[order], u[:, order])


@_one_blas_thread
def isotropic_reduce(frame: Frame) -> Frame:
    """Whiten a frame to an exact decomposition of the identity on its span.

    The result is isotropy-certified; a frame times 2^j whitens to the same
    vectors bit for bit.  A dense frame X, its largest entry moved into
    [0.5, 1), is whitened by its thin SVD X = U Sigma V^T to U's first r
    columns, r the number of singular values above n eps_mach times the
    largest (a Gram matrix would square that floor); rows of zero vectors
    are set to exactly zero, so ``Frame.nonzero`` skips LAPACK's rounding.

    An edge frame needs the identity basis (ValueError otherwise); its
    weights move into the units where the largest lies in [0.5, 1), and the
    result keeps them there.  The Laplacian L = M D M^T is factored by
    eliminating vertices in weight form, lightest weighted degree first (so
    heavy rows stay O(w^-1/2) and do not cancel): the pivot d_k is the sum
    of k's current weights, the fill is a_ij += a_ik (a_jk / d_k), and a zero
    pivot grounds one vertex per component.  W = M^-T D^-1/2 on the positive
    pivots comes from back substitution over the nonnegative multipliers.
    Nothing is subtracted (Demmel-Koev, Numer. Math. 98, 2004).  Both run by
    panels of 32 vertices: within a panel, each vertex's row and column take
    the panel's earlier eliminations by two products before its pivot, and
    the trailing matrix then takes the whole panel by one product; the back
    substitution takes the rows below a panel by one product, then the
    panel's own rows from the bottom up.  The terms are the one-at-a-time
    elimination's, summed in another order.  Row k is the
    last row nonzero in column k and a grounded row is zero, so rows are
    distinct.  W must span L's whole range: when a weight or fill term
    underflows to 0 and grounds more vertices than the positive-weight
    edges have components, CertificationError is raised.  W is then refined
    once against its own Gram W^T L W, formed edge by edge (``Frame.gram``):
    W <- W C^-T, C its Cholesky factor (CertificationError when it has none),
    by a panel triangular solve (``_right_triangular_solve``), which keeps W's
    rows distinct and its grounded rows zero.

    Either result must pass ``Frame``'s isotropy check, or CertificationError
    names the residual (two K16 clusters of weight 1e16 joined by a unit edge
    miss I by 3.8e-8), so a returned frame covers the whole span.
    """
    inc = frame.incidence
    if inc is None:
        left, sigma, _ = np.linalg.svd(_unit_scaled(frame.vectors, np.abs(frame.vectors)), full_matrices=False)
        if not sigma[0] > 0.0:
            raise ZeroFrameError("frame has no positive-energy direction; all vectors are zero")
        r = int(np.count_nonzero(sigma > frame.ambient_dim * _MACHINE_EPS * sigma[0]))
        reduced = left[:, :r]
        reduced[~np.any(frame.vectors != 0.0, axis=1)] = 0.0
        whitened = Frame(reduced)
    else:
        if not np.array_equal(inc.basis, np.eye(inc.basis.shape[0])):
            raise ValueError("edge whitening needs the identity incidence basis")
        weights, n = _unit_scaled(inc.weights, inc.weights), inc.basis.shape[0]
        a = np.bincount(inc.heads * n + inc.tails, weights=weights, minlength=n * n).reshape(n, n)
        a += a.T
        order = np.argsort(a.sum(axis=1), kind="stable")
        a = a[np.ix_(order, order)]
        pivots, panels = np.empty(n), range(0, n, _PANEL)
        for p0 in panels:
            p1 = min(p0 + _PANEL, n)
            for k in range(p0, p1):  # row k's tail becomes the multipliers a_jk / d_k
                if k > p0:  # the panel's earlier eliminations reach row and column k
                    a[k, k + 1 :] += a[k, p0:k] @ a[p0:k, k + 1 :]
                    a[k + 1 :, k] += a[k + 1 :, p0:k] @ a[p0:k, k]
                pivots[k] = d = a[k, k + 1 :].sum()
                if d > 0.0:
                    a[k, k + 1 :] = a[k + 1 :, k] / d
            a[p1:, p1:] += a[p1:, p0:p1] @ a[p0:p1, p1:]  # a grounded row is zero and adds nothing
        inverse = np.eye(n)  # M^-T, by back substitution over the nonnegative multipliers
        for q0 in reversed(panels):
            q1 = min(q0 + _PANEL, n)
            inverse[q0:q1, q1:] = a[q0:q1, q1:] @ inverse[q1:, q1:]
            for k in range(q1 - 2, q0 - 1, -1):
                inverse[k, k + 1 :] += a[k, k + 1 : q1] @ inverse[k + 1 : q1, k + 1 :]
        kept, live = pivots > 0.0, inc.weights > 0.0
        r = n - int(np.count_nonzero(_components(n, inc.heads[live], inc.tails[live]) == np.arange(n)))
        if np.count_nonzero(kept) != r:
            raise CertificationError(
                f"whitening resolved {np.count_nonzero(kept)} of the Laplacian's {r} range directions; a weight "
                "or fill term underflowed to 0, so the edge weights span too wide a range to certify"
            )
        basis = inverse[:, kept]
        del a, inverse  # the refinement needs neither
        basis /= np.sqrt(pivots[kept])
        eliminated = replace(inc, weights=weights, basis=basis[np.argsort(order)])  # rows in input order
        del basis
        try:  # one refinement, W <- W C^-T with C C^T = W^T L W
            factor = np.linalg.cholesky(Frame(incidence=eliminated).gram())
        except np.linalg.LinAlgError as exc:
            raise CertificationError(f"whitening's Laplacian Gram is not positive definite: {exc}") from exc
        whitened = Frame(incidence=replace(eliminated, basis=_right_triangular_solve(eliminated.basis, factor)))
        del eliminated, factor  # nor does the isotropy check
    try:
        return replace(whitened, isotropy_certified=True)
    except ValueError as exc:  # the shapes passed above, so only the isotropy check can fail here
        raise CertificationError(f"whitening missed the identity: {exc}") from exc


def _right_triangular_solve(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """W C^-T for lower-triangular C, by panels of ``_PANEL`` columns.

    X C^T = W is solved for X's columns panel by panel: one product takes the
    earlier panels out of the right-hand side, then a solve against the
    panel's diagonal block of C gives its columns.
    """
    x = np.empty_like(w)
    for j0 in range(0, c.shape[0], _PANEL):
        j1 = min(j0 + _PANEL, c.shape[0])
        rhs = w[:, j0:j1] - x[:, :j0] @ c[j0:j1, :j0].T
        x[:, j0:j1] = np.linalg.solve(c[j0:j1, j0:j1], rhs.T).T
    return x


def _components(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Lowest vertex of each vertex's component; each of O(log n) rounds hooks roots onto roots, then jumps."""
    label = np.arange(n)
    while True:
        head_roots, tail_roots = label[heads], label[tails]
        if np.array_equal(head_roots, tail_roots):
            return label
        np.minimum.at(label, head_roots, tail_roots)
        np.minimum.at(label, tail_roots, head_roots)
        while not np.array_equal(label, label[label]):
            label = label[label]


def _unit_scaled(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``values`` times the power of two that puts max(reference) in [0.5, 1): whitening's units."""
    return np.ldexp(values, -np.frexp(np.max(reference))[1])


@dataclass(frozen=True)
class Certificate:
    """Measured extremes of a spectrum against the interval a result claims.

    ``range_dim`` is the number of eigenvalues measured; ``high`` may be inf.
    """

    low: float
    high: float
    measured_min: float
    measured_max: float
    range_dim: int

    @property
    def margin(self) -> float:
        """Distance to the nearer claimed end; negative when within tolerance outside."""
        return min(self.measured_min - self.low, self.high - self.measured_max)

    @property
    def headroom(self) -> float:
        """Distance from the measured top to the claimed upper end."""
        return self.high - self.measured_max


def certify_spectrum(values, low: float, high: float, *, tol: float, what: str) -> Certificate:
    """Certificate of ``values`` inside [low - tol, high + tol], else CertificationError."""
    lam = np.asarray(values, dtype=float)
    lo, hi = float(np.min(lam)), float(np.max(lam))
    if not (lo >= low - tol and hi <= high + tol):  # NaN fails too
        raise CertificationError(
            f"{what} spectrum [{lo:.12g}, {hi:.12g}] escapes [{low:.12g}, {high:.12g}]"
        )
    return Certificate(float(low), float(high), lo, hi, int(lam.size))

