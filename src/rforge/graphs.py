"""Weighted graphs, graph sparsification, and its certificate.

A graph on n vertices is three arrays (edge heads, tails and weights).  Its
edge frame of vectors sqrt(w) * (e_i - e_j) stores no rows, only that
incidence factor; sparsifying it and pulling the weights back yields a
reweighted subgraph H whose Laplacian quadratic form sandwiches the input's:

    <L_G y, y>  <=  <L_H y, y>  <=  ((1+eps)/(1-eps))^2 * <L_G y, y>

for every y, with at most 2*ceil(n/eps^2) nonzero ordered entries in H.
H carries the certificate the frame sparsifier measured for it, lifted
onto that interval, so a caller reads it without certifying again; H's
quality is that certificate's max/min ratio.
``verify_quality`` certifies any candidate sparsifier: an exact
connected-components check, then a validated eigensolve of L_H on the
basis that whitens G's edge frame exactly as the sparsifier whitens it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bss import _theta, check_eps, lift_to_unit, sparsify_frame
from .errors import CertificationError
from .linalg import (
    Certificate,
    Frame,
    Incidence,
    _components,
    _one_blas_thread,
    _unit_scaled,
    eigh,
    isotropic_reduce,
)


class WeightedGraph:
    """Vertices 0..n-1 with positive, finite undirected edge weights.

    Edge e joins ``heads[e]`` < ``tails[e]`` with weight ``weights[e]``, at most one per pair.
    Build one from (i, j, w) tuples, ``WeightedGraph(n, edges)``, or with ``from_arrays``;
    the three arrays are validated, read-only copies.  Only ``sparsify_graph`` sets ``certificate``.
    """

    certificate: Certificate | None = None

    def __init__(self, n: int, edges=()):
        cols = np.array(list(edges) or np.zeros((0, 3)), dtype=float)
        if cols.ndim != 2 or cols.shape[1] != 3:
            raise ValueError("edges must be (i, j, w) triples")
        self._store(n, cols[:, 0], cols[:, 1], cols[:, 2])

    @classmethod
    def from_arrays(cls, n: int, heads, tails, weights) -> WeightedGraph:
        g = cls.__new__(cls)
        g._store(n, heads, tails, weights)
        return g

    def _store(self, n, heads, tails, weights) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        heads, tails = (np.asarray(a).astype(np.intp) for a in (heads, tails))
        weights = np.array(weights, dtype=float)
        if heads.ndim != 1 or heads.shape != tails.shape or heads.shape != weights.shape:
            raise ValueError("heads, tails and weights must be 1-D arrays of equal length")
        # The first bad edge in order is reported, with the first check it fails.
        bad_pair = ~((heads >= 0) & (heads < tails) & (tails < n))
        order = np.lexsort((tails, heads))  # stable: a repeat sorts after the pair's first edge
        repeat = np.zeros(heads.size, dtype=bool)
        repeat[order[1:]] = (heads[order[1:]] == heads[order[:-1]]) & (tails[order[1:]] == tails[order[:-1]])
        bad = bad_pair | repeat | ~((weights > 0.0) & (weights < np.inf))
        if bad.any():
            e = int(np.argmax(bad))
            i, j = int(heads[e]), int(tails[e])
            if bad_pair[e]:
                raise ValueError(f"edge ({i}, {j}) must satisfy 0 <= i < j < {n}")
            if repeat[e]:
                raise ValueError(f"duplicate edge ({i}, {j})")
            raise ValueError(f"edge ({i}, {j}) has nonpositive or non-finite weight {weights[e]}")
        for a in (heads, tails, weights):
            a.flags.writeable = False
        self.n, self.heads, self.tails, self.weights = n, heads, tails, weights

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """The edges as (i, j, w) tuples of Python numbers, built on each access."""
        return list(zip(self.heads.tolist(), self.tails.tolist(), self.weights.tolist()))

    @property
    def edge_count(self) -> int:
        return self.weights.size

    @property
    def ordered_support_size(self) -> int:
        return 2 * self.weights.size

    def edge_pairs(self) -> set[tuple[int, int]]:
        return set(zip(self.heads.tolist(), self.tails.tolist()))


@dataclass
class QualityReport:
    """Certified quality of one graph's quadratic form against another's."""

    min_quotient: float
    max_quotient: float
    range_dim: int


def edge_frame(g: WeightedGraph) -> Frame:
    """The frame of vectors sqrt(w) * (e_i - e_j), one per edge in edge order.

    The sum of their outer products equals the Laplacian.  The frame
    stores no rows, only its incidence factor (g's arrays and the basis
    I_n), so whitening and the barrier loop work with n x n matrices.
    Graphs with no edges have no frame; callers must check ``edge_count``.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges, so its edge frame is empty")
    return Frame(incidence=Incidence(g.heads, g.tails, g.weights, np.eye(g.n)))


@_one_blas_thread
def sparsify_graph(g: WeightedGraph, eps: float, *, history: list | None = None) -> WeightedGraph:
    """Reweighted subgraph whose Laplacian form sandwiches the input's.

    The output H keeps a subset of g's edges (at most ceil(n/eps^2) of
    them), reweighted so the generalized Rayleigh quotients of (L_H, L_G)
    on the range of L_G lie in [1, ((1+eps)/(1-eps))^2].  Vertices with no
    surviving edge are kept; the Laplacian kernel is preserved.  This is
    ``sparsify_frame(edge_frame(g), eps)`` and the lift onto that interval;
    whitening (``isotropic_reduce``) raises CertificationError before any
    barrier step unless it resolves the whole range of L_G.

    H's ``certificate`` is the frame sparsifier's, lifted onto that interval:
    the extreme quotients and ``range_dim`` that ``verify_quality(g, H)``
    would measure again (1.0, 1.0 and 0 for an edgeless g).
    """
    check_eps(eps)
    theta_sq = _theta(eps) ** 2
    if g.edge_count == 0:
        h = WeightedGraph(g.n)
        h.certificate = Certificate(1.0, theta_sq, 1.0, 1.0, 0)
        return h
    sparse = sparsify_frame(edge_frame(g), eps, history=history)
    weights, cert = lift_to_unit(sparse, eps, theta_sq, g.weights, what="Laplacian pencil")
    h = WeightedGraph.from_arrays(g.n, g.heads[sparse.support], g.tails[sparse.support], weights)
    h.certificate = cert
    return h


def _missing_pair(g: WeightedGraph, h: WeightedGraph) -> tuple[int, int] | None:
    """The lowest pair (i, j) that is an edge of h but not of g, or None."""
    n = max(g.n, h.n)
    key_g, key_h = g.heads * n + g.tails, h.heads * n + h.tails
    extra = key_h[~np.isin(key_h, key_g)]
    return divmod(int(extra.min()), n) if extra.size else None


@_one_blas_thread
def verify_quality(g: WeightedGraph, h: WeightedGraph) -> QualityReport:
    """Certify h's quadratic form against g's on the range of g's Laplacian.

    Checks the support precondition and, exactly, that h connects every
    pair of vertices g connects (raising CertificationError with a witness
    edge or vertex pair on violation).  The component indicators of g then
    span the kernel of both Laplacians, so the range of L_G has dimension
    r = n - (number of components).  g's edge frame is whitened as
    ``sparsify_graph`` whitens it, so its basis W has W^T L_G W = I on r
    columns in whitening's units (CertificationError otherwise), and the
    generalized Rayleigh quotients of (L_H, L_G) there are the eigenvalues
    of W^T L_H W: the Gram of h's edge frame on W, with h's weights in the
    same units, formed as every frame's Gram is (``Frame.gram``) and taken
    with the validated ``eigh``.  The independent references are the
    tests' scipy and mpmath pencils and the benchmark's scipy checks.
    """
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    witness = _missing_pair(g, h)
    if witness is not None:
        raise CertificationError(
            f"candidate edge {witness} is not in the reference graph's support"
        )
    # h's edges are g's, so its components refine g's; they must coincide.
    roots = _components(g.n, g.heads, g.tails)
    split = np.flatnonzero(_components(h.n, h.heads, h.tails) != roots)
    if split.size:
        v = int(split[0])
        raise CertificationError(
            f"candidate disconnects vertices {roots[v]} and {v}, which the reference "
            "graph connects; its quadratic form vanishes on a vector the reference's does not"
        )
    if g.edge_count == 0:
        return QualityReport(1.0, 1.0, 0)
    basis = isotropic_reduce(edge_frame(g)).incidence.basis
    pencil = Frame(incidence=Incidence(h.heads, h.tails, _unit_scaled(h.weights, g.weights), basis))
    quotients = eigh(pencil.gram()).values
    return QualityReport(float(quotients[-1]), float(quotients[0]), basis.shape[1])
