"""Weighted graphs, Laplacians, graph sparsification, and its certificate.

A graph on n vertices is reduced to the frame of scaled edge-difference
vectors sqrt(w) * (e_i - e_j); sparsifying that frame and pulling the
weights back yields a reweighted subgraph H whose Laplacian quadratic form
sandwiches the input's:

    <L_G y, y>  <=  <L_H y, y>  <=  ((1+eps)/(1-eps))^2 * <L_G y, y>

for every y, with at most 2*ceil(n/eps^2) nonzero ordered entries in H.
``verify_quality`` certifies any candidate sparsifier independently: an
exact connected-components check, then a validated symmetric eigensolve of
L_H whitened by L_G on the common range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bss import check_eps, sparsify_frame
from .errors import CertificationError
from .linalg import _RANK_RTOL, Frame, Incidence, eigh, symmetrize


@dataclass
class WeightedGraph:
    """Vertices 0..n-1 with positive, finite undirected edge weights.

    Edges are (i, j, w) with i < j and at most one entry per vertex pair.
    """

    n: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        seen = set()
        canon = []
        for i, j, w in self.edges:
            i, j = int(i), int(j)
            if not 0 <= i < j < self.n:
                raise ValueError(f"edge ({i}, {j}) must satisfy 0 <= i < j < {self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not 0 < w < math.inf:
                raise ValueError(f"edge ({i}, {j}) has nonpositive or non-finite weight {w}")
            seen.add((i, j))
            canon.append((i, j, float(w)))
        self.edges = canon

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def ordered_support_size(self) -> int:
        return 2 * len(self.edges)

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.edges}

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a


@dataclass
class QualityReport:
    """Certified quality of one graph's quadratic form against another's."""

    min_quotient: float
    max_quotient: float
    range_dim: int


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Degree matrix minus adjacency; rows sum to zero."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def edge_frame(g: WeightedGraph) -> Frame:
    """One vector sqrt(w) * (e_i - e_j) per edge, in edge-list order.

    The sum of outer products of these vectors equals the Laplacian.  The
    frame carries its incidence factor (endpoints, weights, basis I_n), so
    the barrier loop can score edges from n x n matrices.  Graphs with no
    edges have no frame; callers must check ``edge_count``.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges, so its edge frame is empty")
    heads, tails, weights = (np.array(col) for col in zip(*g.edges))
    rows = np.arange(g.edge_count)
    root = np.sqrt(weights)
    vectors = np.zeros((g.edge_count, g.n))
    vectors[rows, heads] = root
    vectors[rows, tails] = -root
    return Frame(vectors, incidence=Incidence(heads, tails, weights, np.eye(g.n)))


def sparsify_graph(g: WeightedGraph, eps: float, *, history: list | None = None) -> WeightedGraph:
    """Reweighted subgraph whose Laplacian form sandwiches the input's.

    The output H keeps a subset of g's edges (at most ceil(n/eps^2) of
    them), reweighted so the generalized Rayleigh quotients of (L_H, L_G)
    on the range of L_G lie in [1, ((1+eps)/(1-eps))^2].  Vertices with no
    surviving edge are kept; the Laplacian kernel is preserved.  The range
    of L_G has dimension n minus the number of connected components; when
    whitening the edge frame resolves fewer directions (edge weights
    spanning about 1e16), CertificationError is raised.
    """
    check_eps(eps)
    if g.edge_count == 0:
        return WeightedGraph(g.n, [])
    sparse = sparsify_frame(edge_frame(g), eps, history=history)
    r = g.n - len(set(_components(g)))
    if sparse.certificate.range_dim != r:
        raise CertificationError(
            f"whitening resolved {sparse.certificate.range_dim} of the Laplacian's {r} range "
            "directions; the edge weights span too wide a range to certify"
        )
    # Lift the frame certificate's lower constant to exactly 1.
    weights = sparse.weights * (1.0 / (1.0 - eps) ** 2)
    edges = [
        (g.edges[idx][0], g.edges[idx][1], w * g.edges[idx][2])
        for idx, w in zip(sparse.support, weights)
    ]
    return WeightedGraph(g.n, edges)


def _components(g: WeightedGraph) -> list[int]:
    """Lowest vertex of each vertex's connected component (union-find)."""
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, _ in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return [find(v) for v in range(g.n)]


def verify_quality(g: WeightedGraph, h: WeightedGraph) -> QualityReport:
    """Certify h's quadratic form against g's on the range of g's Laplacian.

    Checks the support precondition and, exactly, that h connects every
    pair of vertices g connects (raising CertificationError with a witness
    edge or vertex pair on violation).  The component indicators of g then
    span the kernel of both Laplacians, so the range of L_G has dimension
    r = n - (number of components).  With L_G = V diag(lambda) V^T on its
    top r eigenpairs, the generalized Rayleigh quotients of (L_H, L_G) there
    are the eigenvalues of W^T L_H W for W = V diag(lambda)^(-1/2); both
    decompositions use the validated ``eigh``.  If lambda_r is not above
    n * eps_mach * lambda_1, the rank floor of ``isotropic_reduce``, the
    range cannot be resolved in float64 and CertificationError is raised.
    """
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    extra = h.edge_pairs() - g.edge_pairs()
    if extra:
        witness = min(extra)
        raise CertificationError(
            f"candidate edge {witness} is not in the reference graph's support"
        )
    # h's edges are g's, so its components refine g's; they must coincide.
    roots = _components(g)
    for v, (root_g, root_h) in enumerate(zip(roots, _components(h))):
        if root_h != root_g:
            raise CertificationError(
                f"candidate disconnects vertices {root_g} and {v}, which the reference "
                "graph connects; its quadratic form vanishes on a vector the reference's does not"
            )
    r = g.n - len(set(roots))
    if r == 0:
        return QualityReport(1.0, 1.0, 0)
    decomp = eigh(laplacian(g))
    lam = decomp.values
    floor = g.n * _RANK_RTOL * lam[0]
    if not lam[r - 1] > floor:
        raise CertificationError(
            f"reference Laplacian eigenvalue {r} of {g.n} ({lam[r - 1]:.3e}) is not above the "
            f"float64 rank floor {floor:.3e}; its range cannot be resolved"
        )
    whiten = decomp.vectors[:, :r] / np.sqrt(lam[:r])
    quotients = eigh(symmetrize(whiten.T @ laplacian(h) @ whiten)).values
    return QualityReport(float(quotients[-1]), float(quotients[0]), r)


def spectral_gap_ratio(h: WeightedGraph) -> float:
    """Absolute spectral spread over the top gap of the weighted adjacency.

    Returns (lambda_1 - lambda_n) / (lambda_1 - lambda_2).  Values near 1
    mean the graph behaves like a strong expander.  Degenerate spectra
    (lambda_1 close to lambda_2, e.g. disconnected or trivial graphs) are
    rejected.
    """
    if h.n < 2:
        raise ValueError("spectral gap ratio needs at least 2 vertices")
    lam = eigh(h.adjacency()).values
    gap = float(lam[0] - lam[1])
    if gap <= 1e-12:
        raise ValueError(
            f"top spectral gap {gap:.3e} is degenerate; the graph is disconnected or trivial"
        )
    return float((lam[0] - lam[-1]) / gap)

