"""Independent checks of every output the benchmark times.

Nothing here imports rforge: inputs and outputs arrive as plain numbers,
arrays and files, and each guarantee is re-derived from its definition with
numpy/scipy.  A violated guarantee raises CheckError; a passing check returns
a Verdict with the call's quality headroom (claimed ceiling over achieved
quality, where the guarantee has one) and the size and a digest of what it
selected, so that two commits can be compared for identical selections.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
import scipy.linalg

# Relative slack on every certified bound; the library's own acceptance
# tolerance for the spectral sandwich.
TOL = 1e-8


class CheckError(Exception):
    """An output violates the guarantee it was returned under."""


@dataclass
class Verdict:
    headroom: float | None
    selection: dict | None  # {"size": items selected, "digest": hash of them}


def selection(items: list) -> dict:
    text = json.dumps(items, separators=(",", ":"))
    return {"size": len(items), "digest": hashlib.sha256(text.encode()).hexdigest()[:16]}


def theta(eps: float) -> float:
    return (1.0 + eps) / (1.0 - eps)


def barrier_eps(ratio: float) -> float:
    """eps0 with ((1+eps0)/(1-eps0))^2 == ratio."""
    root = math.sqrt(ratio)
    return (root - 1.0) / (root + 1.0)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def at_most(value: float, ceiling: float, what: str) -> None:
    require(value <= ceiling * (1.0 + TOL), f"{what} {value!r} above its ceiling {ceiling!r}")


def at_least(value: float, floor: float, what: str) -> None:
    require(value >= floor * (1.0 - TOL), f"{what} {value!r} below its floor {floor!r}")


# --- text files, parsed without rforge.formats -----------------------------


def _data_lines(path):
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            text = raw.split("#", 1)[0].strip()
            if text:
                yield text.split()


def read_edges(path) -> tuple[int, list[tuple[int, int, float]]]:
    lines = list(_data_lines(path))
    require(bool(lines) and lines[0][0] == "n", f"{path}: missing 'n <count>' header")
    edges = [(min(int(i), int(j)), max(int(i), int(j)), float(w)) for i, j, w in lines[1:]]
    return int(lines[0][1]), edges


def read_matrix(path) -> np.ndarray:
    lines = list(_data_lines(path))
    rows, cols = int(lines[0][0]), int(lines[0][1])
    out = np.array([[float(v) for v in line] for line in lines[1:]])
    require(out.shape == (rows, cols), f"{path}: header says {rows}x{cols}, body is {out.shape}")
    return out


def read_weights(path) -> dict[int, float]:
    out = {}
    for idx, w in _data_lines(path):
        require(int(idx) not in out, f"{path}: index {idx} repeats")
        out[int(idx)] = float(w)
    return out


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# --- graphs ------------------------------------------------------------------


def _laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def _components(n: int, edges) -> list[int]:
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, _ in edges:
        parent[root(i)] = root(j)
    # canonical labels: each vertex maps to the smallest vertex of its component
    smallest: dict[int, int] = {}
    for v in range(n):
        smallest.setdefault(root(v), v)
    return [smallest[root(v)] for v in range(n)]


def graph_quotients(n: int, g_edges, h_edges) -> tuple[float, float]:
    """Extreme generalized eigenvalues of (L_H, L_G) off the kernel of L_G.

    The kernel is spanned by the connected components' indicator vectors,
    found combinatorially rather than by a numerical rank cut.  H must keep
    G's components, or its Laplacian has a larger kernel and no finite
    quality.
    """
    support = {(i, j) for i, j, _ in g_edges}
    extra = sorted((i, j) for i, j, _ in h_edges if (i, j) not in support)
    require(not extra, f"H has edge {extra[0] if extra else None} that G does not have")
    weights = np.array([w for _, _, w in h_edges])
    require(bool(np.all(np.isfinite(weights)) and np.all(weights > 0)), "H has a non-positive weight")
    labels = _components(n, g_edges)
    require(_components(n, h_edges) == labels, "H splits a connected component of G")
    indicator = np.zeros((n, len(set(labels))))
    for col, label in enumerate(sorted(set(labels))):
        indicator[[v for v in range(n) if labels[v] == label], col] = 1.0
    basis = scipy.linalg.null_space(indicator.T)
    if basis.shape[1] == 0:
        return 1.0, 1.0
    lap_g = basis.T @ _laplacian(n, g_edges) @ basis
    lap_h = basis.T @ _laplacian(n, h_edges) @ basis
    quotients = scipy.linalg.eigh(
        0.5 * (lap_h + lap_h.T), 0.5 * (lap_g + lap_g.T), eigvals_only=True
    )
    return float(quotients[0]), float(quotients[-1])


def graph_sparsifier(n: int, g_edges, h_edges, eps: float) -> Verdict:
    """H is a reweighted subgraph of G with at most 2*ceil(n/eps^2) ordered
    entries and Laplacian quotients in [1, theta^2]."""
    bound = 2 * math.ceil(n / eps**2)
    require(2 * len(h_edges) <= bound, f"ordered support {2 * len(h_edges)} exceeds {bound}")
    low, high = graph_quotients(n, g_edges, h_edges)
    ceiling = theta(eps) ** 2
    require(low >= 1.0 - TOL, f"quotient {low!r} below 1")
    require(high <= ceiling * (1.0 + TOL), f"quotient {high!r} above theta^2 = {ceiling!r}")
    return Verdict(ceiling / (high / low), selection(sorted([i, j] for i, j, _ in h_edges)))


def quality_report(n, g_edges, h_edges, reported_min, reported_max, low, high) -> Verdict:
    """A verifier's reported quotients match ours and lie in [low, high]."""
    mine = graph_quotients(n, g_edges, h_edges)
    for name, theirs, ours in (("min", reported_min, mine[0]), ("max", reported_max, mine[1])):
        require(
            math.isclose(theirs, ours, rel_tol=1e-6),
            f"reported {name} quotient {theirs!r} differs from {ours!r}",
        )
    require(mine[0] >= low * (1.0 - TOL), f"quotient {mine[0]!r} below {low!r}")
    require(mine[1] <= high * (1.0 + TOL), f"quotient {mine[1]!r} above {high!r}")
    return Verdict(None, None)


# --- frames, column selection, the even-p lift --------------------------------


def _pencil_extremes(weighted: np.ndarray, plain: np.ndarray) -> tuple[float, float]:
    lam = scipy.linalg.eigh(
        0.5 * (weighted + weighted.T), 0.5 * (plain + plain.T), eigvals_only=True
    )
    return float(lam[0]), float(lam[-1])


def frame_sparsifier(vectors: np.ndarray, weights: dict[int, float], eps: float) -> Verdict:
    """Weights on a full-rank frame keep sum s_i <x_i, y>^2 within
    [(1-eps)^2, (1+eps)^2] of sum <x_i, y>^2, on at most ceil(n/eps^2) rows."""
    m, n = vectors.shape
    require(all(0 <= i < m for i in weights), "weight index out of range")
    bound = math.ceil(n / eps**2)
    require(len(weights) <= bound, f"support {len(weights)} exceeds {bound}")
    dense = np.zeros(m)
    dense[list(weights)] = list(weights.values())
    require(bool(np.all(dense >= 0) and np.all(np.isfinite(dense))), "negative or non-finite weight")
    low, high = _pencil_extremes((vectors * dense[:, None]).T @ vectors, vectors.T @ vectors)
    require(low >= (1.0 - eps) ** 2 * (1.0 - TOL), f"ratio {low!r} below (1-eps)^2")
    require(high <= (1.0 + eps) ** 2 * (1.0 + TOL), f"ratio {high!r} above (1+eps)^2")
    return Verdict(theta(eps) ** 2 / (high / low), selection(sorted(weights)))


def column_selection(operator: np.ndarray, selected: list[int], eps: float) -> Verdict:
    """Exactly floor(eps^2 ||T||_HS^2 / ||T||^2) distinct columns whose Gram
    matrix has smallest eigenvalue at least (1-eps)^2 ||T||_HS^2 / n."""
    n = operator.shape[1]
    hs_sq = float(np.sum(operator**2))
    op_sq = float(np.linalg.svd(operator, compute_uv=False)[0] ** 2)
    size = math.floor(eps**2 * hs_sq / op_sq)
    require(len(selected) == size, f"selected {len(selected)} columns, expected {size}")
    require(len(set(selected)) == size and all(0 <= i < n for i in selected), "bad column indices")
    picked = operator[:, selected]
    lam_min = float(np.linalg.eigvalsh(picked.T @ picked)[0])
    floor = (1.0 - eps) ** 2 * hs_sq / n
    require(lam_min >= floor * (1.0 - TOL), f"Gram eigenvalue {lam_min!r} below floor {floor!r}")
    return Verdict(lam_min / floor, selection(list(selected)))


def even_p_selection(basis: np.ndarray, p: int, weights: dict[int, float], eps: float) -> Verdict:
    """Coordinate weights keep the quadratic form on the degree-p/2 monomial
    lift of the basis within [1, 1 + eps*p/4]."""
    half = p // 2
    combos = combinations_with_replacement(range(basis.shape[0]), half)
    monomials = np.stack([np.prod(basis[list(c), :], axis=0) for c in combos], axis=1)
    lift, _ = np.linalg.qr(monomials)
    ceiling = 1.0 + eps * p / 4.0
    bound = math.ceil(lift.shape[1] / barrier_eps(ceiling) ** 2)
    require(len(weights) <= bound, f"selected {len(weights)} coordinates, bound {bound}")
    rows = lift[list(weights)]
    lam = np.linalg.eigvalsh(rows.T @ (rows * np.array(list(weights.values()))[:, None]))
    require(lam[0] >= 1.0 - TOL, f"lifted ratio {lam[0]!r} below 1")
    require(lam[-1] <= ceiling * (1.0 + TOL), f"lifted ratio {lam[-1]!r} above {ceiling!r}")
    return Verdict(ceiling / (lam[-1] / lam[0]), selection(sorted(weights)))


# --- embeddings and John decompositions ----------------------------------------


def _l1_distances(points: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(points[:, None, :] - points[None, :, :]), axis=2)


def l1_embedding(points: np.ndarray, embedded: np.ndarray, eps: float) -> Verdict:
    """Every pairwise L1 distance grows by a factor in [1, 1+eps], in at
    most ceil(n/eps0^2) coordinates."""
    n = points.shape[0]
    bound = math.ceil(n / barrier_eps(1.0 + eps) ** 2)
    require(embedded.shape[0] == n, "embedding lost points")
    require(embedded.shape[1] <= bound, f"{embedded.shape[1]} coordinates, bound {bound}")
    direct, image = _l1_distances(points), _l1_distances(embedded)
    apart = direct > 0
    require(bool(np.all(image[~apart] == 0)), "coincident points were separated")
    ratios = image[apart] / direct[apart]
    low, high = float(ratios.min()), float(ratios.max())
    require(low >= 1.0 - TOL, f"distortion {low!r} below 1")
    require(high <= (1.0 + eps) * (1.0 + TOL), f"distortion {high!r} above 1+eps")
    # each coordinate is one selected cut: its nonzero pattern names it
    cuts = sorted(np.flatnonzero(col).tolist() for col in embedded.T)
    return Verdict((1.0 + eps) / (high / low), selection(cuts))


def john_decomposition(dim: int, points: np.ndarray, weights: np.ndarray, eps: float) -> Verdict:
    """Unit points, positive weights, sum c x x^T = I, sum c x = 0, and at
    most 2*ceil(dim/eps0^2) points."""
    bound = 2 * math.ceil(dim / barrier_eps(1.0 + eps / 4.0) ** 2)
    require(points.shape == (len(weights), dim), "points and weights disagree")
    require(len(weights) <= bound, f"{len(weights)} points, bound {bound}")
    require(bool(np.all(weights > 0)), "non-positive weight")
    require(float(np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0))) <= 1e-9, "point not of unit norm")
    identity = (points * weights[:, None]).T @ points
    residual = float(np.max(np.abs(identity - np.eye(dim))))
    require(residual <= TOL, f"identity residual {residual!r}")
    center = float(np.max(np.abs((points * weights[:, None]).sum(axis=0))))
    require(center <= TOL, f"center of mass {center!r}")
    return Verdict(None, selection(np.round(points, 8).tolist()))


def cycle_demo(report: dict, n: int, p: float, q: float, eps: float) -> Verdict:
    """The separating cycle: p-quality under 1+eps, q-quality over
    eps*(n-1)^(q-p), and the q figure matches our own witness energies."""
    heavy = (n - 1) ** (p - 1) / eps
    ramp = np.arange(n, dtype=float)
    spike = np.zeros(n)
    spike[1] = 1.0

    def energy(x, closing):
        path = heavy * np.sum(np.abs(np.diff(x)) ** q)
        return 2.0 * (path + closing * abs(x[0] - x[-1]) ** q)

    ratios = [energy(x, 0.0) / energy(x, 1.0) for x in (ramp, spike)]
    ours = max(ratios) / min(ratios)
    res = report["results"]
    require(math.isclose(res["q_quality_lower_bound"], ours, rel_tol=1e-9), "q-quality disagrees")
    require(ours >= eps * (n - 1) ** (q - p) * (1.0 - TOL), "q-quality below its floor")
    require(res["p_quality_lower_bound"] <= (1.0 + eps) * (1.0 + TOL), "p-quality above 1+eps")
    return Verdict(None, None)
