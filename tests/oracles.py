"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the production
code paths: explicit inverses instead of factorizations, eigenvalue sums
instead of trace identities, double loops instead of vectorized kernels.
"""

from __future__ import annotations

import math

import numpy as np

from rforge.formats import ParseError


def explicit_inverse(m: np.ndarray) -> np.ndarray:
    return np.linalg.inv(np.asarray(m, dtype=float))


def potential_from_eigenvalues(m: np.ndarray, barrier: float, side: str) -> float:
    lam = np.linalg.eigvalsh(np.asarray(m, dtype=float))
    if side == "upper":
        return float(np.sum(1.0 / (barrier - lam)))
    return float(np.sum(1.0 / (lam - barrier)))


def barrier_step_oracle(a_prev: np.ndarray, frame_vectors: np.ndarray, eps: float, step: int):
    """One barrier iteration computed from first principles.

    ``a_prev`` is the running matrix before iteration ``step`` (1-based),
    ``frame_vectors`` the (m, n) candidate rows.  Returns a dict with the
    gap pair, all candidate scores, the chosen index, and the step weight,
    everything via explicit inverses and eigenvalue sums.  Exact ties in
    slack go to the lowest index, by the same rule as the production step.
    """
    a_prev = np.asarray(a_prev, dtype=float)
    x = np.asarray(frame_vectors, dtype=float)
    n = a_prev.shape[0]
    theta = (1.0 + eps) / (1.0 - eps)
    u_prev = theta * (n / eps + step - 1)
    u_next = theta * (n / eps + step)
    l_prev = -n / eps + step - 1
    l_next = -n / eps + step

    upper_gap = potential_from_eigenvalues(a_prev, u_prev, "upper") - potential_from_eigenvalues(
        a_prev, u_next, "upper"
    )
    lower_gap = potential_from_eigenvalues(a_prev, l_next, "lower") - potential_from_eigenvalues(
        a_prev, l_prev, "lower"
    )

    res_up = explicit_inverse(u_next * np.eye(n) - a_prev)
    res_lo = explicit_inverse(a_prev - l_next * np.eye(n))
    m = x.shape[0]
    upper_scores = np.empty(m)
    lower_scores = np.empty(m)
    for j in range(m):
        xj = x[j]
        upper_scores[j] = xj @ res_up @ xj + (xj @ res_up @ res_up @ xj) / upper_gap
        lower_scores[j] = (xj @ res_lo @ res_lo @ xj) / lower_gap - xj @ res_lo @ xj
    # Tie rule: the lowest index whose slack is within
    # 1e-12 * max(1, max|lower|, max|upper|) of the best slack.
    slack = lower_scores - upper_scores
    best = max(slack)
    tol = 1e-12 * max(1.0, max(abs(lower_scores)), max(abs(upper_scores)))
    chosen = next(j for j in range(m) if slack[j] >= best - tol)
    weight = 1.0 / upper_scores[chosen]
    return {
        "upper_gap": upper_gap,
        "lower_gap": lower_gap,
        "upper_scores": upper_scores,
        "lower_scores": lower_scores,
        "chosen": chosen,
        "weight": weight,
    }


def barrier_loop_oracle(frame, eps: float):
    """The whole barrier loop with a fresh ``np.linalg.eigh`` of the running sum at every step.

    ``frame`` is an isotropy-certified ``rforge.linalg.Frame``.  Each step
    takes both gaps as differences of four potential sums over the
    eigenvalues of the accumulated A, scores every vector in A's eigenbasis
    and picks by the production tie rule, then adds t x x^T to A and
    eigendecomposes the sum from scratch.  Dense frames, and edge frames
    whose weights span more than 1e6, are scored from their rows, Y = X U.
    Other edge frames are scored through the effective-resistance gather
    w_e (M[i,i] + M[j,j] - 2 M[i,j]), M = V diag(c) V^T, V = B U, which at
    such weights loses nothing to cancellation.  Returns the chosen indices
    and the step weights.
    """
    n = frame.ambient_dim
    theta = (1.0 + eps) / (1.0 - eps)
    inc = frame.incidence
    gather = inc is not None and np.max(inc.weights) <= 1e6 * np.min(inc.weights)
    rows = None if gather else frame.rows()
    a = np.zeros((n, n))
    lam, u = np.zeros(n), np.eye(n)
    choices, weights = [], []
    for step in range(math.ceil(n / eps**2)):
        u_prev, u_next = theta * (n / eps + step), theta * (n / eps + step + 1)
        l_prev, l_next = -n / eps + step, -n / eps + step + 1
        upper_gap = np.sum(1.0 / (u_prev - lam)) - np.sum(1.0 / (u_next - lam))
        lower_gap = np.sum(1.0 / (lam - l_next)) - np.sum(1.0 / (lam - l_prev))
        du, dl = 1.0 / (u_next - lam), 1.0 / (lam - l_next)
        c_up = du + du**2 / upper_gap
        c_lo = dl**2 / lower_gap - dl
        if gather:
            v = inc.basis @ u
            h, j = inc.heads, inc.tails
            upper, lower = [
                inc.weights * (mm[h, h] + mm[j, j] - 2.0 * mm[h, j]) for mm in ((v * c_up) @ v.T, (v * c_lo) @ v.T)
            ]
        else:
            y2 = (rows @ u) ** 2
            upper, lower = y2 @ c_up, y2 @ c_lo
        slack = lower - upper
        tol = 1e-12 * max(1.0, np.max(np.abs(lower)), np.max(np.abs(upper)))
        chosen = int(np.flatnonzero(slack >= slack.max() - tol)[0])
        t = 1.0 / upper[chosen]
        x = frame.rows(chosen)
        a = a + t * np.outer(x, x)
        ascending, vectors = np.linalg.eigh(a)
        lam, u = ascending[::-1], vectors[:, ::-1]
        choices.append(chosen)
        weights.append(t)
    return choices, np.array(weights)


def ri_select_oracle(frame_vectors: np.ndarray, t: np.ndarray, eps: float):
    """Restricted-invertibility selection with an explicit resolvent per step.

    Runs the barrier loop on the running sum A of selected images, forming
    np.linalg.inv(A - b_i I) at every step and nothing factored.  Every
    quantity depends on the frame only through the images y_j = T x_j, since
    a whitened frame with conjugated operator T' has T' T'^T = Y Y^T; so the
    frame is never whitened here.  Exact ties in margin go to the lowest
    index, by the same rule as the production loop.  Returns the selection
    and one record per step with the keys of ``ri_select``'s history.
    """
    x = np.asarray(frame_vectors, dtype=float)
    images = np.asarray(t, dtype=float) @ x.T
    p, m = images.shape
    hs = float(np.sum(images**2))
    op = float(np.linalg.norm(images, 2) ** 2)
    k = math.floor(eps**2 * hs / op)

    def barrier(i):
        return (1.0 - eps) / m * (hs - (i / eps) * op)

    def potential(a, b):
        return float(np.trace(explicit_inverse(a - b * np.eye(p)) @ images @ images.T))

    a = np.zeros((p, p))
    pot = potential(a, barrier(0))
    selected, history = [], []
    for i in range(1, k + 1):
        b = barrier(i)
        res = explicit_inverse(a - b * np.eye(p))
        lin = np.array([images[:, j] @ res @ images[:, j] for j in range(m)])
        mu = pot - float(np.sum(lin))
        lhs = np.array([np.sum((images.T @ (res @ images[:, j])) ** 2) for j in range(m)])
        rhs = -mu * (1.0 + lin)
        margin = lhs - rhs
        best = int(np.argmin(margin))
        scale = max(abs(lhs[best]), abs(rhs[best]), 1.0)
        chosen = next(j for j in range(m) if margin[j] <= margin[best] + 1e-12 * scale)
        selected.append(chosen)
        a = a + np.outer(images[:, chosen], images[:, chosen])
        pot = potential(a, b)
        history.append(
            {"step": i, "barrier": b, "mu": mu, "chosen": chosen, "margin": float(margin[chosen]), "potential": pot}
        )
    return selected, history


def quadratic_ratio_range(vectors: np.ndarray, support, weights) -> tuple[float, float]:
    """Extremes of sum_i s_i <x_i, y>^2 / sum_i <x_i, y>^2 over y in the span of the rows x_i.

    With Q an orthonormal basis of the column space of X (scipy's ``orth``, keeping
    singular values above eps_mach relative), X y = Q z and the ratio is a Rayleigh
    quotient of Q^T diag(s) Q.
    """
    import scipy.linalg

    q = scipy.linalg.orth(np.asarray(vectors, dtype=float), rcond=np.finfo(float).eps)[list(support)]
    lam = np.linalg.eigvalsh((q * np.asarray(weights, dtype=float)[:, None]).T @ q)
    return float(lam[0]), float(lam[-1])


def whitening_lift(reduced: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The (n, r) lift L with vectors[i] == L @ reduced[i], by least squares on the whitened rows.

    It maps whitened vectors back to the caller's; its transpose carries a direction w in the
    span of the rows to whitened coordinates with the same quadratic form.
    """
    return np.linalg.lstsq(np.asarray(reduced, dtype=float), np.asarray(vectors, dtype=float), rcond=None)[0].T


def pairwise_l1_distances(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum(np.abs(pts[i] - pts[j]))
    return out


def cut_decompose_oracle(points: np.ndarray) -> list[tuple[frozenset[int], float]]:
    """Cut decomposition built one threshold at a time with sets and a dict.

    Every coordinate is cut between consecutive distinct values; equal
    subsets are merged by adding their gaps in visiting order, and the cuts
    are sorted by their sorted member lists.
    """
    pts = np.asarray(points, dtype=float)
    merged: dict[frozenset[int], float] = {}
    for col in range(pts.shape[1]):
        values = pts[:, col]
        levels = np.unique(values)
        for low, high in zip(levels[:-1], levels[1:]):
            subset = frozenset(np.flatnonzero(values > low).tolist())
            merged[subset] = merged.get(subset, 0.0) + float(high - low)
    return [(subset, weight) for subset, weight in sorted(merged.items(), key=lambda c: sorted(c[0]))]


def weighted_graph_loop_check(n, edges) -> list[tuple[int, int, float]]:
    """Edge-list validation one edge at a time: range, then repeat, then weight.

    Returns the canonical (int, int, float) edges or raises ValueError with
    the message for the first bad edge.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    seen, canon = set(), []
    for i, j, w in edges:
        i, j = int(i), int(j)
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) must satisfy 0 <= i < j < {n}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        if not 0 < w < math.inf:
            raise ValueError(f"edge ({i}, {j}) has nonpositive or non-finite weight {w}")
        seen.add((i, j))
        canon.append((i, j, float(w)))
    return canon


def components_union_find(n: int, edges) -> list[int]:
    """Lowest vertex of each vertex's connected component, by union-find over (i, j, w) edges."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return [find(v) for v in range(n)]


def laplacian(g) -> np.ndarray:
    """Degree matrix minus adjacency of a ``WeightedGraph``; rows sum to zero."""
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def adjacency(g) -> np.ndarray:
    """Symmetric weighted adjacency matrix of a ``WeightedGraph``."""
    adj = np.zeros((g.n, g.n))
    adj[g.heads, g.tails] = adj[g.tails, g.heads] = g.weights  # edges are distinct pairs
    return adj


def pencil_mpmath(g, h) -> tuple[float, float]:
    """Extreme quotients of the (L_H, L_G) pencil for a connected g, in 60-digit arithmetic.

    Grounds vertex 0 (L_G without row and column 0 is positive definite for a
    connected g, and the grounded pencil has the same eigenvalues as the
    pencil on L_G's range), factors the grounded L_G = C C^T by Cholesky and
    takes ``eigsy`` of C^-1 L_H C^-T.  No rforge whitening is involved.
    """
    import mpmath

    with mpmath.workdps(60):

        def grounded(graph):
            lap = mpmath.zeros(graph.n - 1)
            for i, j, w in graph.edges:
                for a, b, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
                    if a and b:
                        lap[a - 1, b - 1] += sign * mpmath.mpf(w)
            return lap

        c_inv = mpmath.inverse(mpmath.cholesky(grounded(g)))
        values = mpmath.eigsy(c_inv * grounded(h) * c_inv.T, eigvals_only=True)
        return float(min(values)), float(max(values))


def weight_form_elimination_oracle(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge whitening of a ``WeightedGraph``, one vertex at a time: (basis, order, pivots).

    The scalar form of ``isotropic_reduce``'s edge branch, in the same units
    (weights times the power of two that puts the largest in [0.5, 1)) and
    the same light-first order: each vertex's pivot is the sum of its current
    weights, its multipliers divide its column by the pivot, and the trailing
    matrix takes one rank-one update; the back substitution builds one row of
    M^-T per vertex.  ``order`` is the elimination order and ``pivots`` follow
    it; ``basis`` has a row per input vertex and a column per positive pivot.
    """
    n = g.n
    weights = np.ldexp(g.weights, -np.frexp(np.max(g.weights))[1])
    a = np.zeros((n, n))
    a[g.heads, g.tails] = a[g.tails, g.heads] = weights  # edges are distinct pairs
    order = np.argsort(a.sum(axis=1), kind="stable")
    a = a[np.ix_(order, order)]
    pivots = np.empty(n)
    for k in range(n):
        pivots[k] = d = a[k, k + 1 :].sum()
        if d > 0.0:
            a[k, k + 1 :] = a[k + 1 :, k] / d
            a[k + 1 :, k + 1 :] += np.outer(a[k + 1 :, k], a[k, k + 1 :])
    inverse = np.eye(n)
    for k in range(n - 2, -1, -1):
        inverse[k, k + 1 :] = a[k, k + 1 :] @ inverse[k + 1 :, k + 1 :]
    kept = pivots > 0.0
    return (inverse[:, kept] / np.sqrt(pivots[kept]))[np.argsort(order)], order, pivots


def power_energy_double_sum(n: int, edges, x, p: float) -> float:
    """Sum of w * |x_i - x_j|^p over ordered pairs, via the full matrix."""
    g = np.zeros((n, n))
    for i, j, w in edges:
        g[i, j] = w
        g[j, i] = w
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += g[i, j] * abs(x[i] - x[j]) ** p
    return total


def p_energy(g, x, p: float) -> float:
    """Sum of w_ij |x_i - x_j|^p over ordered vertex pairs, through the library's energy kernel.

    Each undirected edge contributes twice, once per orientation.
    """
    from rforge.nonlinear import _energies

    return float(_energies(g, np.asarray(x, dtype=float)[None, :], p)[0])


def monotonicity_check(g, h, p: float, q: float, probes: np.ndarray, quality: float) -> dict:
    """Check that a certified p-sparsifier also behaves at exponents q <= p.

    ``quality`` must be a certified upper bound on h's p-quality (from a
    spectral certificate at p = 2, or by construction).  The probe lower
    bound at exponent q must then stay below it; a violation raises
    CertificationError, since it would contradict the monotone transfer of
    sparsifier quality to smaller exponents.
    """
    from rforge.errors import CertificationError
    from rforge.nonlinear import quality_lower_bound

    if q > p:
        raise ValueError(f"monotone transfer needs q <= p, got q={q} > p={p}")
    bound = quality_lower_bound(g, h, q, probes)
    if bound > quality + 1e-8:
        raise CertificationError(
            f"quality lower bound {bound:.12g} at exponent {q} exceeds the certified "
            f"p-quality {quality:.12g}"
        )
    return {
        "p": p,
        "q": q,
        "certified_p_quality": quality,
        "q_quality_lower_bound": bound,
        "margin": quality - bound,
    }


def lp_norm(x: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** p) ** (1.0 / p))


def random_john_decomposition(n: int, pairs: int, rng: np.random.Generator):
    """Contact points and weights satisfying both identity conditions.

    Draws ``pairs`` random unit vectors, mirrors them, and solves a
    nonnegative least-squares problem for weights making the outer products
    sum to the identity; the mirrored pairs give an exactly zero center of
    mass.  Retries with fresh vectors until the identity residual is tiny.
    """
    from scipy.optimize import nnls

    target = np.eye(n).reshape(-1) / 2.0
    for _ in range(50):
        base = rng.standard_normal((pairs, n))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        cols = np.stack([np.outer(v, v).reshape(-1) for v in base], axis=1)
        coeffs, residual = nnls(cols, target)
        if residual < 1e-10 and np.count_nonzero(coeffs) >= n:
            keep = coeffs > 0
            pts = np.vstack([base[keep], -base[keep]])
            wts = np.concatenate([coeffs[keep], coeffs[keep]])
            return pts, wts
    raise RuntimeError("failed to generate a John decomposition; widen the search")


def binomial(a: int, b: int) -> int:
    return math.comb(a, b)


def read_weights(path) -> dict[int, float]:
    """Index -> weight map of a file written by ``formats.write_weights``; ParseError on a bad line."""
    out: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if len(fields) != 2:
                raise ParseError(path, number, f"expected 'index<TAB>weight', got {text!r}")
            try:
                idx, w = int(fields[0]), float(fields[1])
            except ValueError:
                raise ParseError(path, number, f"could not parse weight line {fields!r}") from None
            if idx in out:
                raise ParseError(path, number, f"duplicate index {idx}")
            out[idx] = w
    return out
