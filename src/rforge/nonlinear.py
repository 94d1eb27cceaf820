"""Power-p energy forms and probe-based sparsifier quality diagnostics.

For a weighted graph G and scalar vertex values x, the p-energy is the
double sum of w_ij |x_i - x_j|^p over ordered pairs.  A reweighted subgraph
H is a p-sparsifier of quality C when, after an optimal global rescaling,
its p-energy sandwiches G's within a factor C for every x.  The quality
cannot be computed exactly for general p, but evaluating the energy ratio
over a probe set yields a certified lower bound that is invariant under
rescaling H.

``cycle_counterexample`` builds the weighted cycle whose lone light edge
makes it a (1+eps)-quality p-sparsifier pair while its quality at any
exponent q > p grows like eps * (n-1)^(q-p); it separates the exponents.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph, _missing_pair
from .linalg import _one_blas_thread

DEFAULT_PROBE_SEED = 0x5EED
DEFAULT_PROBE_COUNT = 500
# Probe rows per block of ``_energies``.
_PROBE_BLOCK = 64


def nonzero_energy_probes(candidates, g: WeightedGraph, p: float) -> np.ndarray:
    """Rows of ``candidates`` with positive p-energy on g, as a new (k, n) array.

    Configurations whose energy vanishes on the graph under test would make
    the quality ratio undefined, so they are dropped.
    """
    x = np.asarray(candidates, dtype=float)
    probes = _nonzero_energies(x, g, p)[0]
    return probes.copy() if probes is x else probes


def _nonzero_energies(candidates, g: WeightedGraph, p: float) -> tuple[np.ndarray, np.ndarray]:
    """``nonzero_energy_probes``' rows and their p-energies on g; the candidates themselves when none is dropped."""
    x = np.asarray(candidates, dtype=float)
    energies = _energies(g, x, p)
    kept = energies > 0.0
    if not kept.any():
        raise ValueError("every candidate probe has zero energy on the reference graph")
    if kept.all():
        return x, energies
    return x[kept], energies[kept]


def standard_probes(n: int, *, seed: int = DEFAULT_PROBE_SEED) -> np.ndarray:
    """Reproducible standard-normal probe configurations, one per row."""
    return _with_standard_probes(np.empty((0, n)), seed=seed)


def _with_standard_probes(witnesses: np.ndarray, *, seed: int) -> np.ndarray:
    """``np.vstack([witnesses, standard_probes(n, seed=seed)])``, the probes drawn straight into it."""
    k, n = witnesses.shape
    candidates = np.empty((k + DEFAULT_PROBE_COUNT, n))
    candidates[:k] = witnesses
    np.random.default_rng(seed).standard_normal(out=candidates[k:])
    return candidates


@_one_blas_thread
def _energies(g: WeightedGraph, probes, p: float) -> np.ndarray:
    """p-energies of every row of ``probes`` on g; ValueError unless all are finite.

    Rows are taken ``_PROBE_BLOCK`` at a time, one matrix-vector product per
    block, so the working memory is O(_PROBE_BLOCK * m) whatever the number
    of probes.
    """
    if not p > 0:
        raise ValueError(f"exponent must be positive, got {p}")
    x = np.asarray(probes, dtype=float)
    if x.ndim != 2 or x.shape[1] != g.n:
        raise ValueError(f"probes must assign one value per vertex, got shape {x.shape}")
    energies = np.empty(len(x))
    with np.errstate(over="ignore"):
        for s in range(0, len(x), _PROBE_BLOCK):
            block = x[s : s + _PROBE_BLOCK]
            energies[s : s + len(block)] = 2.0 * (np.abs(block[:, g.heads] - block[:, g.tails]) ** p) @ g.weights
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        raise ValueError(f"{p:g}-energy of probe {bad[0]} is {energies[bad[0]]}, not a finite float64")
    return energies


def energy_ratio_range(
    g: WeightedGraph, h: WeightedGraph, p: float, probes: np.ndarray
) -> tuple[float, float]:
    """Extreme values of R(x) = E_h(x)/E_g(x) over the probes (rows).

    The smallest ratio is the optimal global scaling exhibiting the quality
    bound; the spread max/min is the quality lower bound itself.
    """
    witness = _missing_pair(g, h)
    if witness is not None:
        raise ValueError(f"candidate edge {witness} missing from the reference support")
    ratios = _energies(h, probes, p) / _energies(g, probes, p)
    return float(ratios.min()), float(ratios.max())


def quality_lower_bound(g: WeightedGraph, h: WeightedGraph, p: float, probes: np.ndarray) -> float:
    """Certified lower bound on h's quality as a p-sparsifier of g.

    Evaluates the energy ratio R(x) = E_h(x)/E_g(x) over the probes and
    returns max R / min R.  The optimal global scaling cancels in this
    ratio of ratios, so the bound is invariant under h -> lambda * h; the
    true quality quantifies over all configurations and can only be larger.
    """
    low, high = energy_ratio_range(g, h, p, probes)
    if low <= 0.0:
        return float("inf")
    return high / low


def cycle_counterexample(n: int, p: float, eps: float) -> tuple[WeightedGraph, WeightedGraph, np.ndarray]:
    """Weighted n-cycle pair separating p-quality from q-quality, q > p.

    One cycle edge has weight 1; the remaining path edges carry weight
    (n-1)^(p-1)/eps.  Dropping the light edge yields a p-sparsifier of
    quality at most 1+eps, yet evaluating at the returned witnesses (the
    ramp x_i = i and the single-vertex indicator) shows quality at least
    eps * (n-1)^(q-p) at any exponent q > p.  The witnesses are the rows
    of a (2, n) array; both have positive energy on g.  A path weight that
    overflows float64 raises ValueError.
    """
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    if not p > 0 or not eps > 0:
        raise ValueError("exponent and eps must be positive")
    try:
        heavy = (n - 1) ** (p - 1) / eps
    except OverflowError:
        heavy = float("inf")
    if not np.isfinite(heavy):
        raise ValueError(f"path weight (n-1)^(p-1)/eps overflows float64 at n={n}, p={p:g}, eps={eps:g}")
    path = [(i, i + 1, heavy) for i in range(n - 1)]
    g = WeightedGraph(n, path + [(0, n - 1, 1.0)])
    h = WeightedGraph(n, path)
    witnesses = np.zeros((2, n))
    witnesses[0] = np.arange(n)
    witnesses[1, 1] = 1.0
    return g, h, witnesses
