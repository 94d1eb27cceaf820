"""Deterministic spectral sparsification toolkit.

Core surface:

- :mod:`rforge.linalg` -- dense symmetric kernels (validated
  eigendecomposition, frame whitening) and the spectral ``Certificate``
  check every builder goes through.
- :mod:`rforge.bss` -- barrier-potential frame sparsification.
- :mod:`rforge.graphs` -- weighted graphs, graph sparsification and its
  spectral certificate.
- :mod:`rforge.restricted` -- well-conditioned column subset selection.
- :mod:`rforge.embed` -- approximate John decompositions, L1 point-set
  embeddings certified over every pair, even-exponent subspace embeddings.
- :mod:`rforge.nonlinear` -- power-p energy quality probes and the weighted
  cycle that separates exponents.
- :mod:`rforge.cli` -- batch command-line interface and file formats.
"""

from .bss import (
    BarrierState,
    SparseWeights,
    barrier_gaps,
    candidate_scores,
    initial_barrier_state,
    select_and_step,
    sparsify_frame,
    support_bound,
)
from .embed import (
    CutDecomposition,
    EmbeddedPoints,
    JohnDecomposition,
    approximate_john,
    barrier_eps_for_ratio,
    cut_decompose,
    embed_l1,
    embed_lp_even,
)
from .errors import (
    BarrierInvariantError,
    CertificationError,
    EigenConvergenceError,
    RforgeError,
    SelectionInvariantError,
    ZeroFrameError,
)
from .graphs import (
    QualityReport,
    WeightedGraph,
    edge_frame,
    sparsify_graph,
    verify_quality,
)
from .linalg import (
    Certificate,
    EigenDecomposition,
    Frame,
    Incidence,
    certify_spectrum,
    eigh,
    isotropic_reduce,
    symmetrize,
)
from .nonlinear import (
    cycle_counterexample,
    nonzero_energy_probes,
    quality_lower_bound,
    standard_probes,
)
from .restricted import RiSelection, ri_barrier, ri_select, selection_size

__version__ = "0.1.0"

__all__ = [
    "BarrierInvariantError",
    "BarrierState",
    "Certificate",
    "CertificationError",
    "CutDecomposition",
    "EigenConvergenceError",
    "EigenDecomposition",
    "EmbeddedPoints",
    "Frame",
    "Incidence",
    "JohnDecomposition",
    "QualityReport",
    "RforgeError",
    "RiSelection",
    "SelectionInvariantError",
    "SparseWeights",
    "WeightedGraph",
    "ZeroFrameError",
    "approximate_john",
    "barrier_eps_for_ratio",
    "barrier_gaps",
    "candidate_scores",
    "certify_spectrum",
    "cut_decompose",
    "cycle_counterexample",
    "edge_frame",
    "eigh",
    "embed_l1",
    "embed_lp_even",
    "initial_barrier_state",
    "isotropic_reduce",
    "nonzero_energy_probes",
    "quality_lower_bound",
    "ri_barrier",
    "ri_select",
    "select_and_step",
    "selection_size",
    "sparsify_frame",
    "sparsify_graph",
    "standard_probes",
    "support_bound",
    "symmetrize",
    "verify_quality",
]
