"""Exception types shared across the toolkit."""

from __future__ import annotations


class RforgeError(Exception):
    """Base class for all toolkit-specific failures."""


class EigenConvergenceError(RforgeError):
    """The symmetric eigensolver failed to converge or to reproduce its input."""

    def __init__(self, order: int, off_diagonal_residual: float, detail: str = ""):
        self.order = order
        self.off_diagonal_residual = off_diagonal_residual
        msg = (
            f"eigendecomposition failed for matrix of order {order} "
            f"(off-diagonal residual {off_diagonal_residual:.3e})"
        )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ZeroFrameError(RforgeError, ValueError):
    """A frame has no positive-energy direction; bad input, so also a ValueError."""


class BarrierInvariantError(RforgeError):
    """A barrier-iteration invariant failed; signals numerical breakdown."""


class SelectionInvariantError(RforgeError):
    """A column-selection invariant failed; signals numerical breakdown."""


class CertificationError(RforgeError):
    """An output failed its own quality certificate."""
