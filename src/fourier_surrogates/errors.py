"""Exceptions shared across the toolkit."""

from __future__ import annotations

__all__ = ["CapExceeded", "DomainTooSmall", "InputFormatError", "InsufficientSpectrum"]


class CapExceeded(Exception):
    """A frequency lattice or sampling grid is too large to materialize.

    Carries the offending size and, when raised from the exact route, that
    circuit's ``ResourceEstimate`` (``estimate`` attribute, else ``None``),
    whose ``exact_route_bytes`` the message names.
    """

    def __init__(self, size: int, cap: int, estimate=None):
        self.size = int(size)
        self.cap = int(cap)
        self.estimate = estimate
        msg = f"lattice/grid size {self.size} exceeds cap {self.cap}"
        if estimate is not None:
            msg += f" (exact route ~{estimate.exact_route_bytes} bytes)"
        super().__init__(msg)


class InputFormatError(Exception):
    """An input file could not be parsed (bad header, non-numeric cell, ...)."""


class InsufficientSpectrum(Exception):
    """More distinct frequency vectors were requested than the lattice holds."""

    def __init__(self, requested: int, available: int):
        self.requested = int(requested)
        self.available = int(available)
        super().__init__(
            f"requested {requested} distinct canonical frequencies, "
            f"lattice only holds {available}"
        )


class DomainTooSmall(Exception):
    """The error target is larger than sigma_p * ell, so the feature-count
    bound does not apply."""

    def __init__(self, epsilon: float, sigma_p_ell: float):
        self.epsilon = float(epsilon)
        self.sigma_p_ell = float(sigma_p_ell)
        super().__init__(
            f"epsilon={epsilon} exceeds sigma_p*ell={sigma_p_ell}; "
            "the feature-count bound requires epsilon <= sigma_p*ell"
        )
