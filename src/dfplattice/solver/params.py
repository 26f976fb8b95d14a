"""Scalar model parameters of the evolution equations."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

__all__ = ["ModelParams"]


@dataclass(frozen=True)
class ModelParams:
    """Finite drift mu, diffusion sigma2 >= 0, Hurst exponent in (0,1).

    The Klein-Gordon damping p is an argument of ``klein_gordon_evolve``,
    not a model parameter; the Mellin-Barnes kernel routines additionally
    require alpha + 1/2 <= hurst < 1 and enforce it at the call site.
    """

    mu: float
    sigma2: float
    hurst: float

    def __post_init__(self):
        if not -inf < self.mu < inf:
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 <= self.sigma2 < inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")
