"""Unnormalized Hartman-Watson density and its Bessel Laplace identity.

theta_r(p) = r (2 pi^3 p)^{-1/2} int_0^inf exp((pi^2 - y^2)/(2p))
             e^{-r cosh y} sinh y sin(pi y / p) dy

The integrand oscillates with half-period p and carries the factor
exp(pi^2/(2p)), so in double precision the alternating sum cancels down by
~4.3/p decimal digits; below p ~ 0.17 the true value (itself decaying like
exp(-c log^2(1/p)/p)) drowns in roundoff.  The evaluation splits at the sine
zeros y = m p and sums Gauss panels.  A request outside the tame range
r in [0.5, 5], p in (0, 10], or below the cancellation floor, raises
DomainError instead of returning noise.

The Laplace identity int_0^inf e^{-k^2 p / 2} theta_r(p) dp = I_k(r) is the
sole accuracy contract; :func:`bessel_from_hartman_watson` reconstructs the
left side by outer quadrature (with the noise floor as lower limit and a
1/p-substituted far tail).
"""

from __future__ import annotations

import numpy as np

from .gammafn import DomainError

__all__ = [
    "hartman_watson_theta",
    "cancellation_floor",
    "bessel_from_hartman_watson",
]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
TAME_R = (0.5, 5.0)
TAME_P_MAX = 10.0


def cancellation_floor(r: float, noise_target: float = 1e-5) -> float:
    """Smallest p at which float64 cancellation noise stays under the target.

    The peak integrand magnitude is ~ 0.08 r e^{-r} e^{pi^2/(2p)}, so noise
    ~ that times machine epsilon; solving for p gives the floor.
    """
    amp = 0.0766 * r * np.exp(-r) * 1e-16
    return float(np.pi**2 / (2.0 * np.log(noise_target / amp)))


def hartman_watson_theta(r: float, p: float) -> float:
    """theta_r(p) in the tame range; elsewhere DomainError."""
    if r <= 0.0 or p <= 0.0:
        raise DomainError("hartman_watson_theta requires r > 0 and p > 0")
    floor = cancellation_floor(r)
    if not (TAME_R[0] <= r <= TAME_R[1] and floor <= p <= TAME_P_MAX):
        raise DomainError(
            f"theta_r(p) at r={r}, p={p} is outside its guaranteed-accuracy range "
            f"r in [{TAME_R[0]}, {TAME_R[1]}], p in [{floor:.4g}, {TAME_P_MAX}] (a floor that depends on r)"
        )
    return _theta(r, p)


def _theta(r: float, p: float) -> float:
    """theta_r(p) by oscillatory quadrature split at the sine zeros, for any r, p > 0."""
    pref = r / np.sqrt(2.0 * np.pi**3 * p)
    # support cutoff: both e^{-r cosh y} and the Gaussian kill the tail
    ymax = min(np.arccosh(80.0 / r + 1.0), np.sqrt(2.0 * p * 80.0 + np.pi**2))
    total = 0.0
    m = 0
    while m * p < ymax:
        a, b = m * p, min((m + 1) * p, ymax)
        y = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_WEIGHTS
        f = (
            np.exp((np.pi**2 - y**2) / (2.0 * p) - r * np.cosh(y))
            * np.sinh(y)
            * np.sin(np.pi * y / p)
        )
        total += float(np.sum(w * f))
        m += 1
    return pref * total


def bessel_from_hartman_watson(k: int, r: float) -> float:
    """Reconstruct I_k(r) from the Laplace identity by double quadrature."""
    from scipy.integrate import quad

    if r <= 0.0:
        raise DomainError("order argument r must be positive")
    k2 = 0.5 * float(k) ** 2
    floor = cancellation_floor(r)
    split = 40.0
    head, _ = quad(
        lambda p: np.exp(-k2 * p) * _theta(r, p),
        floor,
        split,
        limit=600,
    )
    # far tail in v = 1/p: smooth algebraic integrand near v = 0
    tail, _ = quad(
        lambda v: np.exp(-k2 / v) * _theta(r, 1.0 / v) / v**2,
        1e-12,
        1.0 / split,
        limit=600,
    )
    return float(head + tail)
