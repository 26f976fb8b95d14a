"""Unnormalized Hartman-Watson density and its Bessel Laplace identity.

theta_r(p) = r (2 pi^3 p)^{-1/2} int_0^inf exp((pi^2 - y^2)/(2p))
             e^{-r cosh y} sinh y sin(pi y / p) dy

The integrand oscillates with half-period p and carries the factor
exp(pi^2/(2p)), so in double precision the alternating sum cancels down by
~4.3/p decimal digits; below p ~ 0.17 the true value (itself decaying like
exp(-c log^2(1/p)/p)) drowns in roundoff.  The evaluation is one float64
(p x panel x node) product over 20-point Gauss panels between the sine zeros
y = m p, summed in panel order: an array of p gives per-element bits.  A
request outside the tame range r in [0.5, 5], p in (0, 10], or below the
cancellation floor, raises DomainError instead of returning noise.

The Laplace identity int_0^inf e^{-k^2 p / 2} theta_r(p) dp = I_k(r) is the
sole accuracy contract; :func:`bessel_from_hartman_watson` reconstructs the
left side for an array of orders in one cubature pass from the floor up,
one theta call per region.
"""

from __future__ import annotations

import numpy as np

from .gammafn import DomainError, _cubature, _require_finite

__all__ = ["hartman_watson_theta", "bessel_from_hartman_watson"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
TAME_R = (0.5, 5.0)
TAME_P_MAX = 10.0
# the cancellation noise theta may carry at the floor; the share of I_k(r) the
# left-out head [0, floor] may hold; the Laplace pass's relative tolerance
_FLOOR_NOISE, _HEAD_SHARE, _LAPLACE_RTOL = 1e-5, 1e-3, 1e-6


def _cancellation_floor(r: float) -> float:
    """Smallest p at which float64 cancellation noise in theta_r stays under 1e-5.

    The peak integrand magnitude is ~ 0.08 r e^{-r} e^{pi^2/(2p)}, so noise
    ~ that times machine epsilon; solving for p gives the floor.
    """
    amp = 0.0766 * r * np.exp(-r) * 1e-16
    return float(np.pi**2 / (2.0 * np.log(_FLOOR_NOISE / amp)))


def hartman_watson_theta(r: float, p: float | np.ndarray) -> float | np.ndarray:
    """theta_r(p) in the tame range (a float, or an array of p's shape); elsewhere DomainError."""
    _require_finite(np.float64(r), "hartman_watson_theta argument r")
    p = np.asarray(p, dtype=float)
    if r <= 0.0 or not np.all(p > 0.0):
        raise DomainError("hartman_watson_theta requires r > 0 and p > 0")
    floor = _cancellation_floor(r)
    outside = ~((floor <= p) & (p <= TAME_P_MAX))
    if not TAME_R[0] <= r <= TAME_R[1] or outside.any():
        raise DomainError(
            f"theta_r(p) at r={r}, p={p.flat[np.argmax(outside)]} is outside its guaranteed-accuracy range "
            f"r in [{TAME_R[0]}, {TAME_R[1]}], p in [{floor:.4g}, {TAME_P_MAX}] (a floor that depends on r)"
        )
    out = _theta(r, p)
    return float(out) if out.ndim == 0 else out


def _theta(r: float, p: np.ndarray) -> np.ndarray:
    """theta_r at every element of p > 0 by Gauss panels between the sine zeros, for any r > 0."""
    q = p.reshape(-1, 1)
    # support cutoff: both e^{-r cosh y} and the Gaussian kill the tail
    ymax = np.minimum(np.arccosh(80.0 / r + 1.0), np.sqrt(2.0 * q * 80.0 + np.pi**2))
    m = np.arange(int(np.max(ymax / q, initial=0.0)) + 2)
    # panels [m p, (m+1) p] cut at ymax: those past it have width 0 and add an exact 0
    a, b = np.minimum(m * q, ymax), np.minimum((m + 1) * q, ymax)
    half, mid, q = (0.5 * (b - a))[..., None], (0.5 * (a + b))[..., None], q[..., None]
    y = half * _GL_NODES + mid
    f = np.exp((np.pi**2 - y**2) / (2.0 * q) - r * np.cosh(y)) * np.sinh(y) * np.sin(np.pi * y / q)
    panels = np.sum(half * _GL_WEIGHTS * f, axis=-1)
    # np.cumsum adds the panels one after another, as a running total would
    return r / np.sqrt(2.0 * np.pi**3 * p) * np.cumsum(panels, axis=-1)[:, -1].reshape(p.shape)


def bessel_from_hartman_watson(k: int | np.ndarray, r: float) -> float | np.ndarray:
    """I_k(r) for an order or an array of orders (result of its shape) from the Laplace identity.

    One cubature pass over w in (0, 1] with p = floor / w^2 covers [floor, inf), smooth as w -> 0
    since theta_r(p) ~ p^{-3/2}.  DomainError for r outside TAME_R or where the left-out head,
    floor |theta_r(floor)| e^{-k^2 floor / 2}, may exceed 1e-3 of the value; QuadratureError where
    the pass does not converge (high orders, whose weight sits in theta's noise at the floor).
    """
    if not TAME_R[0] <= r <= TAME_R[1]:
        raise DomainError(f"I_k(r) from Hartman-Watson requires r in [{TAME_R[0]}, {TAME_R[1]}], got r={r}")
    order = np.asarray(k, dtype=float)
    k2 = 0.5 * order.reshape(-1) ** 2
    floor = _cancellation_floor(r)

    def integrand(x: np.ndarray) -> np.ndarray:
        w = x[:, 0]
        p = floor / w**2
        return np.exp(-p[:, None] * k2) * (_theta(r, p) * (2.0 * floor / w**3))[:, None]

    value = _cubature(integrand, 0.0, 1.0, f"Hartman-Watson r={r}", rtol=_LAPLACE_RTOL, max_subdivisions=50)
    share = floor * abs(float(_theta(r, np.array(floor)))) * np.exp(-k2 * floor) / np.abs(value)
    if np.any(share > _HEAD_SHARE):
        i = int(np.argmax(share))
        raise DomainError(f"I_k(r) at k={order.flat[i]:g}, r={r}: the head [0, {floor:.4g}] left out of the "
                          f"Laplace integral may hold {share[i]:.2g} of the value, above {_HEAD_SHARE:g}")
    out = value.reshape(order.shape)
    return float(out) if out.ndim == 0 else out
