"""Numerical Mellin transform, inversion, multiplicative convolution.

M{f}(s) = int_0^inf f(t) t^{s-1} dt is computed in the log variable
t = e^x on symmetric windows [-X, X] grown until the tail increments fall
below 1e-12 of the running value; increments that keep growing instead mark
s as outside the fundamental strip and raise, as does a window that stops
growing before the increments are small.  Multiplicative convolution runs on
the same window driver, and every complex integral is one scipy ``quad``
call with ``complex_func=True``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .gammafn import DomainError

__all__ = [
    "mellin_transform",
    "mellin_inverse",
    "mellin_convolve",
    "mellin_parseval_check",
]

_TAIL_RTOL = 1e-12


def _log_window_quad(
    g: Callable[[float], complex], where: str, x0: float, max_doublings: int, limit: int
) -> complex:
    """int_{-inf}^{inf} g(x) dx on symmetric windows [-X, X] doubled from x0."""

    def piece(a: float, b: float) -> complex:
        return quad(g, a, b, limit=limit, complex_func=True)[0]

    X = x0
    total = piece(-X, X)
    prev_inc = None
    for _ in range(max_doublings):
        inc = piece(X, 2.0 * X) + piece(-2.0 * X, -X)
        total += inc
        X *= 2.0
        if abs(inc) <= _TAIL_RTOL * max(abs(total), 1e-300):
            return total
        if prev_inc is not None and abs(inc) > 4.0 * abs(prev_inc) and abs(inc) > 1e-10:
            raise DomainError(f"Mellin integral diverges at {where} (outside the strip)")
        prev_inc = abs(inc)
    if prev_inc is not None and prev_inc > 1e-8 * max(abs(total), 1e-300):
        raise DomainError(f"Mellin integral not converged at {where}")
    return total


def mellin_transform(
    f: Callable[[float], float],
    s: complex,
    x0: float = 8.0,
    max_doublings: int = 6,
    limit: int = 400,
) -> complex:
    """M{f}(s) with adaptive symmetric truncation in the log variable."""
    s = complex(s)
    return _log_window_quad(
        lambda x: f(np.exp(x)) * np.exp(s * x), f"s = {s}", x0, max_doublings, limit
    )


def mellin_inverse(
    F: Callable[[complex], complex], t: float, c: float, T: float = 60.0, limit: int = 800
) -> complex:
    """Truncated inversion (1/2 pi) int_{-T}^{T} F(c + i tau) t^{-c-i tau} d tau."""
    if t <= 0:
        raise DomainError("inversion point t must be positive")

    def g(tau: float) -> complex:
        s = complex(c, tau)
        return F(s) * t ** (-s)

    return quad(g, -T, T, limit=limit, complex_func=True)[0] / (2.0 * np.pi)


def mellin_convolve(
    f: Callable[[float], float],
    g: Callable[[float], float],
    t: float,
    x0: float = 8.0,
    max_doublings: int = 6,
) -> float:
    """(f *_M g)(t) = int_0^inf f(t/p) g(p) dp/p, in the log variable."""
    if t <= 0:
        raise DomainError("convolution point t must be positive")
    total = _log_window_quad(
        lambda w: f(t * np.exp(-w)) * g(np.exp(w)), f"t = {t}", x0, max_doublings, 400
    )
    return float(total.real)


def mellin_parseval_check(
    f: Callable[[float], float],
    g: Callable[[float], float],
    omega: complex,
    c: float,
    T: float = 60.0,
    Mf: Optional[Callable[[complex], complex]] = None,
    Mg: Optional[Callable[[complex], complex]] = None,
):
    """Both sides of M{f g}(omega) = (1/2 pi i) int M{f}(omega - s) M{g}(s) ds.

    Closed-form transforms may be passed to keep the contour side a single
    quadrature; otherwise they are computed numerically (nested, slow).
    """
    Mf = Mf or (lambda s: mellin_transform(f, s))
    Mg = Mg or (lambda s: mellin_transform(g, s))
    lhs = mellin_transform(lambda t: f(t) * g(t), omega)

    def integrand(tau: float) -> complex:
        s = complex(c, tau)
        return Mf(omega - s) * Mg(s)

    rhs = quad(integrand, -T, T, limit=800, complex_func=True)[0] / (2.0 * np.pi)
    return lhs, rhs
