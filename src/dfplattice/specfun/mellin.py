"""Numerical Mellin transform, inversion, multiplicative convolution.

M{f}(s) = int_0^inf f(t) t^{s-1} dt is computed in the log variable
t = e^x on symmetric windows [-X, X] grown until the tail increments fall
below 1e-12 of the running value; increments that keep growing instead mark
s as outside the fundamental strip and raise, as does a window that stops
growing before the increments are small.  Multiplicative convolution runs on
the same window driver, whose every piece is one scipy ``quad`` call with
``complex_func=True``.  Inversion sums the contour Re s = c with ``_contour``,
the 12-point Gauss panels the Mellin-Barnes kernel reconstruction shares:
the panels of [0, T] and their mirror image, so the nodes come in exact
conjugate pairs and a real-analytic integrand may be summed on one half.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .gammafn import DomainError

__all__ = ["mellin_transform", "mellin_inverse", "mellin_convolve"]

_TAIL_RTOL = 1e-12
# the first window's half-width in the log variable, and how often it may double
_X0, _MAX_DOUBLINGS = 8.0, 6
_PANEL_WIDTH = 0.5  # Gauss panel width in tau
_PANEL_SLIVER = 1e-12  # a last panel narrower than this is dropped; T must exceed it


def _contour(c: float, T: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes c + i tau and weights (panels x 12) of Gauss panels on [-T, T]; c, T finite, T > 1e-12.

    The panels of [0, T] start at 0 and are mirrored onto [-T, 0], so the
    nodes are exactly conjugate-symmetric: ``omega[::-1, ::-1]`` is
    ``conj(omega)`` and the weights read the same backwards.  The upper half
    is the second half of the rows.
    """
    if not (np.isfinite(T) and T > _PANEL_SLIVER):
        raise ValueError(f"T must be finite and above {_PANEL_SLIVER}, got {T}")
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    lo = np.arange(0.0, T - _PANEL_SLIVER, _PANEL_WIDTH)  # panel starts on [0, T]
    half = 0.5 * (np.minimum(lo + _PANEL_WIDTH, T) - lo)[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    tau, w = lo[:, None] + half * (nodes + 1.0), half * weights
    return c + 1j * np.vstack((-tau[::-1, ::-1], tau)), np.vstack((w[::-1, ::-1], w))


def _log_window_quad(g: Callable[[float], complex], where: str) -> complex:
    """int_{-inf}^{inf} g(x) dx on symmetric windows [-X, X] doubled from _X0."""
    from scipy.integrate import quad

    def piece(a: float, b: float) -> complex:
        return quad(g, a, b, limit=400, complex_func=True)[0]

    X = _X0
    total = piece(-X, X)
    prev_inc = None
    for _ in range(_MAX_DOUBLINGS):
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


def mellin_transform(f: Callable[[float], float], s: complex) -> complex:
    """M{f}(s) with adaptive symmetric truncation in the log variable."""
    s = complex(s)
    return _log_window_quad(lambda x: f(np.exp(x)) * np.exp(s * x), f"s = {s}")


def mellin_inverse(F: Callable[[np.ndarray], np.ndarray], t: float, c: float, T: float = 60.0) -> complex:
    """Truncated inversion (1/2 pi) int_{-T}^{T} F(c + i tau) t^{-c-i tau} d tau, F called on all nodes at once."""
    if t <= 0:
        raise DomainError("inversion point t must be positive")
    omega, weights = _contour(c, T)
    return complex(np.sum(weights * F(omega) * t ** (-omega))) / (2.0 * np.pi)


def mellin_convolve(f: Callable[[float], float], g: Callable[[float], float], t: float) -> float:
    """(f *_M g)(t) = int_0^inf f(t/p) g(p) dp/p, in the log variable."""
    if t <= 0:
        raise DomainError("convolution point t must be positive")
    return float(_log_window_quad(lambda w: f(t * np.exp(-w)) * g(np.exp(w)), f"t = {t}").real)
