"""Gamma-function front end used across the special-function stack, the
package's domain errors, and its one adaptive-quadrature wrapper.

Thin wrappers over scipy's complex Gamma with the pole behaviour this
package relies on: ``gamma`` raises at the poles, ``recip_gamma`` is entire
and returns exact zeros there (series over reciprocal Gammas then drop pole
terms automatically).  Every ``scipy.integrate.cubature`` pass in the
package runs through :func:`_cubature`, which returns an estimate only if
the pass converged to it.  Its rule is scipy's GK21 with one integrand call
per region, on the Kronrod and Gauss nodes together, where scipy's own
``"gk21"`` makes two; estimates, errors and subdivisions keep scipy's bits.
A non-finite argument raises DomainError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["DomainError", "QuadratureError", "gamma", "recip_gamma", "log_gamma"]


class DomainError(ValueError):
    """A request outside the mathematical domain of an operation."""


class QuadratureError(DomainError):
    """An adaptive quadrature pass that did not reach its tolerance."""


@lru_cache(maxsize=1)
def _gk21_tables():
    """Nodes (31 x 1) of the 21-point Kronrod rule then its 10 Gauss nodes, the Kronrod
    weights, and the error weights (Kronrod, minus Gauss), all from scipy's own ``"gk21"`` rule."""
    from scipy.integrate._rules import GaussKronrodQuadrature

    kronrod = GaussKronrodQuadrature(21)
    (kx, kw), (gx, gw) = kronrod.nodes_and_weights, kronrod.lower_nodes_and_weights
    nodes = np.concatenate((kx, gx)).astype(float)[:, None]
    return nodes, np.asarray(kw, dtype=float), np.concatenate((kw, -gw)).astype(float)


class _GK21:
    """scipy's one-dimensional ``"gk21"`` rule with one integrand call per region.

    ``cubature`` asks each region for ``estimate`` and then ``estimate_error``;
    the first evaluates f on the Kronrod and Gauss nodes together and keeps
    the error for the second.  Both sums use scipy's arithmetic, so estimates,
    errors and subdivisions keep their bits.  One object per pass.  A rule
    object is not public scipy API; the test of these bits against
    ``rule="gk21"`` guards the dependency.
    """

    def __init__(self):
        self._region = self._error = None

    def _sums(self, f, a, b, args):
        nodes, kw, ew = _gk21_tables()
        lengths = b - a
        fx = f((nodes + 1) * (lengths * 0.5) + a, *args)
        scale = np.prod(lengths, dtype=a.dtype) / 2
        shape = (-1,) + (1,) * (fx.ndim - 1)
        est = np.sum((kw * scale).reshape(shape) * fx[: kw.size], axis=0, dtype=a.dtype)
        return est, np.abs(np.sum((ew * scale).reshape(shape) * fx, axis=0, dtype=a.dtype))

    def estimate(self, f, a, b, args=()):
        est, self._error = self._sums(f, a, b, args)
        self._region = (a, b)
        return est

    def estimate_error(self, f, a, b, args=()):
        if self._region is not None and all(map(np.array_equal, self._region, (a, b))):
            return self._error
        return self._sums(f, a, b, args)[1]


def _cubature(f, a: float, b: float, what: str, **options) -> np.ndarray:
    """One GK21 ``cubature`` pass over [a, b], one call of f per region; raises
    QuadratureError unless it converged to an estimate larger than its error."""
    from scipy.integrate import cubature

    res = cubature(f, [a], [b], rule=_GK21(), **options)
    err, size = float(np.max(res.error)), float(np.max(np.abs(res.estimate)))
    if res.status != "converged":
        raise QuadratureError(
            f"{what} cubature stopped after {res.subdivisions} subdivisions "
            f"at error {err:.3e} (atol {res.atol:.3e}, rtol {res.rtol:.3e})"
        )
    if 0.0 < err >= size:  # the nodes missed the integrand: no digit of the estimate is known
        raise QuadratureError(f"{what} cubature error {err:.3e} is not below its largest |estimate| {size:.3e}")
    return res.estimate


def _is_nonpositive_integer(s):
    return (s.imag == 0.0) & (s.real <= 0.0) & (s.real == np.floor(s.real))


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` itself; a NaN or infinite entry raises DomainError."""
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} must be finite")
    return x


def _as_result(out):
    """A complex for 0-d input, the array otherwise."""
    return complex(out) if out.ndim == 0 else out


def gamma(s):
    """Gamma(s) for a finite complex s or an array of them; poles at nonpositive integers raise."""
    s = _require_finite(np.asarray(s, dtype=complex), "gamma argument s")
    pole = _is_nonpositive_integer(s)
    if pole.any():
        raise DomainError(f"gamma pole at s = {complex(s[pole][0])}")
    from scipy.special import gamma as sp_gamma

    return _as_result(sp_gamma(s))


def recip_gamma(s):
    """1/Gamma(s) for a finite complex s or an array of them, entire; exact zeros at the poles of Gamma."""
    from scipy.special import rgamma

    s = _require_finite(np.asarray(s, dtype=complex), "recip_gamma argument s")
    return _as_result(np.where(_is_nonpositive_integer(s), 0.0, rgamma(s)))


def log_gamma(s) -> np.ndarray:
    """Principal-branch log Gamma, vectorized over complex arrays."""
    from scipy.special import loggamma

    return loggamma(s)
