"""Gamma-function front end used across the special-function stack.

Thin wrappers over scipy's complex Gamma with the pole behaviour this
package relies on: ``gamma`` raises at the poles, ``recip_gamma`` is entire
and returns exact zeros there (series over reciprocal Gammas then drop pole
terms automatically).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "gamma", "recip_gamma", "log_gamma"]


class DomainError(ValueError):
    """A request outside the mathematical domain of an operation."""


def _is_nonpositive_integer(s):
    return (s.imag == 0.0) & (s.real <= 0.0) & (s.real == np.floor(s.real))


def _as_result(out):
    """A complex for 0-d input, the array otherwise."""
    return complex(out) if out.ndim == 0 else out


def gamma(s):
    """Gamma(s) for a complex s or an array of them; poles at nonpositive integers raise."""
    s = np.asarray(s, dtype=complex)
    pole = _is_nonpositive_integer(s)
    if pole.any():
        raise DomainError(f"gamma pole at s = {complex(s[pole][0])}")
    from scipy.special import gamma as sp_gamma

    return _as_result(sp_gamma(s))


def recip_gamma(s):
    """1/Gamma(s) for a complex s or an array of them, entire; exact zeros at the poles of Gamma."""
    from scipy.special import rgamma

    s = np.asarray(s, dtype=complex)
    return _as_result(np.where(_is_nonpositive_integer(s), 0.0, rgamma(s)))


def log_gamma(s) -> np.ndarray:
    """Principal-branch log Gamma, vectorized over complex arrays."""
    from scipy.special import loggamma

    return loggamma(s)
