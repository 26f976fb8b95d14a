"""One-sided stable (Levy) density with Laplace transform e^{-s^nu}.

Two complementary evaluations:

* Wright series  L_nu(u) = (1/u) * 0Psi1[(0, -nu); -u^{-nu}]
            = -(1/pi) sum_{k>=1} (-1)^k Gamma(nu k + 1)/k! sin(pi nu k) u^{-nu k - 1},
  used where its argument is small (u^{-nu} <= 2); reciprocal-Gamma pole
  terms vanish identically and no cancellation builds up in that range.

* steepest-descent (Zolotarev) integral, used everywhere else:

    L_nu(u) = nu/(1-nu) * (1/pi) * u^{-1/(1-nu)}
              * int_0^pi U(phi) exp(-u^{-nu/(1-nu)} U(phi)) dphi,
    U(phi)  = sin(nu phi)^{nu/(1-nu)} sin((1-nu) phi) / sin(phi)^{1/(1-nu)},

  an all-positive integrand (no oscillation, graceful underflow to 0 as
  u -> 0) evaluated on a fixed composite Gauss grid precomputed per nu, so
  a density call costs one vectorized exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gammafn import DomainError
from .wright import FoxWrightParams, fox_wright_eval

__all__ = ["levy_pdf", "levy_pdf_eval", "LevyValue", "levy_laplace"]

# series only while |lam| = u^{-nu} stays this small; beyond it the integral
# is both better conditioned and cheaper
_SERIES_ARG_MAX = 2.0


@dataclass(frozen=True)
class LevyValue:
    value: float
    method: str  # "series" | "integral"


def _check_index(nu: float) -> float:
    if not 0.0 < nu < 1.0:
        raise DomainError("Levy index nu must lie in (0, 1)")
    return float(nu)


def _series(nu: float, u: float) -> float:
    params = FoxWrightParams((), ((0.0, -nu),))
    res = fox_wright_eval(params, -(u**-nu))
    if res.status != "converged":
        raise DomainError(f"Levy series failed to converge at nu={nu}, u={u}")
    return float(res.value.real) / u


@lru_cache(maxsize=32)
def _zolotarev_grid(nu: float):
    """Fixed composite Gauss nodes phi_i with log U(phi_i), shared per nu."""
    r = nu / (1.0 - nu)
    # coarse interior panels plus geometric refinement into both endpoints
    edges = [0.0]
    edges += list(np.linspace(0.02, 2.8, 9))
    delta = np.pi - 2.8
    while delta > 1e-5:
        delta *= 0.32
        edges.append(np.pi - delta)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    phi = []
    w = []
    for a, b in zip(edges[:-1], edges[1:]):
        phi.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
        w.append(0.5 * (b - a) * weights)
    phi = np.concatenate(phi)
    w = np.concatenate(w)
    logU = (
        r * np.log(np.sin(nu * phi))
        + np.log(np.sin((1.0 - nu) * phi))
        - np.log(np.sin(phi)) / (1.0 - nu)
    )
    u_floor = float(np.exp(logU.min()))
    return phi, w, logU, u_floor


def _zolotarev(nu: float, u: float) -> float:
    r = nu / (1.0 - nu)
    _, w, logU, u_floor = _zolotarev_grid(nu)
    a = u**-r
    if a * u_floor > 745.0:  # entire integrand underflows
        return 0.0
    with np.errstate(over="ignore", under="ignore"):
        vals = np.exp(logU - a * np.exp(logU))
    integral = float(np.sum(w * vals))
    return r / np.pi * u ** (-1.0 / (1.0 - nu)) * integral


def levy_pdf_eval(nu: float, u: float) -> LevyValue:
    """Density value plus which route produced it."""
    nu = _check_index(nu)
    if u <= 0.0:
        raise DomainError("Levy density argument u must be positive")
    if u**-nu <= _SERIES_ARG_MAX:
        return LevyValue(_series(nu, u), "series")
    return LevyValue(_zolotarev(nu, u), "integral")


def levy_pdf(nu: float, u: float) -> float:
    """One-sided stable density L_nu(u)."""
    return levy_pdf_eval(nu, u).value


def levy_laplace(nu: float, s: float | np.ndarray) -> float | np.ndarray:
    """int_0^inf e^{-s u} L_nu(u) du by quadrature of the density.

    ``s`` may be a scalar (float result) or an array (array of its shape);
    all entries share one vector-valued quadrature, cut off where the
    smallest positive s leaves mass below 1e-10 of the result scale.  The
    identity value is e^{-s^nu}; this routine never uses it -- it is the
    independent side of that check.  Entries s = 0 return the exact total
    mass 1.
    """
    nu = _check_index(nu)
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0.0):
        raise DomainError("Laplace variable s must be >= 0")
    out = np.ones(s_arr.shape)
    pos = s_arr > 0.0
    if np.any(pos):
        from scipy.integrate import quad_vec

        sp = s_arr[pos]
        Q = float(np.max((24.0 + sp**nu) / sp))
        val, err, info = quad_vec(
            lambda u: np.exp(-sp * u) * levy_pdf(nu, u), 0.0, Q,
            epsabs=1e-12, epsrel=1e-10, norm="max", limit=800, full_output=True,
        )
        if info.status != 0:
            raise DomainError(f"Levy Laplace quadrature stopped at error {err:.3e}: {info.message}")
        out[pos] = val
    return float(out) if out.ndim == 0 else out
