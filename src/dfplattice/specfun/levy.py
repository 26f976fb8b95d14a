"""One-sided stable (Levy) density with Laplace transform e^{-s^nu}.

The density takes a scalar u or an array, evaluated in one pass per route:

* Wright series  L_nu(u) = (1/u) * 0Psi1[(0, -nu); -u^{-nu}]
            = -(1/pi) sum_{k>=1} (-1)^k Gamma(nu k + 1)/k! sin(pi nu k) u^{-nu k - 1},
  used where u^{-nu} <= 2, as one Fox-Wright call over those elements;
  reciprocal-Gamma pole terms vanish identically.  It raises DomainError
  where its cancellation times the ``np.longdouble`` epsilon exceeds the
  1e-12 accuracy contract: at u^{-nu} = 2, from nu = 0.87 on.

* steepest-descent (Zolotarev) integral, used everywhere else:

    L_nu(u) = nu/(1-nu) * (1/pi) * u^{-1/(1-nu)}
              * int_0^pi U(phi) exp(-u^{-nu/(1-nu)} U(phi)) dphi,
    U(phi)  = sin(nu phi)^{nu/(1-nu)} sin((1-nu) phi) / sin(phi)^{1/(1-nu)},

  an all-positive integrand (no oscillation, graceful underflow to 0 as
  u -> 0) on a fixed composite Gauss grid precomputed per nu: one (u x grid)
  exponential and one product with the weights.

The series row and its m = 0 term are built once per nu, as the grid is.
The Laplace transform is one ``scipy.integrate.cubature`` pass (GK21, in v
with u = Q v^4) over all the nodes of a subdivision and all s at once, one
density call per region, the package's one integrator of
int_0^inf e^{-s u} L_nu(u) du, accurate to 1e-12 of the call's largest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gammafn import DomainError, _cubature, _require_finite
from .wright import FoxWrightParams, fox_wright_eval

__all__ = ["levy_pdf", "levy_pdf_eval", "LevyValue", "levy_laplace"]

# series only while |lam| = u^{-nu} stays this small; beyond it the integral
# is both better conditioned and cheaper
_SERIES_ARG_MAX = 2.0
# the density's relative accuracy contract, and the largest series cancellation it admits
_CONTRACT = 1e-12
_CANCELLATION_BUDGET = _CONTRACT / np.finfo(np.longdouble).eps


@dataclass(frozen=True)
class LevyValue:
    value: float
    method: str  # "series" | "integral"


def _check_index(nu: float) -> float:
    if not 0.0 < nu < 1.0:
        raise DomainError("Levy index nu must lie in (0, 1)")
    return float(nu)


@lru_cache(maxsize=32)
def _series_params(nu: float) -> FoxWrightParams:
    """The 0Psi1 row (0, -nu) of the series, shared per nu as the Zolotarev grid is."""
    return FoxWrightParams((), ((0.0, -nu),))


def _series(nu: float, u) -> np.ndarray:
    u = np.atleast_1d(u)
    res = fox_wright_eval(_series_params(nu), -(u**-nu))
    if np.any(res.status != "converged"):
        raise DomainError(f"Levy series failed to converge at nu={nu}")
    worst = int(np.argmax(res.cancellation))
    if res.cancellation[worst] > _CANCELLATION_BUDGET:
        raise DomainError(
            f"Levy series at nu={nu}, u={u[worst]}: cancellation {res.cancellation[worst]:.3e} "
            f"exceeds the budget {_CANCELLATION_BUDGET:.3e} of the {_CONTRACT:g} accuracy contract"
        )
    return res.value.real / u


@lru_cache(maxsize=32)
def _zolotarev_grid(nu: float):
    """Fixed composite Gauss nodes phi_i with log U(phi_i), shared per nu."""
    r = nu / (1.0 - nu)
    # coarse interior panels plus geometric refinement into both endpoints
    edges = [0.0] + list(np.linspace(0.02, 2.8, 9))
    delta = np.pi - 2.8
    while delta > 1e-5:
        delta *= 0.32
        edges.append(np.pi - delta)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    a, b = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    phi = (0.5 * (b - a) * nodes + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * weights).ravel()
    logU = (
        r * np.log(np.sin(nu * phi))
        + np.log(np.sin((1.0 - nu) * phi))
        - np.log(np.sin(phi)) / (1.0 - nu)
    )
    u_floor = float(np.exp(logU.min()))
    return phi, w, logU, u_floor


def _zolotarev(nu: float, u) -> np.ndarray:
    r = nu / (1.0 - nu)
    _, w, logU, u_floor = _zolotarev_grid(nu)
    u = np.atleast_1d(u)
    a = u**-r
    out = np.zeros(u.shape)
    keep = a * u_floor <= 745.0  # elsewhere the entire integrand underflows
    with np.errstate(over="ignore", under="ignore"):
        vals = np.exp(logU - a[keep, None] * np.exp(logU))
    out[keep] = r / np.pi * u[keep] ** (-1.0 / (1.0 - nu)) * np.sum(w * vals, axis=1)
    return out


def _density(nu: float, u) -> tuple:
    """(values, series mask) at the elements of ``u``, both of its shape."""
    nu = _check_index(nu)
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):
        raise DomainError("Levy density argument u must be positive")
    flat = u.reshape(-1)
    series = flat**-nu <= _SERIES_ARG_MAX
    out = np.empty(flat.shape)
    if series.any():
        out[series] = _series(nu, flat[series])
    if not series.all():
        out[~series] = _zolotarev(nu, flat[~series])
    return out.reshape(u.shape), series.reshape(u.shape)


def levy_pdf_eval(nu: float, u: float) -> LevyValue:
    """Density value at a scalar u plus which route produced it."""
    value, series = _density(nu, float(u))
    return LevyValue(float(value), "series" if series else "integral")


def levy_pdf(nu: float, u: float | np.ndarray) -> float | np.ndarray:
    """One-sided stable density L_nu(u): a float for a scalar u, an array of u's shape otherwise."""
    value, _ = _density(nu, u)
    return float(value) if value.ndim == 0 else value


def levy_laplace(nu: float, s: float | np.ndarray) -> float | np.ndarray:
    """int_0^inf e^{-s u} L_nu(u) du by quadrature of the density.

    ``s`` may be a finite scalar (float result) or an array (array of its
    shape); all entries share one ``cubature`` pass, cut off where the
    smallest positive s leaves mass below 1e-10 of the result scale.  Each
    entry is within 1e-12 e^{-s_min^nu} (plus 1e-10 of itself), s_min the
    smallest positive s: relative near the call's largest entry, absolute far
    below it.  Only that bound uses e^{-s^nu}; the value comes from the density
    alone.  A pass that does not converge to an estimate larger than its error
    raises QuadratureError (a DomainError).  Entries s = 0 return exactly 1.
    """
    nu = _check_index(nu)
    s_arr = _require_finite(np.asarray(s, dtype=float), "Laplace variable s")
    if not np.all(s_arr >= 0.0):
        raise DomainError("Laplace variable s must be >= 0")
    out = np.ones(s_arr.shape)
    pos = s_arr > 0.0
    if np.any(pos):
        sp = s_arr[pos]
        Q = float(np.max((24.0 + sp**nu) / sp))

        def integrand(x: np.ndarray) -> np.ndarray:
            v = x[:, 0]
            u = Q * v**4  # nodes crowd towards the steep rise of the density near 0
            return np.exp(-sp * u[:, None]) * (levy_pdf(nu, u) * (4.0 * Q * v**3))[:, None]

        atol = 1e-12 * np.exp(-(sp.min() ** nu))  # the size of the largest entry
        out[pos] = _cubature(integrand, 0.0, 1.0, "Levy Laplace", rtol=1e-10, atol=atol, max_subdivisions=800)
    return float(out) if out.ndim == 0 else out
