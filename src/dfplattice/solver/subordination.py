"""Subordination bridge: the time-changed flow as a Levy-weighted average of
damped wave solutions.

Sitewise statement: with c = n sigma2 / h^2,

    e^{-c t^{2H}} psi(., t | 0)
        = int_0^inf psi(., t | p) c^{-1/H} L_H(p c^{-1/H}) dp
        = int_0^inf psi(., t | c^{1/H} q) L_H(q) dq        (p = c^{1/H} q)

The right side is computed by scipy's field-valued adaptive Gauss-Kronrod
(``quad_vec``, G7/K15 with QUADPACK's error estimate; a miss of the
tolerance raises QuadratureError) over the head [0, Q], every node a full
Klein-Gordon solve plus a Levy density evaluation, with Q grown until
e^{-s Q} < 1e-8, s = c^{1/H} t^2; the far tail uses the explicit
e^{-p t^2} damping of the wave ansatz, so only the Laplace weight is
integrated out there.  Modewise statement: identical with c replaced by
sigma2 d2(xi)/2 per momentum node; the Clifford factor of the mode function
is p-independent, so every mode reduces to the Laplace transform of the Levy
density, and :func:`levy_laplace` integrates all of them in one
vector-valued quadrature (the zero mode is exact).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..lattice import Field
from ..operators import symbol_tables
from ..specfun import levy_laplace, levy_pdf
from ..spectral import MomentumField, dft_forward
from .evolution import klein_gordon_evolve
from .params import ModelParams

__all__ = [
    "levy_subordination_check",
    "levy_subordination_modewise",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _head_cutoff(s: float, hurst: float) -> float:
    Q = max(4.0, 2.0 * 2.0 ** (1.0 / hurst))
    while s * Q < 18.5 and Q < 64.0:  # e^{-sQ} < 1e-8 or capped
        Q *= 2.0
    return min(Q, 64.0)


def levy_subordination_check(
    phi0: Field, t: float, params: ModelParams, quad_tol: float = 1e-7
) -> Tuple[Field, Field]:
    """(lhs, rhs) fields of the sitewise subordination identity."""
    from scipy.integrate import quad, quad_vec

    if t < 0.0:
        raise ValueError("t must be >= 0")
    spec = phi0.spec
    H = params.hurst
    c = spec.n * params.sigma2 / spec.h**2
    psi0 = klein_gordon_evolve(phi0, t, 0.0, params)
    lhs = np.exp(-c * t ** (2.0 * H)) * psi0
    if c == 0.0:
        # the Levy weight integrates to 1 against a p-independent solution
        return lhs, psi0
    scale = c ** (1.0 / H)
    s = scale * t * t
    Q = _head_cutoff(s, H)

    def integrand(q: float) -> np.ndarray:
        w = levy_pdf(H, q)
        if w == 0.0:
            return np.zeros_like(psi0.values)
        return klein_gordon_evolve(phi0, t, scale * q, params).values * w

    ref = max(psi0.sup_norm(), 1.0)
    head, err, info = quad_vec(
        integrand, 0.0, Q, epsabs=quad_tol * ref, epsrel=0.0, norm="max",
        quadrature="gk15", limit=240, full_output=True,
    )
    if info.status != 0:
        raise QuadratureError(
            f"field quadrature stopped at error {err:.3e} > {quad_tol * ref:.3e}: {info.message}"
        )
    # beyond Q the wave ansatz's explicit e^{-p t^2} damping factors out
    tail_weight, _ = quad(lambda q: np.exp(-s * q) * levy_pdf(H, q), Q, np.inf, limit=400)
    rhs = Field(spec, head + tail_weight * psi0.values)
    return lhs, rhs


def levy_subordination_modewise(
    phi0: Field, t: float, params: ModelParams
) -> Tuple[MomentumField, MomentumField]:
    """(lhs, rhs) momentum fields of the modewise subordination identity."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    spec = phi0.spec
    H = params.hurst
    tab = symbol_tables(spec)
    psi_hat = dft_forward(klein_gordon_evolve(phi0, t, 0.0, params))
    damp = np.exp(-0.5 * params.sigma2 * t ** (2.0 * H) * tab.d2)
    lhs = MomentumField(spec, damp[None, ...] * psi_hat.values, _copy=False)

    wgrid = levy_laplace(H, (0.5 * params.sigma2 * tab.d2) ** (1.0 / H) * t * t)
    rhs = MomentumField(spec, wgrid[None, ...] * psi_hat.values, _copy=False)
    return lhs, rhs
