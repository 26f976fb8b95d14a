"""Subordination bridge: the time-changed flow as a Levy-weighted average of
damped wave solutions.

Sitewise statement: with c = n sigma2 / h^2,

    e^{-c t^{2H}} psi(., t | 0)
        = int_0^inf psi(., t | p) c^{-1/H} L_H(p c^{-1/H}) dp
        = int_0^inf psi(., t | c^{1/H} q) L_H(q) dq        (p = c^{1/H} q)

The wave ansatz gives psi(., t | p) = e^{-p t^2} psi(., t | 0), so the right
side is the Laplace weight int_0^inf e^{-s q} L_H(q) dq, s = c^{1/H} t^2,
times the one field psi(., t | 0): one :func:`levy_laplace` call, relative to
the identity's own size e^{-s^H} (c = 0 gives exactly 1).
Modewise statement: identical with c replaced by sigma2 d2(xi)/2 per
momentum node; the Clifford factor of the mode function is p-independent, so
every mode reduces to the Laplace transform of the Levy density, and
:func:`levy_laplace` integrates all of them in one pass (the zero mode is
exact).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..lattice import Field
from ..operators import symbol_tables
from ..specfun import levy_laplace
from ..spectral import MomentumField, dft_forward
from .evolution import _require_time, klein_gordon_evolve
from .kernels import _damping_constant
from .params import ModelParams

__all__ = ["levy_subordination_check", "levy_subordination_modewise"]


def levy_subordination_check(phi0: Field, t: float, params: ModelParams) -> Tuple[Field, Field]:
    """(lhs, rhs) fields of the sitewise subordination identity: rhs is levy_laplace(H, s) psi(t|0)."""
    _require_time(t)
    H, c = params.hurst, _damping_constant(phi0.spec, params)
    psi0 = klein_gordon_evolve(phi0, t, 0.0, params)
    return np.exp(-c * t ** (2.0 * H)) * psi0, levy_laplace(H, c ** (1.0 / H) * t * t) * psi0


def levy_subordination_modewise(
    phi0: Field, t: float, params: ModelParams
) -> Tuple[MomentumField, MomentumField]:
    """(lhs, rhs) momentum fields of the modewise subordination identity."""
    _require_time(t)
    spec = phi0.spec
    H = params.hurst
    tab = symbol_tables(spec)
    psi_hat = dft_forward(klein_gordon_evolve(phi0, t, 0.0, params))
    damp = np.exp(-0.5 * params.sigma2 * t ** (2.0 * H) * tab.d2)
    lhs = MomentumField(spec, damp[None, ...] * psi_hat.values, _copy=False)

    wgrid = levy_laplace(H, (0.5 * params.sigma2 * tab.d2) ** (1.0 / H) * t * t)
    rhs = MomentumField(spec, wgrid[None, ...] * psi_hat.values, _copy=False)
    return lhs, rhs
