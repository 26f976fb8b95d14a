"""Subordination bridge: the time-changed flow as a Levy-weighted average of
damped wave solutions.

Sitewise statement: with c = n sigma2 / h^2,

    e^{-c t^{2H}} psi(., t | 0)
        = int_0^inf psi(., t | p) c^{-1/H} L_H(p c^{-1/H}) dp
        = int_0^inf psi(., t | c^{1/H} q) L_H(q) dq        (p = c^{1/H} q)

The wave ansatz gives psi(., t | p) = e^{-p t^2} psi(., t | 0), so the right
side is the Laplace weight int_0^inf e^{-s q} L_H(q) dq, s = c^{1/H} t^2,
times the one field psi(., t | 0).  The weight is two scipy ``cubature``
passes (GK21, raw |K21 - G10| error estimate).  The head covers [0, Q], with
Q grown until e^{-s Q} < 1e-8, and runs in v with q = Q v^4, so the first
pass already sees the steep rise of L_H near 0; on [0, Q] itself both rules
agreed on a value 1.7e-5 off on one drawn case.  The tail covers [Q, inf).
(One pass over [0, inf) missed by 6.5e-6 at sigma2 = 1e-4, H = 0.85: the
mapped tail is singular at its end.)  The head stops at 1e-7 e^{-c t^{2H}}
and the tail at 1e-12 e^{-c t^{2H}}, so both scale with the identity's own
size; a pass that does not converge, or whose error is not below its
estimate (its nodes missed a narrow peak), raises QuadratureError.
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
from ..specfun import levy_laplace, levy_pdf
from ..specfun.gammafn import _cubature
from ..spectral import MomentumField, dft_forward
from .evolution import _require_time, klein_gordon_evolve
from .kernels import _damping_constant
from .params import ModelParams

__all__ = ["levy_subordination_check", "levy_subordination_modewise"]

# subdivision caps of the head and the tail pass; 432 drawn cases (n <= 2,
# sigma2 down to 1e-8) took at most 6 and 44
_HEAD_SUBDIVISIONS, _TAIL_SUBDIVISIONS = 100, 400
# the head pass's tolerance relative to the identity's size e^{-c t^{2H}}
_QUAD_TOL = 1e-7


def _head_cutoff(s: float, hurst: float) -> float:
    Q = max(4.0, 2.0 * 2.0 ** (1.0 / hurst))
    while s * Q < 18.5 and Q < 64.0:  # e^{-sQ} < 1e-8 or capped
        Q *= 2.0
    return min(Q, 64.0)


def levy_subordination_check(phi0: Field, t: float, params: ModelParams) -> Tuple[Field, Field]:
    """(lhs, rhs) fields of the sitewise subordination identity."""
    _require_time(t)
    spec = phi0.spec
    H = params.hurst
    c = _damping_constant(spec, params)
    psi0 = klein_gordon_evolve(phi0, t, 0.0, params)
    damp = np.exp(-c * t ** (2.0 * H))
    lhs = damp * psi0
    if c == 0.0:
        # the Levy weight integrates to 1 against a p-independent solution
        return lhs, psi0
    s = c ** (1.0 / H) * t * t
    Q = _head_cutoff(s, H)

    def head(x: np.ndarray) -> np.ndarray:
        v = x[:, 0]
        q = Q * v**4
        return (np.exp(-s * q) * levy_pdf(H, q) * (4.0 * Q * v**3))[:, None]

    weight = _cubature(
        head, 0.0, 1.0, "head weight", atol=_QUAD_TOL * damp, rtol=0.0, max_subdivisions=_HEAD_SUBDIVISIONS
    )[0]
    weight += _cubature(
        lambda x: (np.exp(-s * x[:, 0]) * levy_pdf(H, x[:, 0]))[:, None], Q, np.inf, "tail weight",
        atol=1e-5 * _QUAD_TOL * damp, rtol=1e-10, max_subdivisions=_TAIL_SUBDIVISIONS,
    )[0]
    rhs = weight * psi0
    return lhs, rhs


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
