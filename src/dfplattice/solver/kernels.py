"""Cosine/sine convolution kernels of the damped wave splitting and their
Mellin-Barnes machinery.

With c0 = n sigma2 / h^2, the damped wave solution factors as

    e^{-c0 t^{2H}} psi(.,t|0) = K0 * phi0 + K1 * (i D phi0)

where K_beta is the inverse transform of the evolved-delta multiplier

    e^{-c0 t^{2H}} * { cos(mu t sqrt(d2))     (beta = 0)
                     { sin(mu t sqrt(d2))/sqrt(d2)   (beta = 1).

Each multiplier also has the compact series form
sqrt(pi) (mu/2)^beta t^beta 0Psi1[(beta+1/2, 1); -mu^2 t^2 d2/4] (times the
Gaussian), giving a second, series-only route to the same field.  The Mellin
transform of K_beta(y, .) in t is

    M{K_beta(y,.)}(omega) = sqrt(pi) (mu/2)^beta / (2H) * c0^{-(beta+omega)/(2H)}
        * InvTransform[ 1Psi1[((beta+omega)/(2H), 1/H); (beta+1/2, 1);
                              -(mu^2 d2/4) c0^{-1/H}] ](y)

valid on the strip Re omega > -beta, and inverting it along a vertical
contour reconstructs the kernel -- the identity behind
:func:`mellin_barnes_kernel`.  The 1Psi1 series has Delta = 1 - 1/H, so the
hypothesis alpha + 1/2 <= H < 1 keeps it inside the convergence trichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..lattice import Field, GridSpec, delta_h
from ..operators import symbol_tables
from ..specfun import DomainError, FoxWrightParams, fox_wright, mellin_transform
from ..spectral import MomentumField, dft_forward, dft_inverse
from .evolution import trig_factors
from .params import ModelParams

__all__ = [
    "kg_kernel",
    "kg_kernel_mellin",
    "kernel_mellin_identity",
    "mellin_barnes_kernel",
    "MellinBarnesResult",
    "default_contour_abscissa",
]

_PANEL_WIDTH = 0.5  # Gauss panel width in tau
_PANEL_SLIVER = 1e-12  # a last panel narrower than this is dropped; T must exceed it
_TAIL_TOL = 1e-6  # a larger tail bound makes the status "tail-warning"


def _check_beta(beta: int) -> int:
    if beta not in (0, 1):
        raise ValueError("beta selects the cosine (0) or sine (1) kernel")
    return int(beta)


def _damping_constant(spec: GridSpec, params: ModelParams) -> float:
    return spec.n * params.sigma2 / spec.h**2


def _require_mellin_range(spec: GridSpec, params: ModelParams) -> None:
    lo = spec.alpha_float + 0.5
    if not lo <= params.hurst < 1.0:
        raise DomainError(
            f"Mellin-Barnes kernel routines require alpha + 1/2 <= H < 1; "
            f"got H = {params.hurst}, alpha = {spec.alpha_float}"
        )
    if params.sigma2 <= 0.0:
        raise DomainError("Mellin-Barnes kernel routines require sigma2 > 0")


def _wright_multiplier(d2: np.ndarray, mu: float, t: float, beta: int) -> np.ndarray:
    """sqrt(pi) (mu/2)^beta t^beta 0Psi1[(beta+1/2,1); -mu^2 t^2 d2/4]."""
    p = FoxWrightParams((), ((beta + 0.5, 1.0),))
    lam = -(mu**2) * t * t * d2 / 4.0
    return np.sqrt(np.pi) * (mu / 2.0) ** beta * t**beta * fox_wright(p, lam)


def kg_kernel(
    spec: GridSpec, t: float, params: ModelParams, beta: int, route: str = "trig"
) -> Field:
    """Damped-wave convolution kernel K_beta at time t.

    Normalized as an evolved delta, so the convolution split against the
    wave solution is exact; at mu = 0, beta = 0 this is exactly
    e^{-c0 t^{2H}} delta_h.
    """
    beta = _check_beta(beta)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    tab = symbol_tables(spec)
    damp = np.exp(-_damping_constant(spec, params) * t ** (2.0 * params.hurst))
    if route == "trig":
        cos_part, sinc_part = trig_factors(tab.d2, params.mu, t)
        mult = cos_part if beta == 0 else sinc_part
    elif route == "wright":
        mult = _wright_multiplier(tab.d2, params.mu, t, beta)
    else:
        raise ValueError(f"unknown route {route!r}")
    Fd = dft_forward(delta_h(spec))
    vals = (damp * mult)[None, ...] * Fd.values
    return dft_inverse(MomentumField(spec, vals, _copy=False))


def default_contour_abscissa(params: ModelParams, beta: int) -> float:
    """Midway placement H - beta/2 inside the strip Re omega > -beta."""
    return params.hurst - 0.5 * beta


def _mellin_mode_multiplier(d2, omega, params: ModelParams, c0: float, beta: int):
    """sqrt(pi) (mu/2)^beta / (2H) c0^{-(beta+omega)/(2H)} 1Psi1[...; -(mu^2 d2/4) c0^{-1/H}].

    ``omega`` may be an array broadcasting against ``d2``: the contour nodes
    then form the series' parameter axis, summed in one call.
    """
    H = params.hurst
    series = FoxWrightParams(
        (((beta + omega) / (2.0 * H), 1.0 / H),),
        ((beta + 0.5, 1.0),),
    )
    lam = -(params.mu**2) * d2 / 4.0 * c0 ** (-1.0 / H)
    return (
        np.sqrt(np.pi)
        * (params.mu / 2.0) ** beta
        / (2.0 * H)
        * c0 ** (-(beta + omega) / (2.0 * H))
        * fox_wright(series, lam)
    )


def kg_kernel_mellin(spec: GridSpec, omega: complex, params: ModelParams, beta: int) -> Field:
    """The time-Mellin transform M{K_beta(y, .)}(omega), as a field over y."""
    beta = _check_beta(beta)
    _require_mellin_range(spec, params)
    omega = complex(omega)
    if omega.real <= -beta:
        raise DomainError(f"Re omega = {omega.real} outside the strip Re omega > {-beta}")
    mult = _mellin_mode_multiplier(
        symbol_tables(spec).d2, omega, params, _damping_constant(spec, params), beta
    )
    Fd = dft_forward(delta_h(spec))
    vals = mult[None, ...] * Fd.values
    return dft_inverse(MomentumField(spec, vals, _copy=False))


def kernel_mellin_identity(
    omega: complex,
    xi: Sequence[float],
    spec: GridSpec,
    params: ModelParams,
    beta: int,
) -> Tuple[complex, complex]:
    """Numerical Mellin transform of the mode function vs its 1Psi1 closed form.

    The mode function at momentum xi factors as f(t) g(t) with
    f(t) = sqrt(pi) (mu/2)^beta t^beta e^{-c0 t^{2H}} and
    g(t) = 0Psi1[(beta+1/2,1); -mu^2 t^2 d2(xi)/4]; the left side integrates
    it against t^{omega-1}, the right side is the closed 1Psi1 form.
    """
    beta = _check_beta(beta)
    _require_mellin_range(spec, params)
    omega = complex(omega)
    if omega.real <= -beta:
        raise DomainError(f"Re omega = {omega.real} outside the strip Re omega > {-beta}")
    from ..operators import laplacian_symbol

    d2 = laplacian_symbol(xi, spec)
    H = params.hurst
    c0 = _damping_constant(spec, params)
    gp = FoxWrightParams((), ((beta + 0.5, 1.0),))

    def fg(t: float) -> float:
        if t <= 0.0:
            return 0.0
        decay = c0 * t ** (2.0 * H)
        if not decay < 60.0:  # below e^-60 the factor kills everything
            return 0.0
        f = np.sqrt(np.pi) * (params.mu / 2.0) ** beta * t**beta * np.exp(-decay)
        g = fox_wright(gp, -(params.mu**2) * t * t * d2 / 4.0)
        return float(f * g.real)

    lhs = mellin_transform(fg, omega)
    rhs = _mellin_mode_multiplier(d2, omega, params, c0, beta)
    return lhs, complex(rhs)


@dataclass(frozen=True)
class MellinBarnesResult:
    value: complex
    tail_bound: float
    status: str  # "ok" | "tail-warning"


def mellin_barnes_kernel(
    site: Tuple[int, ...],
    t: float,
    spec: GridSpec,
    params: ModelParams,
    beta: int,
    c: Optional[float] = None,
    T: float = 40.0,
) -> MellinBarnesResult:
    """Reconstruct K_beta(site, t) by vertical-contour Mellin inversion.

    Integrates (1/2 pi) M{K_beta(site,.)}(c + i tau) t^{-c-i tau} over
    tau in [-T, T] with composite Gauss panels.  The transform at the site
    is the Parseval row against the mode multipliers; the 1Psi1 series of
    every (contour node, distinct d2) pair is summed in one Fox-Wright call
    over the node axis, so each series still reports its own cancellation.
    The integrand decays like exp(-pi |tau| / (4H)) through the Gamma
    factors; the reported tail bound extrapolates that decay from the last
    sampled point.  t, T and c must be finite and T > 1e-12 (ValueError).
    """
    beta = _check_beta(beta)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not (np.isfinite(T) and T > _PANEL_SLIVER):
        raise ValueError(f"T must be finite and above {_PANEL_SLIVER}, got {T}")
    if c is not None and not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if t == 0.0 and beta == 1:
        # the sine kernel vanishes identically at t = 0
        return MellinBarnesResult(0.0 + 0.0j, 0.0, "ok")
    if t <= 0.0:
        raise ValueError("contour reconstruction needs t > 0")
    _require_mellin_range(spec, params)
    if c is None:
        c = default_contour_abscissa(params, beta)
    if c <= -beta:
        raise DomainError(f"contour abscissa c = {c} outside the strip Re omega > {-beta}")

    if len(site) != spec.n:
        raise ValueError(f"site {tuple(site)} needs {spec.n} coordinates")
    # Parseval against the delta at the site reads one value of the kernel:
    # K_beta(site) = sum_k row_k m_k for the mode multiplier m on the scalar blade;
    # modes sharing a value of d2 share m, so their row entries are added first
    d0 = delta_h(spec)
    shift = tuple(int(k) for k in site)
    at_site = Field(spec, np.roll(d0.values, shift, axis=spec.site_axes), _copy=False)
    row = spec.momentum_weight * np.conj(dft_forward(at_site).values[0]) * dft_forward(d0).values[0]
    d2, modes = np.unique(symbol_tables(spec).d2, return_inverse=True)
    weight = np.zeros(d2.shape, dtype=complex)
    np.add.at(weight, modes.reshape(-1), row.reshape(-1))
    c0 = _damping_constant(spec, params)

    lo = np.arange(-T, T - _PANEL_SLIVER, _PANEL_WIDTH)  # panel starts; the last panel ends at T
    half = 0.5 * (np.minimum(lo + _PANEL_WIDTH, T) - lo)[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    omega = c + 1j * (lo[:, None] + half * (nodes + 1.0))
    # one series call over (contour nodes x distinct d2), contracted with the summed row
    mvals = _mellin_mode_multiplier(d2, omega.reshape(-1, 1), params, c0, beta) @ weight
    vals = mvals.reshape(omega.shape) * t ** (-omega)
    total = np.sum(half * weights * vals)
    edge_mag = float(np.max(np.abs(vals[[0, -1]])))
    value = total / (2.0 * np.pi)
    decay = np.pi / (4.0 * params.hurst)
    tail = 2.0 * edge_mag / decay / (2.0 * np.pi)
    status = "ok" if tail <= _TAIL_TOL else "tail-warning"
    return MellinBarnesResult(complex(value), float(tail), status)
