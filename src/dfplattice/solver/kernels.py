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

from ..lattice import Field, GridSpec
from ..operators import laplacian_symbol, symbol_tables
from ..specfun import DomainError, FoxWrightParams, fox_wright, fox_wright_eval, mellin_transform
from ..specfun.mellin import _contour
from .evolution import _delta_kernel, _require_time, trig_factors
from .params import ModelParams

__all__ = [
    "kg_kernel",
    "kg_kernel_mellin",
    "kernel_mellin_identity",
    "mellin_barnes_kernel",
    "MellinBarnesResult",
]

_TAIL_TOL = 1e-6  # a larger tail bound raises DomainError
# a 1Psi1 series of the Mellin routines refuses past this many terms, or where its
# cancellation times the double epsilon could pass the tail tolerance
_TERM_BUDGET = 500
_CANCELLATION_BUDGET = _TAIL_TOL / np.finfo(float).eps


def _check_beta(beta: int) -> int:
    if beta not in (0, 1):
        raise ValueError("beta selects the cosine (0) or sine (1) kernel")
    return int(beta)


def _damping_constant(spec: GridSpec, params: ModelParams) -> float:
    return spec.n * params.sigma2 / spec.h**2


def _check_mellin_args(spec: GridSpec, params: ModelParams, beta: int, re_omega: float) -> int:
    """beta, alpha + 1/2 <= H < 1, sigma2 > 0 and the strip Re omega > -beta; returns beta."""
    beta = _check_beta(beta)
    lo = spec.alpha_float + 0.5
    if not lo <= params.hurst < 1.0:
        raise DomainError(
            f"Mellin-Barnes kernel routines require alpha + 1/2 <= H < 1; "
            f"got H = {params.hurst}, alpha = {spec.alpha_float}"
        )
    if params.sigma2 <= 0.0:
        raise DomainError("Mellin-Barnes kernel routines require sigma2 > 0")
    if re_omega <= -beta:
        raise DomainError(f"Re omega = {re_omega} outside the strip Re omega > {-beta}")
    return beta


def _kernel_multiplier(d2, t: float, spec: GridSpec, params: ModelParams, beta: int, route: str):
    """e^{-c0 t^{2H}} times the cosine or sine factor of K_beta, from ``trig_factors`` or its 0Psi1 series."""
    if route == "trig":
        mult = trig_factors(d2, params.mu, t)[beta]
    elif route == "wright":
        lam = -(params.mu**2) * t * t * d2 / 4.0
        series = fox_wright(FoxWrightParams((), ((beta + 0.5, 1.0),)), lam)
        mult = np.sqrt(np.pi) * (params.mu / 2.0) ** beta * t**beta * series
    else:
        raise ValueError(f"unknown route {route!r}")
    return np.exp(-_damping_constant(spec, params) * t ** (2.0 * params.hurst)) * mult


def kg_kernel(spec: GridSpec, t: float, params: ModelParams, beta: int, route: str = "trig") -> Field:
    """Damped-wave convolution kernel K_beta at time t.

    Normalized as an evolved delta, so the convolution split against the
    wave solution is exact; at mu = 0, beta = 0 this is exactly
    e^{-c0 t^{2H}} delta_h.
    """
    beta = _check_beta(beta)
    _require_time(t)
    mult = _kernel_multiplier(symbol_tables(spec).d2, t, spec, params, beta, route)
    return Field.from_blade_array(spec, 0, _delta_kernel(spec, mult))


def _mellin_mode_multiplier(d2, omega, params: ModelParams, c0: float, beta: int):
    """sqrt(pi) (mu/2)^beta / (2H) c0^{-(beta+omega)/(2H)} 1Psi1[...; -(mu^2 d2/4) c0^{-1/H}].

    ``omega`` may be an array broadcasting against ``d2``: the contour nodes
    then form the series' parameter axis, summed in one call.  DomainError
    where the series needs more than ``_TERM_BUDGET`` terms or an element's
    cancellation exceeds ``_CANCELLATION_BUDGET``.
    """
    H = params.hurst
    series = FoxWrightParams(
        (((beta + omega) / (2.0 * H), 1.0 / H),),
        ((beta + 0.5, 1.0),),
    )
    lam = -(params.mu**2) * d2 / 4.0 * c0 ** (-1.0 / H)
    res = fox_wright_eval(series, lam, max_terms=_TERM_BUDGET)
    if np.any(res.status != "converged"):
        raise DomainError(
            f"Mellin-Barnes 1Psi1 series at |lam| = {np.max(np.abs(lam)):.4g} needs more than "
            f"the budget of {_TERM_BUDGET} terms"
        )
    worst = float(np.max(res.cancellation))
    if not worst <= _CANCELLATION_BUDGET:
        raise DomainError(
            f"Mellin-Barnes 1Psi1 series at |lam| = {np.max(np.abs(lam)):.4g}: cancellation {worst:.3e} "
            f"exceeds the budget {_CANCELLATION_BUDGET:.3e} of the {_TAIL_TOL:g} tolerance"
        )
    return (
        np.sqrt(np.pi)
        * (params.mu / 2.0) ** beta
        / (2.0 * H)
        * c0 ** (-(beta + omega) / (2.0 * H))
        * res.value
    )


def kg_kernel_mellin(spec: GridSpec, omega: complex, params: ModelParams, beta: int) -> Field:
    """The time-Mellin transform M{K_beta(y, .)}(omega), as a field over y."""
    omega = complex(omega)
    beta = _check_mellin_args(spec, params, beta, omega.real)
    mult = _mellin_mode_multiplier(symbol_tables(spec).d2, omega, params, _damping_constant(spec, params), beta)
    return Field.from_blade_array(spec, 0, _delta_kernel(spec, mult))


def kernel_mellin_identity(
    omega: complex,
    xi: Sequence[float],
    spec: GridSpec,
    params: ModelParams,
    beta: int,
) -> Tuple[complex, complex]:
    """Numerical Mellin transform of the mode function vs its 1Psi1 closed form.

    The mode function at momentum xi is the Wright-route multiplier of
    K_beta, f(t) g(t) with f(t) = sqrt(pi) (mu/2)^beta t^beta e^{-c0 t^{2H}}
    and g(t) = 0Psi1[(beta+1/2,1); -mu^2 t^2 d2(xi)/4]; the left side
    integrates it against t^{omega-1}, the right side is the closed 1Psi1 form.
    """
    omega = complex(omega)
    beta = _check_mellin_args(spec, params, beta, omega.real)
    d2 = laplacian_symbol(xi, spec)
    c0 = _damping_constant(spec, params)

    def fg(t: float) -> float:
        # below e^-60 the damping kills everything
        if t <= 0.0 or not c0 * t ** (2.0 * params.hurst) < 60.0:
            return 0.0
        return float(_kernel_multiplier(d2, t, spec, params, beta, "wright").real)

    lhs = mellin_transform(fg, omega)
    rhs = _mellin_mode_multiplier(d2, omega, params, c0, beta)
    return lhs, complex(rhs)


@dataclass(frozen=True)
class MellinBarnesResult:
    value: complex
    tail_bound: float
    status: str  # "ok": a tail bound above _TAIL_TOL raises instead


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
    tau in [-T, T] with the contour rule of :func:`mellin_inverse`
    (composite Gauss panels); c defaults to H - beta/2, midway inside the
    strip Re omega > -beta.  mu, sigma2, H, t, c and d2 are real, so the
    integrand at the conjugate node is the conjugate of its value (the Gamma
    ratios, c0^{-omega/(2H)} and t^{-omega} each commute with conjugation),
    and the contour, mirrored about the real axis, sums to twice the real
    part of its upper half.  The 1Psi1 series of every (upper contour node,
    distinct d2) pair is summed in one Fox-Wright call over the node axis,
    one matrix product per block of terms on the driver's product path,
    and each series still reports its own cancellation; panel weights and
    t^{-omega} contract it to one multiplier per mode, and the site is read
    from its inverse transform.  The integrand decays like
    exp(-pi |tau| / (4H)) through the Gamma factors; the reported tail bound
    extrapolates that decay from the site magnitude at the upper edge panel,
    which the lower one mirrors: the multipliers are even in xi, so a
    conjugated multiplier gives the site's conjugate.
    t, T and c must be finite and T > 1e-12 (ValueError).  DomainError where
    the tail bound exceeds ``_TAIL_TOL`` = 1e-6 or the contour sum is not
    finite, and where a series needs more than ``_TERM_BUDGET`` terms or
    loses more digits than ``_CANCELLATION_BUDGET`` allows; the last two
    refuse before any contour sum, within one ``_TERM_BUDGET`` of work.
    """
    beta = _check_beta(beta)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    c = params.hurst - 0.5 * beta if c is None else c
    omega, weights = _contour(c, T)
    if t == 0.0 and beta == 1:
        # the sine kernel vanishes identically at t = 0
        return MellinBarnesResult(0.0 + 0.0j, 0.0, "ok")
    if t <= 0.0:
        raise ValueError("contour reconstruction needs t > 0")
    _check_mellin_args(spec, params, beta, c)
    if len(site) != spec.n:
        raise ValueError(f"site {tuple(site)} needs {spec.n} coordinates")

    d2, modes = np.unique(symbol_tables(spec).d2, return_inverse=True)
    # the upper half of the contour: the lower half holds the conjugates of its values
    upper = omega.shape[0] // 2
    panel, omega, weights = omega.shape[1], omega[upper:].reshape(-1, 1), weights[upper:].reshape(1, -1)
    # one series call over (upper contour nodes x distinct d2), each node times t^{-omega}
    vals = _mellin_mode_multiplier(d2, omega, params, _damping_constant(spec, params), beta) * t ** (-omega)
    # multipliers per d2: the contour sum, then the nodes of the upper edge panel
    rows = np.vstack((2.0 * (weights @ vals).real, vals[-panel:]))
    kernels = _delta_kernel(spec, rows[:, modes.reshape(spec.site_shape)])
    at_site = kernels[(slice(None),) + tuple(int(k) % spec.N for k in site)]
    value = at_site[0] / (2.0 * np.pi)
    edge_mag = float(np.max(np.abs(at_site[1:])))
    decay = np.pi / (4.0 * params.hurst)
    tail = 2.0 * edge_mag / decay / (2.0 * np.pi)
    if not (np.isfinite(value) and tail <= _TAIL_TOL):
        raise DomainError(
            f"Mellin-Barnes contour sum {value:.4g} at T = {T}: tail bound {tail:.3e} "
            f"against the tolerance {_TAIL_TOL:g}"
        )
    return MellinBarnesResult(complex(value), float(tail), "ok")
