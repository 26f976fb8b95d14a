"""Evolution solvers: semigroup heat kernel, the time-changed drift-diffusion
flow, its convolution kernel, the damped wave (Klein-Gordon) solution, and
the explicit time-stepping twin used as the independent oracle.

The closed-form solvers run through the momentum representation; the RK4
twin multiplies by a dense generator built from the public operators and
refuses states above ``STEPPED_STATE_CAP`` entries (1024: 2D N=8 passes, 3D
N=4 does not).  The Dirac exponential splits as

    exp(i mu t z(xi)) = cos(mu t sqrt(d2)) + sin(mu t sqrt(d2))/sqrt(d2) * i z(xi)

because z(xi)^2 = d2(xi); the sine factor is continuously extended by mu*t
at the zero mode.  The time-changed flow multiplies that by the scalar
Gaussian exp(-sigma2 t^{2H} d2 / 2), and all mode functions equal 1 at
xi = 0, which is what preserves the quasi-probability normalization.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from ..clifford import AlgebraError, generator_tables, live_blades
from ..lattice import Field, GridSpec, delta_h
from ..operators import _apply_dirac_rows, dirac_apply, laplacian_apply, symbol_tables
from ..specfun import bessel_i_scaled, gamma
from ..spectral import _placed, _transform_rows, dft_forward
from .params import ModelParams

__all__ = [
    "trig_factors",
    "heat_kernel",
    "dfp_evolve",
    "dfp_kernel",
    "dfp_evolve_stepped",
    "klein_gordon_evolve",
    "wilson_diffusion_coefficient",
]


def _require_time(t: float, name: str = "t") -> None:
    if not 0.0 <= t < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {t}")


def trig_factors(d2: np.ndarray, mu: float, t: float):
    """(cos(mu t sqrt(d2)), sin(mu t sqrt(d2))/sqrt(d2)) with the d2 -> 0 limit."""
    w = np.sqrt(d2)
    arg = mu * t * w
    cos_part = np.cos(arg)
    small = w < 1e-12
    safe_w = np.where(small, 1.0, w)
    sinc_part = np.where(small, mu * t * (1.0 - arg**2 / 6.0), np.sin(arg) / safe_w)
    return cos_part, sinc_part


def _evolved_values(phi0: Field, scalar: np.ndarray, cos_part: np.ndarray, sinc_part: np.ndarray) -> np.ndarray:
    """F^-1[ scalar * (cos + sinc * i z) * F phi0 ] shared by the solvers; ``scalar`` is site-shaped.

    Only the blades the flow reaches are computed: the live blades of
    ``phi0`` and their images under each generator, since z(xi) is a
    vector.  Every other blade is exactly 0.
    """
    spec = phi0.spec
    live = live_blades(phi0.values)
    reached = np.zeros(spec.nblades, dtype=bool)
    reached[live] = True
    reached[generator_tables(spec.n)[0][:, live]] = True
    blades = reached.nonzero()[0]
    rows = phi0.values if live.size == spec.nblades else phi0.values[live]
    F = _placed(_transform_rows(rows, spec, forward=True), live, blades)
    zF = _apply_dirac_rows(F, spec, blades, live)
    out = scalar[None, ...] * (cos_part[None, ...] * F + 1j * sinc_part[None, ...] * zF)
    return _placed(_transform_rows(out, spec, forward=False), blades, np.arange(spec.nblades))


def _delta_kernel(spec: GridSpec, mult: np.ndarray) -> np.ndarray:
    """Scalar blade of F^-1[mult * F delta_h], one kernel per leading index of ``mult``;
    every other blade of the delta, its transform and the kernel is exactly 0."""
    Fd = dft_forward(delta_h(spec)).values[0]
    prod = mult * Fd
    return _transform_rows(prod.reshape((-1,) + spec.site_shape), spec, forward=False).reshape(prod.shape)


def heat_kernel(spec: GridSpec, tau: float, route: str = "multiplier") -> Field:
    """exp(tau * Laplacian) delta_h, normalized to unit lattice mass.

    ``multiplier`` evaluates exp(-tau d2) on the momentum grid;
    ``bessel`` builds the periodized product of scaled modified Bessel
    functions e^{-z} I_k(z) with z = 2 tau / h^2 (image sum over the
    periodic copies) and fixes the constant by sum_x h^n K = 1.
    """
    _require_time(tau, "tau")
    if tau == 0.0:
        return delta_h(spec)
    if route == "multiplier":
        return Field.from_blade_array(spec, 0, _delta_kernel(spec, np.exp(-tau * symbol_tables(spec).d2)))
    if route == "bessel":
        z, N = 2.0 * tau / spec.h**2, spec.N
        offsets = np.arange(N)
        offsets = np.where(offsets <= N // 2, offsets, offsets - N)
        # fold periodic images until the next one's nearest order, |j| N - N/2,
        # is below 1e-17 of the peak; scaled Bessels decay superexponentially in order
        floor, images = 1e-17 * bessel_i_scaled(0, z), 0
        while bessel_i_scaled((images + 1) * N - N // 2, z) >= floor:
            images += 1
        orders = offsets + N * np.arange(-images, images + 1)[:, None]
        prod = axis = bessel_i_scaled(orders, z).sum(axis=0)
        for _ in range(spec.n - 1):
            prod = np.multiply.outer(prod, axis)
        total = prod.sum() * spec.cell_volume
        return Field.from_blade_array(spec, 0, prod / total)
    raise ValueError(f"unknown route {route!r}")


def dfp_evolve(phi0: Field, t: float, params: ModelParams) -> Field:
    """Flow of d_t Phi = i mu D Phi + sigma2 H t^{2H-1} Lap Phi up to time t."""
    _require_time(t)
    if t == 0.0:
        return phi0
    spec = phi0.spec
    tab = symbol_tables(spec)
    gaussian = np.exp(-0.5 * params.sigma2 * t ** (2.0 * params.hurst) * tab.d2)
    cos_part, sinc_part = trig_factors(tab.d2, params.mu, t)
    return Field(spec, _evolved_values(phi0, gaussian, cos_part, sinc_part), _copy=False)


def dfp_kernel(spec: GridSpec, t: float, params: ModelParams) -> Field:
    """Convolution kernel of the flow: the evolved discrete delta."""
    return dfp_evolve(delta_h(spec), t, params)


def klein_gordon_evolve(phi0: Field, t: float, p: float, params: ModelParams) -> Field:
    """Damped wave solution e^{-p t^2} (cos + sinc * i D) phi0.

    Solves  d_t^2 psi + 4 p t d_t psi + (2p + 4 p^2 t^2) psi = mu^2 Lap psi
    with psi(0) = phi0 and d_t psi(0) = i mu D phi0.
    """
    _require_time(t)
    if not p >= 0.0:
        raise ValueError("p must be >= 0")
    if t == 0.0:
        return phi0
    spec = phi0.spec
    tab = symbol_tables(spec)
    damping = np.exp(-p * t * t) * np.ones_like(tab.d2)
    cos_part, sinc_part = trig_factors(tab.d2, params.mu, t)
    return Field(spec, _evolved_values(phi0, damping, cos_part, sinc_part), _copy=False)


def _stability_radius(spec: GridSpec, params: ModelParams, t_start: float, t_end: float) -> float:
    d2_max = 4.0 * spec.n / spec.h**2
    drift = abs(params.mu) * np.sqrt(d2_max)
    expo = 2.0 * params.hurst - 1.0
    ts = [max(t_start, 1e-12), max(t_end, 1e-12)]
    diff = params.sigma2 * params.hurst * max(t**expo for t in ts) * d2_max
    return drift + diff


# largest state (blades x sites) the dense RK4 generator takes; 1D N=32 has 128
STEPPED_STATE_CAP = 1024


@lru_cache(maxsize=2)  # at the cap each matrix is 16 MB
def _generator(spec: GridSpec):
    """The RK4 twin's generator as dense matrices of ``dirac_apply`` and the stencil
    ``laplacian_apply``: column k is the operator applied to the k-th unit field, in
    the C order of ``Field.values``.  Read-only, as the cache hands them to every caller."""
    shape = (spec.nblades,) + spec.site_shape
    units = [Field(spec, e.reshape(shape), _copy=False) for e in np.eye(math.prod(shape), dtype=complex)]
    dirac = np.stack([dirac_apply(u).values.ravel() for u in units], axis=1)
    lap = np.stack([laplacian_apply(u, "stencil").values.ravel() for u in units], axis=1)
    dirac.flags.writeable = lap.flags.writeable = False
    return dirac, lap


def dfp_evolve_stepped(
    phi0: Field,
    t: float,
    params: ModelParams,
    steps: int,
    t_start: Optional[float] = None,
) -> Field:
    """Classical RK4 integration of the flow; the independent time-domain route.

    The right-hand side i mu D v + sigma2 H t^{2H-1} L v multiplies by the
    matrices of ``dirac_apply`` and the stencil ``laplacian_apply``, built
    from unit fields once per grid.  For hurst < 1/2 the coefficient
    t^{2H-1} blows up at 0, so the march starts at ``t_start`` > 0 (default
    1e-2) from the spectral solution and only the (regular) remainder is
    stepped.  Raises when the step count is below the explicit stability
    requirement or the state has more than ``STEPPED_STATE_CAP`` entries.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_start is None:
        t_start = 0.0 if params.hurst >= 0.5 else 1e-2
    if t < t_start:
        raise ValueError("t must be >= the start time")
    if t_start == 0.0 and params.hurst < 0.5:
        raise ValueError("the start time must be > 0 for hurst < 1/2: t^{2H-1} is singular at 0")
    spec, shape = phi0.spec, phi0.values.shape
    if phi0.values.size > STEPPED_STATE_CAP:
        raise ValueError(f"state of {phi0.values.size} entries exceeds the cap of {STEPPED_STATE_CAP}")
    dt = (t - t_start) / steps
    if dt > 0 and dt * _stability_radius(spec, params, t_start, t) > 1.5:
        raise ValueError(
            f"{steps} steps unstable for this grid: need about "
            f"{int(np.ceil((t - t_start) * _stability_radius(spec, params, t_start, t) / 1.5))}"
        )
    state = phi0 if t_start == 0.0 else dfp_evolve(phi0, t_start, params)
    vals = state.values.ravel()
    dirac, lap = _generator(spec)
    drift = 1j * params.mu * dirac
    expo = 2.0 * params.hurst - 1.0

    def rhs(tc: float, v: np.ndarray) -> np.ndarray:
        return drift @ v + (params.sigma2 * params.hurst * tc**expo) * (lap @ v)

    tc = t_start
    for _ in range(steps):
        k1 = rhs(tc, vals)
        k2 = rhs(tc + dt / 2.0, vals + dt / 2.0 * k1)
        k3 = rhs(tc + dt / 2.0, vals + dt / 2.0 * k2)
        k4 = rhs(tc + dt, vals + dt * k3)
        vals = vals + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tc += dt
    return Field(spec, vals.reshape(shape), _copy=False)


def wilson_diffusion_coefficient(hurst: float) -> float:
    """Spectral-density diffusion constant sigma2(H) for H != 1/2.

    Both closed forms, Gamma(2-2H) cos(pi (H-1)) / (pi H (2H-1)) and
    Gamma(2-2H) sin(pi (1/2-H)) / (pi H (1-2H)), are evaluated and must
    agree; H = 1/2 is a removable singularity with limit value 1.  Near it
    both cancel 0/0, so the value returned is the sine form with the
    cancelling factor written as a sinc, Gamma(2-2H) sinc(1/2-H) / (2H).
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if hurst == 0.5:
        raise ValueError("H = 1/2 is a removable singularity; the limit value is 1.0")
    g = gamma(2.0 - 2.0 * hurst).real
    form_cos = g / (np.pi * hurst * (2.0 * hurst - 1.0)) * np.cos(np.pi * (hurst - 1.0))
    form_sin = g / (np.pi * hurst * (1.0 - 2.0 * hurst)) * np.sin(np.pi * (0.5 - hurst))
    # both forms divide by (1 - 2H); the agreement gate scales with that
    cond = 1.0 + 1.0 / abs(1.0 - 2.0 * hurst)
    if abs(form_cos - form_sin) > 1e-12 * cond * max(1.0, abs(form_cos)):
        raise AlgebraError(f"closed forms disagree: {form_cos} vs {form_sin}")
    return float(g * np.sinc(0.5 - hurst) / (2.0 * hurst))
