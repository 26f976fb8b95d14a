"""Named invariant checks behind ``dfplattice verify`` and the acceptance suite.

Every check runs a concrete numerical experiment at desk scale, with fixed
settings, and returns its achieved figure.  ``SUITES`` pairs each check
with its name, tolerance and direction; the groupings mirror the library
layout.  ``run_suite`` times the checks of one group, ``run_all`` of every
group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np

from .clifford import Multivector, geometric_product_arrays
from .lattice import Field, GridSpec, delta_h, mass, normalization_check, sesquilinear
from .operators import (
    dirac_apply,
    dirac_multiplier,
    laplacian_apply,
    symbol_tables,
)
from .spectral import (
    MomentumField,
    convolve,
    dft_forward,
    dft_inverse,
    momentum_sesquilinear,
)
from .solver import (
    ModelParams,
    dfp_evolve,
    dfp_evolve_stepped,
    dfp_kernel,
    heat_kernel,
    kernel_mellin_identity,
    kg_kernel,
    klein_gordon_evolve,
    levy_subordination_check,
    levy_subordination_modewise,
    mellin_barnes_kernel,
    wilson_diffusion_coefficient,
)
from .specfun import (
    DomainError,
    FoxWrightParams,
    bessel_from_hartman_watson,
    bessel_i_scaled,
    gamma,
    hartman_watson_theta,
    levy_laplace,
    levy_pdf,
    mellin_convolve,
    mellin_inverse,
    mellin_transform,
    mittag_leffler,
    wright_cos,
    wright_sinc,
)

__all__ = ["Check", "CheckResult", "run_suite", "run_all", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    achieved: float
    passed: bool
    seconds: float
    direction: str = "<="  # achieved <= tolerance, or ">=" for order fits


@dataclass(frozen=True)
class Check:
    """One invariant: ``measure()`` returns the achieved figure for ``tolerance``."""

    name: str
    tolerance: float
    measure: Callable[[], float]
    direction: str = "<="

    def run(self) -> CheckResult:
        t0 = time.perf_counter()
        achieved = float(self.measure())
        dt = time.perf_counter() - t0
        ok = achieved <= self.tolerance if self.direction == "<=" else achieved >= self.tolerance
        return CheckResult(self.name, self.tolerance, achieved, bool(ok), dt, self.direction)


def _random_field(spec: GridSpec, rng: np.random.Generator) -> Field:
    shape = (spec.nblades,) + spec.site_shape
    return Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _random_mv(dim: int, rng: np.random.Generator) -> Multivector:
    nb = 1 << (2 * dim)
    vec = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    return Multivector.from_array(vec, dim)


# ---------------------------------------------------------------- clifford

def check_associativity() -> float:
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(40):
        a, b, c = (_random_mv(1 + i % 3, rng) for _ in range(3))
        worst = max(worst, ((a * b) * c - a * (b * c)).sup_norm())
    return worst


def check_dagger_antiautomorphism() -> float:
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(40):
        a, b = _random_mv(1 + i % 3, rng), _random_mv(1 + i % 3, rng)
        worst = max(worst, ((a * b).dagger() - b.dagger() * a.dagger()).sup_norm())
    return worst


def check_vector_square_scalar() -> float:
    """Norm property: the scalar part of a^dagger a is the coefficient norm.

    True for every multivector (general a^dagger a does leak into higher
    blades, but its scalar part is sign-definite); additionally the
    Dirac-symbol-shaped vectors -i a e_j + b e_{n+j} with a, b real square
    to exact scalars, which is what the operator symbols rely on.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        a = _random_mv(dim, rng)
        sq = a.dagger() * a
        flat = float(np.sum(np.abs(a.to_array()) ** 2))
        worst = max(worst, abs(sq.scalar_part() - flat) / max(flat, 1.0))
        coeffs = {}
        for j in range(1, dim + 1):
            coeffs[1 << (j - 1)] = -1j * rng.standard_normal()
            coeffs[1 << (dim + j - 1)] = complex(rng.standard_normal())
        v = Multivector(coeffs, dim)
        vv = v.dagger() * v
        worst = max(worst, (vv - Multivector.scalar(vv.scalar_part(), dim)).sup_norm())
    return worst


# ----------------------------------------------------------------- lattice

def check_sesquilinear_symmetry() -> float:
    rng = np.random.default_rng(19)
    worst = 0.0
    for spec in (GridSpec(2, 0.5, Fraction(1, 4), 8), GridSpec(2, 0.75, Fraction(1, 3), 6)):
        for _ in range(10):
            f, g = _random_field(spec, rng), _random_field(spec, rng)
            worst = max(worst, (sesquilinear(f, g).dagger() - sesquilinear(g, f)).sup_norm())
    return worst


def check_sesquilinear_linearity() -> float:
    rng = np.random.default_rng(23)
    worst = 0.0
    for spec in (GridSpec(1, 1.0, Fraction(1, 4), 16), GridSpec(1, 1.0, Fraction(1, 4), 8)):
        for _ in range(10):
            f, g, g2 = (_random_field(spec, rng) for _ in range(3))
            lam = complex(*rng.standard_normal(2))
            lhs = sesquilinear(f, Field(spec, lam * g.values + g2.values))
            rhs = sesquilinear(f, g) * lam + sesquilinear(f, g2)
            worst = max(worst, (lhs - rhs).sup_norm())
    return worst


# ---------------------------------------------------------------- spectral

def check_dft_roundtrip() -> float:
    rng = np.random.default_rng(29)
    worst = 0.0
    for spec in (GridSpec(1, 0.5, Fraction(1, 4), 32), GridSpec(2, 1.0, Fraction(1, 3), 8)):
        for _ in range(10):
            f = _random_field(spec, rng)
            worst = max(worst, dft_inverse(dft_forward(f)).sup_diff(f))
    return worst


def check_parseval() -> float:
    rng = np.random.default_rng(31)
    specs = (
        GridSpec(1, 0.75, Fraction(1, 4), 32),
        GridSpec(2, 1.0, Fraction(1, 3), 8),
        GridSpec(1, 0.5, Fraction(1, 4), 16),
        GridSpec(2, 1.0, Fraction(1, 4), 6),
    )
    worst = 0.0
    for i in range(20):
        spec = specs[i % len(specs)]
        f, g = _random_field(spec, rng), _random_field(spec, rng)
        lhs = momentum_sesquilinear(dft_forward(f), dft_forward(g))
        rhs = sesquilinear(f, dft_inverse(dft_forward(g)))
        worst = max(worst, (lhs - rhs).sup_norm())
    return worst


def check_convolution_theorem() -> float:
    rng = np.random.default_rng(37)
    specs = (
        GridSpec(1, 1.0, Fraction(1, 4), 32),
        GridSpec(2, 1.0, Fraction(1, 4), 16),
        GridSpec(1, 1.0, Fraction(1, 4), 16),
        GridSpec(2, 0.5, Fraction(1, 3), 4),
    )
    worst = 0.0
    for i in range(20):
        spec = specs[i % len(specs)]
        K, f = _random_field(spec, rng), _random_field(spec, rng)
        lhs = dft_forward(convolve(K, f))
        const = (2.0 * np.pi) ** (spec.n / 2.0)
        rhs_vals = const * geometric_product_arrays(dft_forward(K).values, dft_forward(f).values, spec.n)
        worst = max(worst, lhs.sup_diff(MomentumField(spec, rhs_vals)))
    return worst


def check_convolution_equivariance() -> float:
    rng = np.random.default_rng(41)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 16)
    worst = 0.0
    for _ in range(8):
        K, f = _random_field(spec, rng), _random_field(spec, rng)
        shift = int(rng.integers(1, spec.N))
        lhs = convolve(K, f.shift((shift,)))
        rhs = convolve(K, f).shift((shift,))
        worst = max(worst, lhs.sup_diff(rhs))
    return worst


# --------------------------------------------------------------- operators

SQUARE_CONDITION_GRIDS: Tuple[Tuple[int, int, float], ...] = ((1, 64, 1.0), (2, 32, 0.5), (3, 16, 1.0))
SQUARE_CONDITION_ALPHAS: Tuple[Fraction, ...] = (
    Fraction(1, 10**8),
    Fraction(1, 4),
    Fraction(1, 2),
)


def check_square_condition() -> float:
    """z(xi)^2 = d(xi)^2 * 1 at every momentum node of every grid."""
    worst = 0.0
    for n, N, h in SQUARE_CONDITION_GRIDS:
        for alpha in SQUARE_CONDITION_ALPHAS:
            spec = GridSpec(n, h, alpha, N)
            tab = symbol_tables(spec)
            zvals = dirac_multiplier(spec).values
            sq = geometric_product_arrays(zvals, zvals, spec.n)
            worst = max(worst, float(np.max(np.abs(sq[0] - tab.d2))))
            for m in range(1, spec.nblades):
                worst = max(worst, float(np.max(np.abs(sq[m]))))
    return worst


def check_operator_factorization() -> float:
    rng = np.random.default_rng(43)
    worst = 0.0
    for spec in (
        GridSpec(1, 1.0, Fraction(1, 4), 32),
        GridSpec(2, 0.5, Fraction(1, 3), 8),
        GridSpec(1, 1.0, Fraction(1, 4), 16),
        GridSpec(2, 1.0, Fraction(2, 5), 6),
    ):
        f = _random_field(spec, rng)
        lhs = dirac_apply(dirac_apply(f))
        rhs = Field(spec, -laplacian_apply(f).values)
        worst = max(worst, lhs.sup_diff(rhs))
    return worst


def check_laplacian_routes() -> float:
    rng = np.random.default_rng(47)
    worst = 0.0
    for spec in (
        GridSpec(1, 0.5, Fraction(0), 32),
        GridSpec(3, 1.0, Fraction(1, 4), 4),
        GridSpec(1, 0.5, Fraction(0), 16),
    ):
        f = _random_field(spec, rng)
        worst = max(worst, laplacian_apply(f, "stencil").sup_diff(laplacian_apply(f, "multiplier")))
    return worst


def check_self_adjointness() -> float:
    rng = np.random.default_rng(53)
    worst = 0.0
    for spec in (
        GridSpec(1, 1.0, Fraction(1, 4), 32),
        GridSpec(2, 1.0, Fraction(2, 5), 8),
        GridSpec(1, 1.0, Fraction(1, 4), 16),
    ):
        f, g = _random_field(spec, rng), _random_field(spec, rng)
        worst = max(
            worst,
            (sesquilinear(dirac_apply(f), g) - sesquilinear(f, dirac_apply(g))).sup_norm(),
            (sesquilinear(laplacian_apply(f), g) - sesquilinear(f, laplacian_apply(g))).sup_norm(),
        )
    return worst


def check_dirac_alpha_limit() -> float:
    """z at alpha = 1e-8 approaches the alpha = 0 symbol coefficientwise."""
    worst = 0.0
    for N in (64, 32):
        tiny = symbol_tables(GridSpec(1, 1.0, Fraction(1, 10**8), N))
        zero = symbol_tables(GridSpec(1, 1.0, Fraction(0), N))
        worst = max(
            worst,
            float(np.max(np.abs(tiny.vec_sin[0] - zero.vec_sin[0]))),
            float(np.max(np.abs(tiny.vec_cos[0] - zero.vec_cos[0]))),
        )
    return worst


# ----------------------------------------------------------------- specfun

def check_wright_trig() -> float:
    worst = 0.0
    for lam in np.linspace(0.0, 10.0, 81):
        worst = max(worst, abs(wright_cos(lam) - np.cos(lam)))
        if lam > 0:
            worst = max(worst, abs(wright_sinc(lam) - np.sin(lam) / lam))
    return worst


def check_mittag_leffler() -> float:
    worst = 0.0
    for lam in np.linspace(-3.0, 3.0, 25):
        worst = max(worst, abs(mittag_leffler(1.0, 1.0, lam) - np.exp(lam)))
    for lam in np.linspace(0.0, 10.0, 41):
        worst = max(worst, abs(mittag_leffler(2.0, 1.0, -lam * lam) - np.cos(lam)))
    return worst


def check_legendre_duplication() -> float:
    worst = 0.0
    for s in list(np.linspace(0.1, 5.0, 30)) + [0.7 + 0.9j, 2.3 - 1.1j]:
        lhs = gamma(2 * s)
        rhs = 2.0 ** (2 * s - 1) / np.sqrt(np.pi) * gamma(s) * gamma(s + 0.5)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def check_kilbas_classifier() -> float:
    """Classifier agrees with the convergence trichotomy on a parameter table."""
    table = [
        (FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),)), "entire", None, None),
        (FoxWrightParams((), ((0.5, 1.0),)), "entire", None, None),
        (FoxWrightParams((), ((0.0, -0.7),)), "entire", None, None),
        (FoxWrightParams(((1.0, 2.0),), ((1.0, 1.0),)), "disk", 0.25, 0.0),
        (FoxWrightParams(((0.5, 1.0),), ()), "disk", 1.0, None),
        (FoxWrightParams(((1.0, 1.0), (1.0, 1.0)), ((3.0, 1.0),)), "disk", 1.0, 1.5),
        (FoxWrightParams(((1.0, 3.0),), ((1.0, 1.0),)), "divergent", None, None),
    ]
    failures = 0.0
    for params, kind, rho, kappa_re in table:
        if params.convergence_kind() != kind:
            failures += 1
        if rho is not None and abs(params.rho - rho) > 1e-12:
            failures += 1
        if kappa_re is not None and abs(params.kappa.real - kappa_re) > 1e-12:
            failures += 1
    # boundary behaviour: |lam| = rho needs Re kappa > 1/2
    disk = FoxWrightParams(((1.0, 2.0),), ((1.0, 1.0),))
    try:
        disk.check_admissible(0.2)
    except DomainError:
        failures += 1
    try:
        disk.check_admissible(0.25)  # kappa = 0 fails on the boundary
        failures += 1
    except DomainError:
        pass
    rich = FoxWrightParams(((1.0, 1.0), (1.0, 1.0)), ((3.0, 1.0),))  # kappa = 1.5
    try:
        rich.check_admissible(1.0)
    except DomainError:
        failures += 1
    return failures


def check_levy_laplace() -> float:
    s = np.array([0.1, 1.0, 5.0])
    return max(float(np.max(np.abs(levy_laplace(nu, s) / np.exp(-(s**nu)) - 1.0))) for nu in (0.3, 0.5, 0.7))


def check_levy_half_closed_form() -> float:
    u = np.array([0.05, 0.2, 0.3, 1.0, 2.0, 4.0, 9.0, 20.0])
    target = u**-1.5 * np.exp(-1.0 / (4.0 * u)) / (2.0 * np.sqrt(np.pi))
    return float(np.max(np.abs(levy_pdf(0.5, u) - target) / target))


def check_bessel_generating_function() -> float:
    z, K = 2.0, 30
    total = bessel_i_scaled(0, z) + 2.0 * sum(bessel_i_scaled(k, z) for k in range(1, K + 1))
    return abs(total - 1.0)


def check_mellin_gamma() -> float:
    worst = 0.0
    for s in (0.5, 1.0, 2.5, 0.8 + 1.3j):
        val = mellin_transform(lambda t: np.exp(-t), s)
        worst = max(worst, abs(val - gamma(s)) / abs(gamma(s)))
    return worst


def check_mellin_scaling() -> float:
    s, beta, gam, kap = 0.8, 1.0, 2.0, 3.0
    lhs = mellin_transform(lambda t: t**beta * np.exp(-kap * t**gam), s)
    rhs = (
        1.0
        / abs(gam)
        * kap ** (-(s + beta) / gam)
        * mellin_transform(lambda t: np.exp(-t), (s + beta) / gam)
    )
    return abs(lhs - rhs) / abs(lhs)


def check_mellin_inversion() -> float:
    worst = 0.0
    for t in (0.3, 1.0, 2.5):
        val = mellin_inverse(lambda s: gamma(s), t, c=0.8, T=80.0)
        worst = max(worst, abs(val - np.exp(-t)))
    return worst


def check_mellin_convolution() -> float:
    lhs = mellin_convolve(lambda t: np.exp(-t), lambda t: np.exp(-t), 1.0)
    rhs = mellin_inverse(lambda s: gamma(s) ** 2, 1.0, c=0.8, T=80.0)
    return abs(lhs - rhs)


def check_hartman_watson_positivity() -> float:
    worst = 0.0  # most negative value seen, sign-flipped
    for r in (0.5, 1.0, 2.0, 5.0):
        for p in (0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
            worst = max(worst, -hartman_watson_theta(r, p))
    return worst


_HARTMAN_WATSON_ORDERS, _HARTMAN_WATSON_RADII = (0, 1, 2), (1.0, 2.0)
HARTMAN_WATSON_POINTS: Tuple[Tuple[int, float], ...] = tuple(
    (k, r) for r in _HARTMAN_WATSON_RADII for k in _HARTMAN_WATSON_ORDERS
)


def check_hartman_watson_laplace() -> float:
    worst = 0.0
    for r in _HARTMAN_WATSON_RADII:  # every order in one pass
        target = bessel_i_scaled(_HARTMAN_WATSON_ORDERS, r) * np.exp(r)
        got = bessel_from_hartman_watson(_HARTMAN_WATSON_ORDERS, r)
        worst = max(worst, float(np.max(np.abs(got - target) / target)))
    return worst


# ------------------------------------------------------------------ solver

_HEAT_SPEC = GridSpec(1, 1.0, Fraction(1, 4), 64)
_HEAT_TAUS = (0.1, 1.0)


def check_heat_kernel_dual_route() -> float:
    spec = _HEAT_SPEC
    worst = 0.0
    for tau in _HEAT_TAUS:
        worst = max(worst, heat_kernel(spec, tau, "multiplier").sup_diff(heat_kernel(spec, tau, "bessel")))
    return worst


def check_heat_kernel_mass() -> float:
    spec = _HEAT_SPEC
    worst = 0.0
    for tau in _HEAT_TAUS:
        for route in ("multiplier", "bessel"):
            worst = max(worst, abs(normalization_check(heat_kernel(spec, tau, route)) - 1.0))
    return worst


_ORACLE_SPEC = GridSpec(1, 1.0, Fraction(1, 4), 32)


def check_dfp_vs_oracle() -> float:
    d = delta_h(_ORACLE_SPEC)
    worst = 0.0
    for H in (0.3, 0.5, 0.75):
        pr = ModelParams(mu=1.0, sigma2=1.0, hurst=H)
        exact = dfp_evolve(d, 1.0, pr)
        stepped = dfp_evolve_stepped(d, 1.0, pr, steps=10_000)
        worst = max(worst, stepped.sup_diff(exact) / exact.sup_norm())
    return worst


def check_oracle_order() -> float:
    """Observed convergence order of the stepping oracle (smooth H = 1/2 case)."""
    d = delta_h(_ORACLE_SPEC)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.5)
    ref = dfp_evolve(d, 1.0, pr)
    errs = [dfp_evolve_stepped(d, 1.0, pr, steps=s).sup_diff(ref) for s in (16, 32, 64)]
    return min(np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))


def check_dfp_normalization() -> float:
    d = delta_h(_ORACLE_SPEC)
    worst = 0.0
    for H in (0.3, 0.75):
        pr = ModelParams(mu=1.0, sigma2=1.0, hurst=H)
        for t in (0.25, 1.0, 3.0):
            ev = dfp_evolve(d, t, pr)
            worst = max(worst, abs(normalization_check(ev) - 1.0))
            worst = max(worst, (mass(ev) - Multivector.scalar(1.0, _ORACLE_SPEC.n)).sup_norm())
    return worst


def check_dfp_kernel_convolution() -> float:
    rng = np.random.default_rng(59)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.7)
    worst = 0.0
    for _ in range(5):
        phi0 = _random_field(_ORACLE_SPEC, rng)
        FH = dfp_kernel(_ORACLE_SPEC, 0.8, pr)
        worst = max(worst, convolve(FH, phi0).sup_diff(dfp_evolve(phi0, 0.8, pr)))
    return worst


def check_semigroup() -> float:
    """Flow multipliers compose: exactly at H = 1/2, two-parameter rule otherwise."""
    tab = symbol_tables(_ORACLE_SPEC)
    d = delta_h(_ORACLE_SPEC)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.5)
    s, t = 0.4, 0.9
    worst = dfp_evolve(dfp_evolve(d, s, pr), t, pr).sup_diff(dfp_evolve(d, s + t, pr))
    # time-changed Gaussian factors obey the two-parameter composition
    for H in (0.3, 0.75):
        g = lambda u: np.exp(-0.5 * 1.0 * u ** (2 * H) * tab.d2)
        worst = max(worst, float(np.max(np.abs(g(s) * g(t) - np.exp(-0.5 * (s ** (2 * H) + t ** (2 * H)) * tab.d2)))))
    return worst


def check_kg_initial_conditions() -> float:
    d = delta_h(_ORACLE_SPEC)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.75)
    return max(klein_gordon_evolve(d, 0.0, p, pr).sup_diff(d) for p in (0.0, 0.5))


def check_kg_initial_slope() -> float:
    d = delta_h(_ORACLE_SPEC)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.75)
    dt = 1e-5
    worst = 0.0
    for p in (0.0, 0.5):
        fwd = klein_gordon_evolve(d, dt, p, pr)
        slope = (1.0 / dt) * (fwd - klein_gordon_evolve(d, 0.0, p, pr))
        target = Field(_ORACLE_SPEC, 1j * pr.mu * dirac_apply(d).values)
        worst = max(worst, slope.sup_diff(target))
    return worst


def _kg_residual(p: float, t: float, dt: float, pr: ModelParams) -> float:
    d = delta_h(_ORACLE_SPEC)
    psi_m = klein_gordon_evolve(d, t - dt, p, pr)
    psi_0 = klein_gordon_evolve(d, t, p, pr)
    psi_p = klein_gordon_evolve(d, t + dt, p, pr)
    ddt2 = (1.0 / dt**2) * (psi_p - 2.0 * psi_0 + psi_m)
    ddt1 = (0.5 / dt) * (psi_p - psi_m)
    resid = (
        ddt2
        + (4.0 * p * t) * ddt1
        + (2.0 * p + 4.0 * p * p * t * t) * psi_0
        - pr.mu**2 * laplacian_apply(psi_0)
    )
    return resid.sup_norm()


def check_kg_residual() -> float:
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.75)
    return max(_kg_residual(p, 0.5, 1e-3, pr) for p in (0.0, 0.5))


def check_kg_residual_order() -> float:
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.75)
    return min(
        np.log2(_kg_residual(p, 0.5, 1e-3, pr) / _kg_residual(p, 0.5, 5e-4, pr)) for p in (0.0, 0.5)
    )


def check_subordination_sitewise() -> float:
    d = delta_h(_ORACLE_SPEC)
    worst = 0.0
    for H in (0.5, 0.7):
        lhs, rhs = levy_subordination_check(d, 0.8, ModelParams(mu=1.0, sigma2=1.0, hurst=H))
        worst = max(worst, lhs.sup_diff(rhs) / lhs.sup_norm())
    return worst


def check_subordination_modewise() -> float:
    d = delta_h(_ORACLE_SPEC)
    worst = 0.0
    for H in (0.5, 0.7):
        lhs, rhs = levy_subordination_modewise(d, 0.8, ModelParams(mu=1.0, sigma2=1.0, hurst=H))
        worst = max(worst, lhs.sup_diff(rhs) / float(np.max(np.abs(lhs.values))))
    return worst


def check_kg_kernel_routes() -> float:
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    return max(
        kg_kernel(_ORACLE_SPEC, 0.5, pr, beta, "trig").sup_diff(kg_kernel(_ORACLE_SPEC, 0.5, pr, beta, "wright"))
        for beta in (0, 1)
    )


def check_wave_kernel_split() -> float:
    spec = _ORACLE_SPEC
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    phi0 = _random_field(spec, np.random.default_rng(61))
    t = 0.5
    c0 = spec.n * pr.sigma2 / spec.h**2
    lhs = np.exp(-c0 * t ** (2 * pr.hurst)) * klein_gordon_evolve(phi0, t, 0.0, pr)
    rhs = convolve(kg_kernel(spec, t, pr, 0), phi0) + convolve(
        kg_kernel(spec, t, pr, 1), Field(spec, 1j * dirac_apply(phi0).values)
    )
    return lhs.sup_diff(rhs)


_MELLIN_SPEC = GridSpec(1, 1.0, Fraction(1, 4), 16)


def check_mellin_fg_identity() -> float:
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    worst = 0.0
    cases = [
        (1.2, (np.pi / 2.0,), 0, pr),
        (0.9, (np.pi / 2.0,), 1, pr),
        (0.7, (np.pi / 3.0,), 0, ModelParams(mu=0.5, sigma2=2.0, hurst=0.85)),
        (1.0, (np.pi / 2.0,), 0, ModelParams(mu=0.0, sigma2=1.0, hurst=0.8)),
    ]
    for omega, xi, beta, params in cases:
        lhs, rhs = kernel_mellin_identity(omega, xi, _MELLIN_SPEC, params, beta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return worst


def check_mellin_barnes_reconstruction() -> float:
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    direct = kg_kernel(_MELLIN_SPEC, 0.5, pr, 0).values[0, 0]
    return abs(mellin_barnes_kernel((0,), 0.5, _MELLIN_SPEC, pr, 0, T=40.0).value - direct)


def check_wilson_sigma() -> float:
    """Closed forms agree, are positive, and meet the small-h cutoff estimate."""
    worst = 0.0
    for H in (0.1, 0.25, 0.3, 0.4):
        if wilson_diffusion_coefficient(H) <= 0.0:
            worst = 1.0
    # the two analytic forms are compared inside the call at 1e-12 already
    H, h = 0.3, 1e-3
    est = H * wilson_diffusion_coefficient(H) * (1.0 / h) ** (2.0 * H - 1.0)
    if not 0.0 < est < 0.5:
        worst = max(worst, abs(est))
    return worst


SUITES: Dict[str, List[Check]] = {
    "clifford": [
        Check("clifford-associativity", 1e-12, check_associativity),
        Check("clifford-dagger-antiautomorphism", 1e-12, check_dagger_antiautomorphism),
        Check("clifford-norm-scalar-part", 1e-12, check_vector_square_scalar),
    ],
    "lattice": [
        Check("lattice-sesquilinear-conjugate-symmetry", 1e-12, check_sesquilinear_symmetry),
        Check("lattice-sesquilinear-right-linearity", 1e-12, check_sesquilinear_linearity),
    ],
    "spectral": [
        Check("spectral-dft-roundtrip", 1e-12, check_dft_roundtrip),
        Check("spectral-parseval", 1e-12, check_parseval),
        Check("spectral-convolution-theorem", 1e-12, check_convolution_theorem),
        Check("spectral-convolution-equivariance", 1e-12, check_convolution_equivariance),
    ],
    "operators": [
        Check("operators-square-condition", 1e-12, check_square_condition),
        Check("operators-dirac-squares-to-laplacian", 1e-11, check_operator_factorization),
        Check("operators-laplacian-stencil-vs-multiplier", 1e-12, check_laplacian_routes),
        Check("operators-self-adjointness", 1e-12, check_self_adjointness),
        Check("operators-alpha-zero-limit", 1e-6, check_dirac_alpha_limit),
    ],
    "specfun": [
        Check("specfun-wright-trig-identities", 1e-12, check_wright_trig),
        Check("specfun-mittag-leffler", 1e-12, check_mittag_leffler),
        Check("specfun-legendre-duplication", 1e-12, check_legendre_duplication),
        Check("specfun-kilbas-classifier", 0.0, check_kilbas_classifier),
        Check("specfun-levy-laplace-identity", 1e-6, check_levy_laplace),
        Check("specfun-levy-half-closed-form", 1e-12, check_levy_half_closed_form),
        Check("specfun-bessel-generating-function", 1e-12, check_bessel_generating_function),
        Check("specfun-mellin-of-exponential", 1e-10, check_mellin_gamma),
        Check("specfun-mellin-scaling-rule", 1e-10, check_mellin_scaling),
        Check("specfun-mellin-inversion-roundtrip", 1e-5, check_mellin_inversion),
        Check("specfun-mellin-convolution-theorem", 1e-8, check_mellin_convolution),
        Check("specfun-hartman-watson-positivity", 1e-6, check_hartman_watson_positivity),
        Check("specfun-hartman-watson-laplace", 1e-4, check_hartman_watson_laplace),
    ],
    "solver": [
        Check("solver-heat-kernel-dual-route", 1e-10, check_heat_kernel_dual_route),
        Check("solver-heat-kernel-normalization", 1e-10, check_heat_kernel_mass),
        Check("solver-dfp-vs-ode-oracle", 1e-6, check_dfp_vs_oracle),
        Check("solver-ode-oracle-order", 3.7, check_oracle_order, ">="),
        Check("solver-dfp-normalization-preservation", 1e-10, check_dfp_normalization),
        Check("solver-dfp-kernel-convolution", 1e-11, check_dfp_kernel_convolution),
        Check("solver-semigroup-composition", 1e-12, check_semigroup),
        Check("solver-kg-initial-value", 1e-12, check_kg_initial_conditions),
        Check("solver-kg-initial-slope", 1e-4, check_kg_initial_slope),
        Check("solver-kg-residual", 1e-5, check_kg_residual),
        Check("solver-kg-residual-order", 1.9, check_kg_residual_order, ">="),
        Check("solver-subordination-sitewise", 1e-5, check_subordination_sitewise),
        Check("solver-subordination-modewise", 1e-5, check_subordination_modewise),
        Check("solver-kg-kernel-dual-route", 1e-10, check_kg_kernel_routes),
        Check("solver-wave-kernel-split", 1e-11, check_wave_kernel_split),
        Check("solver-mellin-fg-identity", 1e-6, check_mellin_fg_identity),
        Check("solver-mellin-barnes-reconstruction", 1e-3, check_mellin_barnes_reconstruction),
        Check("solver-wilson-diffusion-coefficient", 1e-12, check_wilson_sigma),
    ],
}


def run_suite(name: str) -> List[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [check.run() for check in SUITES[name]]


def run_all() -> List[CheckResult]:
    out: List[CheckResult] = []
    for name in SUITES:
        out.extend(run_suite(name))
    return out
