from fractions import Fraction

import numpy as np
import pytest

from dfplattice.lattice import Field, GridSpec, delta_h, mass, normalization_check
from dfplattice.operators import dirac_apply, symbol_tables
from dfplattice.specfun import DomainError, bessel_i_scaled
from dfplattice.spectral import convolve
from dfplattice.solver import (
    ModelParams,
    default_contour_abscissa,
    dfp_evolve,
    dfp_evolve_stepped,
    dfp_kernel,
    heat_kernel,
    kernel_mellin_identity,
    kg_kernel,
    kg_kernel_mellin,
    klein_gordon_evolve,
    levy_subordination_check,
    levy_subordination_modewise,
    mellin_barnes_kernel,
    wilson_diffusion_coefficient,
)

SPEC32 = GridSpec(1, 1.0, Fraction(1, 4), 32)
SPEC16 = GridSpec(1, 1.0, Fraction(1, 4), 16)
PARAMS = ModelParams(mu=1.0, sigma2=1.0, hurst=0.75)


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    return Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ------------------------------------------------------------- heat kernel

def test_heat_kernel_tau_zero_is_delta():
    spec = GridSpec(1, 0.5, Fraction(1, 4), 8)
    assert heat_kernel(spec, 0.0).sup_diff(delta_h(spec)) == 0.0


@pytest.mark.parametrize(
    "N,tau",
    [pytest.param(64, tau, id=str(tau)) for tau in (0.1, 0.25, 1.0)]
    # wide kernels on small grids wrap around the torus many times
    + [pytest.param(4, 10.0, id="N4-10.0"), pytest.param(8, 20.0, id="N8-20.0")],
)
def test_heat_kernel_dual_route_and_mass(N, tau):
    spec = GridSpec(1, 1.0, Fraction(1, 4), N)
    ka = heat_kernel(spec, tau, "multiplier")
    kb = heat_kernel(spec, tau, "bessel")
    assert ka.sup_diff(kb) < 1e-10
    assert abs(normalization_check(ka) - 1.0) < 1e-10
    assert abs(normalization_check(kb) - 1.0) < 1e-10


def test_heat_kernel_bessel_route_values():
    # spot check one site against the scaled-Bessel product by hand
    spec = GridSpec(1, 1.0, Fraction(1, 4), 64)
    tau = 0.25
    k = heat_kernel(spec, tau, "bessel")
    z = 2.0 * tau / spec.h**2
    expect = bessel_i_scaled(3, z)  # site 3, unit normalization constant
    assert k.values[0, 3].real == pytest.approx(expect, rel=1e-10)


# ------------------------------------------------------------------- flow

def test_dfp_t_zero_identity():
    rng = np.random.default_rng(0)
    f = random_field(SPEC32, rng)
    assert dfp_evolve(f, 0.0, PARAMS) is f


def test_dfp_zero_drift_matches_heat_kernel():
    t = 0.7
    p0 = ModelParams(mu=0.0, sigma2=1.0, hurst=0.75)
    lhs = dfp_evolve(delta_h(SPEC32), t, p0)
    tau = 0.5 * p0.sigma2 * t ** (2.0 * p0.hurst)
    assert lhs.sup_diff(heat_kernel(SPEC32, tau, "bessel")) < 1e-12


def test_dfp_zero_drift_equals_damped_bessel_product():
    # the full-flow kernel at mu = 0 is the damped scaled-Bessel product field
    t, p0 = 0.9, ModelParams(mu=0.0, sigma2=1.0, hurst=0.6)
    FH = dfp_kernel(SPEC32, t, p0)
    z = p0.sigma2 * t ** (2.0 * p0.hurst) / SPEC32.h**2
    offsets = np.where(np.arange(32) <= 16, np.arange(32), np.arange(32) - 32)
    prod = np.array([bessel_i_scaled(int(k), z) for k in offsets])
    assert np.max(np.abs(FH.values[0] - prod / SPEC32.h)) < 1e-12


def test_stepped_oracle_trivial_evolution_is_identity():
    # mu = 0 and sigma2 = 0: the right-hand side vanishes, any step count
    rng = np.random.default_rng(11)
    phi0 = random_field(SPEC32, rng)
    pr = ModelParams(mu=0.0, sigma2=0.0, hurst=0.5)
    for steps in (1, 7):
        assert dfp_evolve_stepped(phi0, 1.0, pr, steps=steps).sup_diff(phi0) == 0.0


def test_dfp_pure_dirac_against_stepped():
    pr = ModelParams(mu=1.0, sigma2=0.0, hurst=0.5)
    exact = dfp_evolve(delta_h(SPEC32), 1.0, pr)
    stepped = dfp_evolve_stepped(delta_h(SPEC32), 1.0, pr, steps=4000)
    assert stepped.sup_diff(exact) / exact.sup_norm() < 1e-6


# the sigma2 > 0 comparison at 10 000 steps and the observed order are
# checked by tests/test_acceptance.py::test_criterion_04_dfp_vs_ode_oracle


def test_stepped_oracle_stability_guard():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.5)
    with pytest.raises(ValueError, match="unstable"):
        dfp_evolve_stepped(delta_h(SPEC32), 10.0, pr, steps=5)


def test_stepped_oracle_starts_after_singularity():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.3)
    with pytest.raises(ValueError, match="start"):
        dfp_evolve_stepped(delta_h(SPEC32), 0.005, pr, steps=10)
    # t^{2H-1} is singular at 0 for H < 1/2: an explicit zero start is refused
    with pytest.raises(ValueError, match="start time must be > 0"):
        dfp_evolve_stepped(delta_h(SPEC32), 1.0, ModelParams(1.0, 1.0, 0.45), steps=500, t_start=0.0)


def test_stepped_oracle_two_dimensional_all_blades():
    # the dense generator's columns run over blades and both site axes
    spec = GridSpec(2, 1.0, Fraction(1, 4), 4)
    phi0 = random_field(spec, np.random.default_rng(3))
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.5)  # constant diffusion: RK4 order holds from 0
    exact = dfp_evolve(phi0, 0.5, pr)
    stepped = dfp_evolve_stepped(phi0, 0.5, pr, steps=400)
    assert stepped.sup_diff(exact) / exact.sup_norm() < 1e-6


def test_stepped_oracle_refuses_states_above_cap():
    spec = GridSpec(3, 1.0, Fraction(1, 4), 4)  # 64 blades x 64 sites
    with pytest.raises(ValueError, match="cap"):
        dfp_evolve_stepped(delta_h(spec), 1e-3, PARAMS, steps=1)


# normalization of the evolved delta (H = 0.3, 0.75; t = 0.25, 1, 3) is
# checked by tests/test_acceptance.py::test_criterion_10_self_adjointness_and_normalization


def test_dfp_mass_preserved_for_arbitrary_data():
    # the flow multiplier equals the identity at the zero mode, so the full
    # multivector-valued mass is a constant of motion for any initial field
    rng = np.random.default_rng(12)
    phi0 = random_field(SPEC32, rng)
    pr = ModelParams(mu=0.8, sigma2=2.0, hurst=0.6)
    m0 = mass(phi0)
    for t in (0.5, 2.0):
        assert (mass(dfp_evolve(phi0, t, pr)) - m0).sup_norm() < 1e-10


def test_semigroup_at_half_and_two_parameter_rule():
    d = delta_h(SPEC32)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.5)
    s, t = 0.4, 0.9
    assert dfp_evolve(dfp_evolve(d, s, pr), t, pr).sup_diff(dfp_evolve(d, s + t, pr)) < 1e-12
    tab = symbol_tables(SPEC32)
    for H in (0.3, 0.75):
        g = lambda u: np.exp(-0.5 * u ** (2 * H) * tab.d2)
        assert np.max(np.abs(g(s) * g(t) - g((s ** (2 * H) + t ** (2 * H)) ** (1 / (2 * H))))) < 1e-12


# ----------------------------------------------------------------- kernel

def test_kernel_convolution_representation():
    rng = np.random.default_rng(1)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.7)
    FH = dfp_kernel(SPEC32, 0.8, pr)
    assert convolve(FH, delta_h(SPEC32)).sup_diff(FH) < 1e-12
    for _ in range(3):
        phi0 = random_field(SPEC32, rng)
        assert convolve(FH, phi0).sup_diff(dfp_evolve(phi0, 0.8, pr)) < 1e-11


# ------------------------------------------------------------ klein-gordon

def test_kg_initial_conditions():
    rng = np.random.default_rng(2)
    phi0 = random_field(SPEC32, rng)
    assert klein_gordon_evolve(phi0, 0.0, 0.5, PARAMS) is phi0
    dt = 1e-5
    for p in (0.0, 0.5):
        fwd = klein_gordon_evolve(delta_h(SPEC32), dt, p, PARAMS)
        slope = (1.0 / dt) * (fwd - delta_h(SPEC32))
        target = Field(SPEC32, 1j * PARAMS.mu * dirac_apply(delta_h(SPEC32)).values)
        assert slope.sup_diff(target) < 1e-4


# the wave-equation residual and its order in dt are checked by
# tests/test_acceptance.py::test_criterion_05_klein_gordon_residual


# ------------------------------------------------------------ subordination

# the sitewise and modewise comparisons at H = 0.5, 0.7, t = 0.8 are checked by
# tests/test_acceptance.py::test_criterion_06_levy_subordination


def test_subordination_zero_mode_exact():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.7)
    lhs, rhs = levy_subordination_modewise(delta_h(SPEC32), 0.8, pr)
    assert lhs.values[0, 0] == rhs.values[0, 0]


def test_subordination_sitewise_drawn_case():
    # a draw on which a raw |K15 - G7| error estimate stopped early (1.74e-5)
    d = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 16))
    pr = ModelParams(0.9282393526004363, 1.0696746240197068, 0.6647976455620032)
    lhs, rhs = levy_subordination_check(d, 0.8791121940142335, pr)
    assert lhs.sup_diff(rhs) / lhs.sup_norm() < 1e-5


def test_subordination_degenerate_diffusion():
    # sigma2 = 0 collapses both sides to the undamped wave solution
    pr = ModelParams(mu=1.0, sigma2=0.0, hurst=0.7)
    lhs, rhs = levy_subordination_check(delta_h(SPEC32), 0.8, pr)
    assert lhs.sup_diff(rhs) == 0.0
    # and the c -> 0 limit is approached smoothly (tested at c = 1e-8)
    pr_eps = ModelParams(mu=1.0, sigma2=1e-8, hurst=0.7)
    lhs, rhs = levy_subordination_check(delta_h(SPEC32), 0.8, pr_eps)
    assert lhs.sup_diff(rhs) / lhs.sup_norm() < 1e-5


# ----------------------------------------------------------- wave kernels

def test_kg_kernel_routes_agree():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    for beta in (0, 1):
        kt = kg_kernel(SPEC32, 0.5, pr, beta, "trig")
        kw = kg_kernel(SPEC32, 0.5, pr, beta, "wright")
        assert kt.sup_diff(kw) < 1e-10


def test_kg_kernel_sine_vanishes_at_zero_time():
    assert kg_kernel(SPEC32, 0.0, PARAMS, 1).sup_norm() == 0.0


def test_kg_kernel_zero_drift_is_damped_delta():
    pr = ModelParams(mu=0.0, sigma2=1.0, hurst=0.75)
    t = 0.5
    target = np.exp(-t ** (2.0 * pr.hurst)) * delta_h(SPEC32)
    assert kg_kernel(SPEC32, t, pr, 0).sup_diff(target) < 1e-13


def test_wave_kernel_split_identity():
    rng = np.random.default_rng(3)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    phi0 = random_field(SPEC32, rng)
    t = 0.5
    c0 = SPEC32.n * pr.sigma2 / SPEC32.h**2
    lhs = np.exp(-c0 * t ** (2 * pr.hurst)) * klein_gordon_evolve(phi0, t, 0.0, pr)
    rhs = convolve(kg_kernel(SPEC32, t, pr, 0), phi0) + convolve(
        kg_kernel(SPEC32, t, pr, 1), Field(SPEC32, 1j * dirac_apply(phi0).values)
    )
    assert lhs.sup_diff(rhs) < 1e-11


def test_kg_kernel_beta_validation():
    with pytest.raises(ValueError):
        kg_kernel(SPEC32, 0.5, PARAMS, 2)


# ------------------------------------------------------ mellin machinery

def test_kernel_mellin_identity_points():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    for omega, beta in ((1.2, 0), (0.9, 1)):
        lhs, rhs = kernel_mellin_identity(omega, (np.pi / 2.0,), SPEC16, pr, beta)
        assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_kernel_mellin_identity_zero_drift_single_term():
    pr = ModelParams(mu=0.0, sigma2=1.0, hurst=0.8)
    lhs, rhs = kernel_mellin_identity(1.0, (np.pi / 2.0,), SPEC16, pr, 0)
    # mu = 0 collapses the closed form to its first series term
    from dfplattice.specfun import gamma

    analytic = 1.0 / (2.0 * pr.hurst) * gamma(1.0 / (2.0 * pr.hurst))
    assert abs(rhs - analytic) < 1e-12
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_kernel_mellin_requires_superdiffusive_hurst():
    with pytest.raises(DomainError, match="alpha"):
        kernel_mellin_identity(1.2, (np.pi / 2.0,), SPEC16, ModelParams(1.0, 1.0, 0.6), 0)
    with pytest.raises(DomainError):
        mellin_barnes_kernel((0,), 0.5, SPEC16, ModelParams(1.0, 1.0, 0.6), 0)


def test_kg_kernel_mellin_field_even_and_finite():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    W = kg_kernel_mellin(SPEC16, complex(0.8, 3.0), pr, 0)
    assert np.all(np.isfinite(W.values))
    v = W.values[0]
    flipped = np.roll(v[::-1], 1)  # site map y -> -y mod N
    assert np.max(np.abs(v - flipped)) < 1e-15
    assert np.max(np.abs(v.real - flipped.real)) < 1e-15


def test_mellin_barnes_reconstruction():
    # beta = 0 at site 0 is acceptance criterion 09
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    direct = kg_kernel(SPEC16, 0.5, pr, 1).values[(0, 0)]
    res = mellin_barnes_kernel((0,), 0.5, SPEC16, pr, 1, T=40.0)
    assert abs(res.value - direct) < 1e-3
    assert res.status == "ok"
    # off-origin site as well
    direct = kg_kernel(SPEC16, 0.5, pr, 0).values[(0, 3)]
    res = mellin_barnes_kernel((3,), 0.5, SPEC16, pr, 0, T=40.0)
    assert abs(res.value - direct) < 1e-3
    # a site needs one coordinate per lattice axis
    with pytest.raises(ValueError, match="coordinates"):
        mellin_barnes_kernel((3, 0), 0.5, SPEC16, pr, 0)


def test_mellin_barnes_integrand_decays():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    c = default_contour_abscissa(pr, 0)

    def mag(tau):
        om = complex(c, tau)
        return abs(kg_kernel_mellin(SPEC16, om, pr, 0).values[(0, 0)] * 0.5 ** (-om))

    m0 = mag(0.0)
    for T in (10.0, 20.0, 40.0):
        assert mag(T) <= m0


def test_mellin_barnes_sine_kernel_t_zero():
    res = mellin_barnes_kernel((0,), 0.0, SPEC16, ModelParams(1.0, 1.0, 0.8), 1)
    assert res.value == 0.0
    assert kg_kernel(SPEC16, 0.0, ModelParams(1.0, 1.0, 0.8), 1).sup_norm() == 0.0


def test_mellin_barnes_tail_warning_status():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    res = mellin_barnes_kernel((0,), 0.5, SPEC16, pr, 0, T=2.0)
    assert res.status == "tail-warning"


# --------------------------------------------------------- wilson constant

def test_wilson_sigma_forms_and_signs():
    for H in (0.1, 0.25, 0.3, 0.4, 0.7):
        v = wilson_diffusion_coefficient(H)
        assert v > 0.0
    # closed forms compared internally at 1e-12; check one value independently
    H = 0.3
    from dfplattice.specfun import gamma

    expect = gamma(2 - 2 * H).real / (np.pi * H * (2 * H - 1)) * np.cos(np.pi * (H - 1))
    assert wilson_diffusion_coefficient(H) == pytest.approx(expect, rel=1e-14)


def test_wilson_sigma_cutoff_estimate():
    H, h = 0.3, 1e-3
    est = H * wilson_diffusion_coefficient(H) * (1.0 / h) ** (2.0 * H - 1.0)
    assert 0.0 < est < 0.5


def test_wilson_sigma_half_is_removable():
    with pytest.raises(ValueError, match="limit"):
        wilson_diffusion_coefficient(0.5)
    # continuity toward the limit value 1
    assert wilson_diffusion_coefficient(0.5 + 1e-7) == pytest.approx(1.0, abs=1e-5)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.5, p=-2.0)
