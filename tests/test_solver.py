import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfplattice.lattice import Field, GridSpec, delta_h, mass, normalization_check
from dfplattice.operators import apply_dirac_symbol_arrays, dirac_apply, laplacian_apply, symbol_tables
from dfplattice.specfun import DomainError, bessel_i_scaled, fox_wright_eval, levy_laplace
from dfplattice.spectral import convolve
from dfplattice.solver import (
    ModelParams,
    QuadratureError,
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
    trig_factors,
    wilson_diffusion_coefficient,
)

from oracles import whole_array_transform
from test_spectral import live_blade_values

SPEC32 = GridSpec(1, 1.0, Fraction(1, 4), 32)
SPEC16 = GridSpec(1, 1.0, Fraction(1, 4), 16)
PARAMS = ModelParams(mu=1.0, sigma2=1.0, hurst=0.75)


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    return Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ----------------------------------------------------- live-blade solvers

def evolved_all_blades(phi0, scalar, cos_part, sinc_part):
    """F^-1[scalar (cos + sinc i z) F phi0] on every blade, with whole-array transforms."""
    spec = phi0.spec
    F = whole_array_transform(phi0.values, spec, forward=True)
    zF = apply_dirac_symbol_arrays(F, spec)
    out = scalar[None, ...] * (cos_part[None, ...] * F + 1j * sinc_part[None, ...] * zF)
    return whole_array_transform(out, spec, forward=False)


@settings(max_examples=40)
@given(live_blade_values(), st.sampled_from([0.05, 0.8, 3.0]))
def test_live_blade_solvers_match_all_blade_computation(case, t):
    spec, _, values = case
    params, p = ModelParams(mu=1.1, sigma2=0.7, hurst=0.65), 0.3
    d2 = symbol_tables(spec).d2
    cos_part, sinc_part = trig_factors(d2, params.mu, t)
    gaussian = np.exp(-0.5 * params.sigma2 * t ** (2.0 * params.hurst) * d2)
    damping = np.exp(-p * t * t) * np.ones_like(d2)
    phi0, delta = Field(spec, values), delta_h(spec)
    # bytes: the same bits, and dead blades exactly +0 as the whole-array route leaves them
    flow = evolved_all_blades(phi0, gaussian, cos_part, sinc_part)
    assert dfp_evolve(phi0, t, params).values.tobytes() == flow.tobytes()
    kg = evolved_all_blades(phi0, damping, cos_part, sinc_part)
    assert klein_gordon_evolve(phi0, t, p, params).values.tobytes() == kg.tobytes()
    kernel = evolved_all_blades(delta, gaussian, cos_part, sinc_part)
    assert dfp_kernel(spec, t, params).values.tobytes() == kernel.tobytes()
    heat = np.exp(-t * d2)[None, ...] * whole_array_transform(delta.values, spec, forward=True)
    assert heat_kernel(spec, t).values.tobytes() == whole_array_transform(heat, spec, forward=False).tobytes()


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


def test_stepped_oracle_builds_its_generator_once_per_grid():
    from dfplattice.solver.evolution import _generator

    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    phi0 = random_field(spec, np.random.default_rng(5))
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.5)
    _generator.cache_clear()
    first = dfp_evolve_stepped(phi0, 0.3, pr, steps=50)
    again = dfp_evolve_stepped(phi0, 0.3, pr, steps=50)
    assert _generator.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert np.array_equal(first.values, again.values)
    dirac, lap = _generator(spec)
    assert not dirac.flags.writeable and not lap.flags.writeable
    # column k is the operator on the k-th unit field
    unit = np.zeros(dirac.shape[1], dtype=complex)
    unit[5] = 1.0
    unit_field = Field(spec, unit.reshape(phi0.values.shape))
    assert np.array_equal(dirac[:, 5], dirac_apply(unit_field).values.ravel())
    assert np.array_equal(lap[:, 5], laplacian_apply(unit_field, "stencil").values.ravel())


def test_stepped_oracle_refuses_states_above_cap():
    spec = GridSpec(3, 1.0, Fraction(1, 4), 4)  # 64 blades x 64 sites
    with pytest.raises(ValueError, match="cap"):
        dfp_evolve_stepped(delta_h(spec), 1e-3, PARAMS, steps=1)


def test_dfp_mass_preserved_for_arbitrary_data():
    # the flow multiplier equals the identity at the zero mode, so the full
    # multivector-valued mass is a constant of motion for any initial field
    rng = np.random.default_rng(12)
    phi0 = random_field(SPEC32, rng)
    pr = ModelParams(mu=0.8, sigma2=2.0, hurst=0.6)
    m0 = mass(phi0)
    for t in (0.5, 2.0):
        assert (mass(dfp_evolve(phi0, t, pr)) - m0).sup_norm() < 1e-10


# ----------------------------------------------------------------- kernel

def test_kernel_convolution_representation():
    FH = dfp_kernel(SPEC32, 0.8, ModelParams(mu=1.0, sigma2=1.0, hurst=0.7))
    assert convolve(FH, delta_h(SPEC32)).sup_diff(FH) < 1e-12


# ------------------------------------------------------------ klein-gordon

def test_kg_initial_conditions():
    phi0 = random_field(SPEC32, np.random.default_rng(2))
    assert klein_gordon_evolve(phi0, 0.0, 0.5, PARAMS) is phi0


@pytest.mark.parametrize("p", [-1e-3, np.nan])
def test_kg_rejects_negative_damping(p):
    with pytest.raises(ValueError, match="p must be >= 0"):
        klein_gordon_evolve(delta_h(SPEC16), 0.5, p, PARAMS)


# ------------------------------------------------------------ subordination

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


@pytest.mark.parametrize(
    "t, mu, sigma2, hurst, digest",
    [
        (0.7117230320298709, 0.9472801390599163, 1.057562439574433, 0.6500308240357152,
         "57403f445539d97d151be4d7f2370edcc157090f75bb58db82b2e34f9fff487a"),
        (0.7667663019981376, 1.096493465103278, 1.0211420171499639, 0.7022043752881135,
         "9b1410d6878bb1015c6616926fa22a766979d440748435c0e3c50bc37d709c36"),
    ],
    ids=["desk1d-0", "desk1d-1"],
)
def test_subordination_and_levy_laplace_keep_their_bits(t, mu, sigma2, hurst, digest):
    # two benchmark draws; the digests of the modewise fields and 31 Laplace values were taken
    # while the sitewise weight still had its own cubature passes
    pr = ModelParams(mu, sigma2, hurst)
    h = hashlib.sha256()
    d = delta_h(SPEC16)
    for side in levy_subordination_modewise(d, t, pr):
        h.update(side.values.tobytes())
    h.update(levy_laplace(hurst, np.linspace(0.0, 30.0, 31)).tobytes())
    assert h.hexdigest() == digest
    # the sitewise right side is one levy_laplace weight times the undamped wave, bit for bit
    s = (SPEC16.n * sigma2 / SPEC16.h**2) ** (1.0 / hurst) * t * t
    want = levy_laplace(hurst, s) * klein_gordon_evolve(d, t, 0.0, pr).values
    assert np.array_equal(levy_subordination_check(d, t, pr)[1].values, want)


@pytest.mark.parametrize(
    "n, N, t, sigma2, hurst", [(2, 8, 1.297, 2.45, 0.571), (2, 4, 1.967, 2.49, 0.646)], ids=["2d-N8", "2d-N4"]
)
def test_subordination_sitewise_is_relative_under_tiny_damping(n, N, t, sigma2, hurst):
    # e^{-c t^{2H}} is about 1e-12 and 1e-21: an absolute head tolerance missed by 0.89 and 3.1e-2
    d = delta_h(GridSpec(n, 0.5, Fraction(1, 4), N))
    try:
        lhs, rhs = levy_subordination_check(d, t, ModelParams(1.0, sigma2, hurst))
    except QuadratureError:
        return
    assert lhs.sup_diff(rhs) / lhs.sup_norm() <= 1e-5


@pytest.mark.parametrize("t", [20.0, 25.0, 30.0])
def test_subordination_sitewise_long_time_meets_or_raises(t):
    # at t = 25 and 30 the old head pass landed no node on the integrand's narrow peak and
    # raised; the one levy_laplace pass is relative to e^{-c t^{2H}} and resolves all three
    d = delta_h(SPEC16)
    lhs, rhs = levy_subordination_check(d, t, ModelParams(1.0, 3.0, 0.7))
    assert lhs.sup_diff(rhs) / lhs.sup_norm() <= 1e-13


@settings(max_examples=30)
@given(
    st.integers(1, 3),
    st.sampled_from([4, 8]),
    st.sampled_from([0.5, 1.0]),
    st.floats(1e-8, 3.0),
    st.floats(0.5, 0.85),
    st.floats(0.1, 30.0),
)
def test_subordination_sitewise_meets_or_raises(n, N, h, sigma2, hurst, t):
    d = delta_h(GridSpec(n, h, Fraction(1, 4), N))
    try:
        lhs, rhs = levy_subordination_check(d, t, ModelParams(1.0, sigma2, hurst))
    except QuadratureError:
        return
    assert lhs.sup_diff(rhs) <= 1e-11 * lhs.sup_norm()


def test_subordination_zero_field_is_exact():
    zero = Field(SPEC16, np.zeros((SPEC16.nblades,) + SPEC16.site_shape))
    lhs, rhs = levy_subordination_check(zero, 0.8, PARAMS)
    assert lhs.sup_norm() == rhs.sup_norm() == 0.0


def test_subordination_sitewise_is_a_scalar_times_the_undamped_wave():
    # the right side is one Levy weight times psi(t|0): exact zeros stay exact
    spec = GridSpec(3, 1.0, Fraction(1, 4), 16)
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.7)
    d = delta_h(spec)
    psi0 = klein_gordon_evolve(d, 0.8, 0.0, pr).values
    rhs = levy_subordination_check(d, 0.8, pr)[1].values
    zero = psi0 == 0.0
    assert zero.any() and not rhs[zero].any()
    peak = np.unravel_index(np.argmax(np.abs(psi0)), psi0.shape)
    weight = rhs[peak] / psi0[peak]
    assert np.max(np.abs(rhs - weight * psi0)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(rhs))


def test_subordination_sitewise_solves_one_wave(monkeypatch):
    from dfplattice.solver import subordination

    calls = []

    def counted(phi0, t, p, params):
        calls.append(p)
        return klein_gordon_evolve(phi0, t, p, params)

    monkeypatch.setattr(subordination, "klein_gordon_evolve", counted)
    lhs, rhs = levy_subordination_check(delta_h(SPEC16), 0.8, ModelParams(1.0, 1.0, 0.7))
    assert lhs.sup_diff(rhs) / lhs.sup_norm() < 1e-5
    assert calls == [0.0]  # a field-valued cubature would solve once per pass of nodes


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

def test_kg_kernel_sine_vanishes_at_zero_time():
    assert kg_kernel(SPEC32, 0.0, PARAMS, 1).sup_norm() == 0.0


def test_kg_kernel_zero_drift_is_damped_delta():
    pr = ModelParams(mu=0.0, sigma2=1.0, hurst=0.75)
    t = 0.5
    target = np.exp(-t ** (2.0 * pr.hurst)) * delta_h(SPEC32)
    assert kg_kernel(SPEC32, t, pr, 0).sup_diff(target) < 1e-13


def test_kg_kernel_beta_validation():
    with pytest.raises(ValueError):
        kg_kernel(SPEC32, 0.5, PARAMS, 2)


# ------------------------------------------------------ mellin machinery

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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name, value",
    [("t", _NAN), ("t", _INF), ("T", 0.0), ("T", 1e-13), ("T", -5.0), ("T", _NAN), ("T", _INF), ("c", _NAN), ("c", _INF)],
    ids=lambda v: str(v),
)
def test_mellin_barnes_rejects_bad_arguments(name, value):
    args = {"t": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        mellin_barnes_kernel((0,), args.pop("t"), SPEC16, ModelParams(1.0, 1.0, 0.8), 0, **args)


@pytest.mark.parametrize("beta", [0, 1])
@pytest.mark.parametrize(
    "spec, site",
    [(SPEC16, (5,)), (SPEC16, (11,)), (GridSpec(2, 1.0, Fraction(1, 4), 8), (3, 1)), (GridSpec(2, 1.0, Fraction(1, 4), 8), (7, 6))],
    ids=["1d-5", "1d-11", "2d-3-1", "2d-7-6"],
)
def test_mellin_barnes_off_origin_sites_match_trig_route(spec, site, beta):
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    direct = kg_kernel(spec, 0.5, pr, beta, "trig").values[(0,) + site]
    res = mellin_barnes_kernel(site, 0.5, spec, pr, beta, T=40.0)
    assert abs(res.value - direct) <= 1e-13
    assert res.status == "ok"


def test_mellin_barnes_site_wraps_periodically():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    assert mellin_barnes_kernel((-1,), 0.5, SPEC16, pr, 0) == mellin_barnes_kernel((15,), 0.5, SPEC16, pr, 0)


def test_mellin_barnes_sums_the_contour_in_one_series_call(monkeypatch):
    from dfplattice.solver import kernels

    calls = []

    def counted(params, lam, max_terms):
        calls.append(params.shape)
        return fox_wright_eval(params, lam, max_terms)

    monkeypatch.setattr(kernels, "fox_wright_eval", counted)
    res = mellin_barnes_kernel((0,), 0.5, SPEC16, ModelParams(1.0, 1.0, 0.8), 0)
    assert res.status == "ok"
    assert len(calls) == 1  # a per-node loop would make one call per contour node
    # the upper half of the T = 40 contour: 80 panels of 12 nodes; the lower half is its conjugate
    assert calls[0] == (80 * 12, 1)


@pytest.mark.parametrize("beta", [0, 1])
@pytest.mark.parametrize(
    "spec, site",
    [(SPEC16, (3,)), (GridSpec(1, 1.0, Fraction(1, 4), 64), (5,)), (GridSpec(2, 1.0, Fraction(1, 4), 8), (3, 1))],
    ids=["1d-16", "1d-64", "2d-8"],
)
def test_mellin_barnes_half_contour_sum_equals_the_whole_contour_sum(spec, site, beta):
    from dfplattice.solver.evolution import _delta_kernel
    from dfplattice.solver.kernels import _damping_constant, _mellin_mode_multiplier
    from dfplattice.specfun.mellin import _contour

    pr, t = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8), 0.5
    omega, weights = _contour(pr.hurst - 0.5 * beta, 40.0)
    d2, modes = np.unique(symbol_tables(spec).d2, return_inverse=True)
    omega = omega.reshape(-1, 1)
    # every node of the contour, the lower half included
    vals = _mellin_mode_multiplier(d2, omega, pr, _damping_constant(spec, pr), beta) * t ** (-omega)
    whole = _delta_kernel(spec, (weights.reshape(1, -1) @ vals)[0][modes.reshape(spec.site_shape)]) / (2.0 * np.pi)
    scale = np.max(np.abs(whole))
    for at in (site, (0,) * spec.n):
        assert abs(mellin_barnes_kernel(at, t, spec, pr, beta).value - whole[at]) <= 1e-14 * scale


@settings(max_examples=30)
@given(
    st.integers(1, 2),
    st.sampled_from([4, 8, 16]),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.1, 2.0),
    st.floats(0.1, 2.0),
    st.floats(0.1, 2.0),
    st.integers(0, 1),
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
)
def test_mellin_barnes_meets_the_trig_route_or_raises(n, N, h, alpha, share, mu, sigma2, t, beta, ks):
    # H anywhere in [alpha + 1/2, 0.99), the hypothesis of the 1Psi1 representation
    hurst = float(alpha) + 0.5 + share * (0.49 - float(alpha))
    spec, pr = GridSpec(n, h, alpha, N), ModelParams(mu, sigma2, hurst)
    site = tuple(k % N for k in ks[:n])
    try:
        value = mellin_barnes_kernel(site, t, spec, pr, beta).value
    except DomainError:
        return
    assert abs(value - kg_kernel(spec, t, pr, beta, "trig").values[(0,) + site]) <= 1e-3


def test_mellin_barnes_integrand_decays():
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    c = pr.hurst  # H - beta/2 at beta = 0, the default abscissa

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
    # a contour cut at T = 2 leaves a tail above the tolerance: refused, not flagged
    pr = ModelParams(mu=1.0, sigma2=1.0, hurst=0.8)
    with pytest.raises(DomainError, match=r"tail bound .* against the tolerance 1e-06"):
        mellin_barnes_kernel((0,), 0.5, SPEC16, pr, 0, T=2.0)


@pytest.mark.parametrize(
    "N, h, sigma2, t, reason",
    [(8, 0.5, 0.3, 0.3, "budget of 500 terms"), (16, 0.5, 0.2, 0.5, "budget of 500 terms"),
     (64, 0.5, 0.1, 0.5, "budget of 500 terms"), (16, 1.0, 0.8, 0.5, "cancellation .* exceeds the budget")],
)
def test_mellin_barnes_refuses_series_past_its_budgets(N, h, sigma2, t, reason):
    # the first three returned -1.27e34 for 1.01, NaN after 2.7 s, and NaN after 151 s
    spec = GridSpec(1, h, Fraction(0), N)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=reason):
        mellin_barnes_kernel((0,), t, spec, ModelParams(mu=1.0, sigma2=sigma2, hurst=0.6), 0)
    assert time.perf_counter() - start < 5.0  # the budgets bound the work


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


def test_wilson_sigma_is_accurate_next_to_half():
    # both closed forms cancel 0/0 at H = 1/2, where the slope of sigma2(H) is 2 euler_gamma - 2
    near = [0.5 + sign * 10.0**-e for e in range(3, 17) for sign in (-1.0, 1.0)]
    for toward in (0.0, 1.0):
        H = 0.5
        for _ in range(4):
            H = float(np.nextafter(H, toward))
            near.append(H)
    for H in near:
        assert abs(wilson_diffusion_coefficient(H) - 1.0) <= abs(H - 0.5) + 4e-16


@given(st.floats(1e-6, 1.0 - 1e-6).filter(lambda H: H != 0.5))
def test_wilson_sigma_positive_off_half(H):
    assert wilson_diffusion_coefficient(H) > 0.0


@pytest.mark.parametrize("field", ["mu", "sigma2"])
@pytest.mark.parametrize("value", [_NAN, _INF, -_INF])
def test_model_params_reject_non_finite(field, value):
    kwargs = dict(mu=1.0, sigma2=1.0, hurst=0.7)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("t", [_NAN, _INF])
def test_solvers_reject_non_finite_time(t):
    calls = [
        lambda: dfp_evolve(delta_h(SPEC16), t, PARAMS),
        lambda: dfp_kernel(SPEC16, t, PARAMS),
        lambda: klein_gordon_evolve(delta_h(SPEC16), t, 0.0, PARAMS),
        lambda: heat_kernel(SPEC16, t),
        lambda: heat_kernel(SPEC16, t, "bessel"),
    ] + [lambda route=route, beta=beta: kg_kernel(SPEC16, t, PARAMS, beta, route) for route in ("trig", "wright") for beta in (0, 1)]
    for call in calls:
        with pytest.raises(ValueError, match="must be finite"):
            call()


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.5)
