import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln as sp_gammaln
from scipy.special import iv as sp_iv

from dfplattice.specfun import (
    AccuracyWarning,
    DomainError,
    FoxWrightParams,
    bessel_from_hartman_watson,
    bessel_i_scaled,
    cancellation_floor,
    fox_wright,
    fox_wright_eval,
    gamma,
    hartman_watson_theta,
    levy_laplace,
    levy_pdf,
    levy_pdf_eval,
    mellin_convolve,
    mellin_inverse,
    mellin_parseval_check,
    mellin_transform,
    mittag_leffler,
    recip_gamma,
    wright_cos,
    wright_sinc,
)
from oracles import fox_wright_partial_sum


# ---------------------------------------------------------------- gamma

def test_gamma_half():
    assert gamma(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-14)


def test_legendre_duplication_at_0p7():
    s = 0.7
    lhs = gamma(2 * s)
    rhs = 2.0 ** (2 * s - 1) / np.sqrt(np.pi) * gamma(s) * gamma(s + 0.5)
    assert abs(lhs - rhs) / abs(lhs) < 1e-14


def test_recip_gamma_poles():
    assert recip_gamma(0.0) == 0.0
    assert recip_gamma(-3.0) == 0.0
    assert recip_gamma(-7) == 0.0
    assert recip_gamma(2.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_pole_raises():
    with pytest.raises(DomainError, match="pole"):
        gamma(-2.0)


def test_gamma_accuracy_on_strip():
    # Lanczos-grade relative accuracy against log-gamma on real points
    for s in np.linspace(0.1, 5.0, 23):
        assert abs(gamma(s) - np.exp(sp_gammaln(s))) / abs(gamma(s)) < 1e-12


# ---------------------------------------------------------------- bessel

def test_bessel_scaled_examples():
    assert bessel_i_scaled(0, 0.0) == 1.0
    assert bessel_i_scaled(3, 0.0) == 0.0
    assert bessel_i_scaled(1, 2.0) == pytest.approx(0.21526928924893765, rel=1e-13)
    assert bessel_i_scaled(-4, 1.5) == bessel_i_scaled(4, 1.5)


def test_bessel_generating_function():
    z, K = 2.0, 30
    total = bessel_i_scaled(0, z) + 2.0 * sum(bessel_i_scaled(k, z) for k in range(1, K + 1))
    assert abs(total - 1.0) < 1e-12


# ------------------------------------------------------------ fox-wright

def test_wright_all_gamma_ratios_one():
    p = FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),))
    assert abs(fox_wright(p, 2.0) - np.e**2) < 1e-12


def test_wright_cos_at_pi():
    assert abs(wright_cos(np.pi) - (-1.0)) < 1e-13


def test_wright_sinc_at_half_pi():
    assert abs(wright_sinc(np.pi / 2.0) - 2.0 / np.pi) < 1e-13


# cos and sin(lam)/lam on the 81-point grid over [0, 10] are checked by
# tests/test_acceptance.py::test_criterion_07_wright_machinery


def test_wright_classification_values():
    disk = FoxWrightParams(((1.0, 2.0),), ((1.0, 1.0),))
    assert disk.convergence_kind() == "disk"
    assert disk.rho == pytest.approx(0.25)
    assert disk.kappa == pytest.approx(0.0)
    assert FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),)).convergence_kind() == "entire"
    assert FoxWrightParams(((1.0, 3.0),), ((1.0, 1.0),)).convergence_kind() == "divergent"


def test_wright_domain_errors_carry_classification():
    disk = FoxWrightParams(((1.0, 2.0),), ((1.0, 1.0),))
    with pytest.raises(DomainError, match="rho"):
        fox_wright(disk, 0.5)
    with pytest.raises(DomainError, match="kappa"):
        fox_wright(disk, 0.25)  # boundary needs Re kappa > 1/2, here kappa = 0
    div = FoxWrightParams(((1.0, 3.0),), ((1.0, 1.0),))
    with pytest.raises(DomainError, match="divergent"):
        fox_wright(div, 0.1)
    # boundary case with Re kappa > 1/2 is admitted
    rich = FoxWrightParams(((1.0, 1.0), (1.0, 1.0)), ((3.0, 1.0),))
    assert rich.kappa == pytest.approx(1.5)
    fox_wright(rich, 1.0)


def test_wright_inside_disk_converges():
    disk = FoxWrightParams(((1.0, 2.0),), ((1.0, 1.0),))
    val = fox_wright(disk, 0.2)
    # independent partial sum
    ref = sum(
        np.exp(sp_gammaln(1 + 2 * m) - sp_gammaln(1 + m) - sp_gammaln(m + 1)) * 0.2**m
        for m in range(200)
    )
    assert abs(val - ref) < 1e-10


def test_wright_max_terms_status():
    p = FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),))
    res = fox_wright_eval(p, 30.0, max_terms=10)
    assert res.status == "max-terms"
    assert res.terms_used == 10


def test_wright_numerator_pole_raises():
    p = FoxWrightParams(((-2.0, 1.0),), ((1.0, 1.0),))
    with pytest.raises(DomainError, match="pole"):
        fox_wright(p, 0.5)


def test_wright_lambda_zero():
    p = FoxWrightParams(((0.7, 1.0),), ((1.3, 2.0),))
    assert abs(fox_wright(p, 0.0) - gamma(0.7) * recip_gamma(1.3)) < 1e-14


@st.composite
def fox_wright_rows(draw):
    """Parameter rows of the kinds the package sums, each entire in lam."""
    kind = draw(st.sampled_from(["integer", "non-integer", "levy", "mellin"]))
    pos = st.floats(0.1, 3.0)
    if kind == "integer":  # the exact-ratio rule for real lam
        upper = draw(st.sampled_from([(), ((draw(pos), 1.0),)]))
        return upper, ((draw(pos), float(draw(st.integers(1, 2)))),)
    if kind == "non-integer":
        A = draw(st.floats(0.25, 1.25))
        upper = draw(st.sampled_from([(), ((draw(pos), A),)]))
        return upper, ((draw(pos), A + draw(st.floats(0.0, 0.5))),)
    if kind == "levy":  # 0Psi1[(b, -nu)], with the pole terms of b = 0
        b = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0))]))
        return (), ((b, -draw(st.sampled_from([0.25, 0.5]) | st.floats(0.2, 0.6))),)
    # Mellin-Barnes: 1Psi1[((beta + omega)/(2H), 1/H); (beta + 1/2, 1)]
    a = complex(draw(st.floats(0.2, 1.5)), draw(st.floats(-20.0, 20.0)))
    return ((a, 1.0 / draw(st.floats(0.75, 0.95))),), ((draw(st.sampled_from([0.5, 1.5])), 1.0),)


lam_arrays = st.lists(
    st.builds(complex, st.floats(-1.4, 1.4), st.sampled_from([0.0]) | st.floats(-1.4, 1.4)),
    min_size=1,
    max_size=6,
).map(np.array)


@given(fox_wright_rows(), lam_arrays)
def test_fox_wright_matches_partial_sum_oracle(rows, lam):
    upper, lower = rows
    got = fox_wright(FoxWrightParams(upper, lower), lam)
    assert got.shape == lam.shape
    for g, l in zip(got, lam):
        want, largest = fox_wright_partial_sum(upper, lower, l)
        assert abs(g - want) <= 1e-12 * largest


# --------------------------------------------------------- mittag-leffler

def test_mittag_leffler_examples():
    assert abs(mittag_leffler(1.0, 1.0, 1.0) - np.e) < 1e-13
    assert abs(mittag_leffler(2.0, 1.0, -1.0) - np.cos(1.0)) < 1e-13
    assert abs(mittag_leffler(0.6, 0.8, 0.0) - recip_gamma(0.8)) < 1e-15
    with pytest.raises(DomainError):
        mittag_leffler(-1.0, 1.0, 0.5)


# the cos grid E_{2,1}(-lam^2) over [0, 10] is checked by criterion 07


# ------------------------------------------------------------------ levy

def test_levy_half_closed_form():
    assert levy_pdf(0.5, 1.0) == pytest.approx(0.21969564473386122, rel=1e-13)
    for u in (0.05, 0.3, 2.0, 9.0):
        target = u**-1.5 * np.exp(-1.0 / (4.0 * u)) / (2.0 * np.sqrt(np.pi))
        assert levy_pdf(0.5, u) == pytest.approx(target, rel=1e-12)


def test_levy_methods_and_consistency():
    assert levy_pdf_eval(0.7, 3.0).method == "series"
    assert levy_pdf_eval(0.7, 0.05).method == "integral"
    # routes agree where both are trustworthy
    from dfplattice.specfun.levy import _series, _zolotarev

    for nu in (0.3, 0.5, 0.7):
        for u in (1.6, 3.0, 7.0):
            if u**-nu <= 2.0:
                assert _series(nu, u) == pytest.approx(_zolotarev(nu, u), rel=1e-9)


def test_levy_underflows_gracefully():
    assert levy_pdf(0.5, 1e-8) == 0.0


def test_levy_argument_validation():
    with pytest.raises(DomainError):
        levy_pdf(1.2, 1.0)
    with pytest.raises(DomainError):
        levy_pdf(0.5, -1.0)


# the Laplace identity on nu in {0.3, 0.5, 0.7} x s in {0.1, 1, 5} is checked by
# tests/test_acceptance.py::test_criterion_06_levy_subordination


def test_levy_laplace_exp_minus_one():
    # int_0^inf e^{-u} L_{0.7}(u) du = e^{-1}
    val = levy_laplace(0.7, 1.0)
    assert type(val) is float
    assert val == pytest.approx(0.36787944117144233, rel=1e-8)
    # an array is integrated in one pass; s = 0 is the exact total mass
    s = np.array([[0.0, 0.3], [1.0, 4.0]])
    vals = levy_laplace(0.7, s)
    assert vals.shape == s.shape
    assert vals[0, 0] == 1.0
    assert vals[1, 0] == pytest.approx(0.36787944117144233, rel=1e-8)
    assert np.allclose(vals, np.exp(-(s**0.7)), rtol=1e-8, atol=0.0)
    with pytest.raises(DomainError):
        levy_laplace(0.7, np.array([1.0, -1e-3]))


def test_levy_total_mass():
    # quad of the density head plus exact series integration of the tail
    for nu in (0.3, 0.5, 0.7):
        Q = 4.0 ** (1.0 / nu) * 4.0
        head, _ = quad(lambda u: levy_pdf(nu, u), 0.0, Q, limit=600)
        tail = 0.0
        for k in range(1, 60):
            coef = recip_gamma(-nu * k).real * (-1.0) ** k / np.exp(sp_gammaln(k + 1))
            tail += coef * Q ** (-nu * k) / (nu * k)
        assert abs(head + tail - 1.0) < 1e-6
    assert levy_laplace(0.5, 0.0) == 1.0


# -------------------------------------------------------- hartman-watson

def test_theta_against_high_precision_reference():
    import mpmath as mp

    def theta_mp(r, p):
        mp.mp.dps = 40
        r_, p_ = mp.mpf(r), mp.mpf(p)
        pref = r_ / mp.sqrt(2 * mp.pi**3 * p_)
        f = lambda y: (
            mp.exp((mp.pi**2 - y**2) / (2 * p_) - r_ * mp.cosh(y))
            * mp.sinh(y)
            * mp.sin(mp.pi * y / p_)
        )
        pts = [mp.mpf(m) * p_ for m in range(0, int(12 / p) + 2)]
        return float(pref * mp.quad(f, pts))

    for r, p in ((1.0, 0.5), (1.0, 2.0), (2.0, 1.0), (0.5, 3.0)):
        assert hartman_watson_theta(r, p) == pytest.approx(theta_mp(r, p), rel=1e-9)


def test_theta_positivity_on_tame_grid():
    for r in (0.5, 1.0, 2.0, 5.0):
        for p in (0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert hartman_watson_theta(r, p, warn=False) >= -1e-6


def test_theta_warns_outside_tame_range():
    with pytest.warns(AccuracyWarning):
        hartman_watson_theta(20.0, 1.0)
    with pytest.warns(AccuracyWarning):
        hartman_watson_theta(1.0, 0.05)
    assert cancellation_floor(1.0) < 0.2


def test_hartman_watson_laplace_reconstruction():
    targets = {
        (0, 1.0): 1.2660658777520084,
        (1, 1.0): 0.565159103992485,
        (2, 1.0): 0.1357476697670383,
        (0, 2.0): 2.2795853023360673,
        (1, 2.0): 1.590636854637329,
        (2, 2.0): 0.6889484476987382,
    }
    for (k, r), target in targets.items():
        assert abs(bessel_from_hartman_watson(k, r) - target) / target < 1e-4
        assert target == pytest.approx(float(sp_iv(k, r)), rel=1e-13)


# ----------------------------------------------------------------- mellin

def test_mellin_gamma_example():
    assert abs(mellin_transform(lambda t: np.exp(-t), 0.5) - np.sqrt(np.pi)) < 1e-12


def test_mellin_scaling_rule():
    s, beta, gam, kap = 0.8, 1.0, 2.0, 3.0
    lhs = mellin_transform(lambda t: t**beta * np.exp(-kap * t**gam), s)
    rhs = (
        1.0 / abs(gam) * kap ** (-(s + beta) / gam)
        * mellin_transform(lambda t: np.exp(-t), (s + beta) / gam)
    )
    assert abs(lhs - rhs) < 1e-10


def test_mellin_inversion_roundtrip():
    for t in (0.3, 1.0, 2.5):
        val = mellin_inverse(lambda s: gamma(s), t, c=0.8, T=80.0)
        assert abs(val - np.exp(-t)) < 1e-5


def test_mellin_convolution_theorem():
    lhs = mellin_convolve(lambda t: np.exp(-t), lambda t: np.exp(-t), 1.0)
    rhs = mellin_inverse(lambda s: gamma(s) ** 2, 1.0, c=0.8, T=80.0)
    assert abs(lhs - rhs) < 1e-8
    # reference value 2 K_1(2) through an independent quadrature
    ref, _ = quad(lambda p: np.exp(-1.0 / p - p) / p, 0.0, np.inf, limit=400)
    assert abs(lhs - ref) < 1e-10


def test_mellin_parseval():
    lhs, rhs = mellin_parseval_check(
        lambda t: np.exp(-t),
        lambda t: np.exp(-2.0 * t),
        omega=1.5,
        c=0.75,
        T=80.0,
        Mf=lambda s: gamma(s),
        Mg=lambda s: 2.0 ** (-s) * gamma(s),
    )
    assert abs(lhs - rhs) < 1e-8


def test_mellin_nonconvergent_strip_raises():
    with pytest.raises(DomainError):
        mellin_transform(lambda t: 1.0 / (1.0 + t), 2.5)


def test_mellin_convolve_divergent_pair_raises():
    # int_0^inf dp/p diverges at both ends; the doubling windows never settle
    with pytest.raises(DomainError, match="not converged"):
        mellin_convolve(lambda t: 1.0, lambda t: 1.0, 1.0)


def test_mellin_complex_argument():
    s = 0.8 + 1.3j
    assert abs(mellin_transform(lambda t: np.exp(-t), s) - gamma(s)) < 1e-10
