import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln as sp_gammaln
from scipy.special import iv as sp_iv

from dfplattice.specfun import (
    DomainError,
    FoxWrightParams,
    QuadratureError,
    bessel_from_hartman_watson,
    bessel_i_scaled,
    fox_wright,
    fox_wright_eval,
    gamma,
    hartman_watson_theta,
    levy_laplace,
    levy_pdf,
    levy_pdf_eval,
    log_gamma,
    mellin_convolve,
    mellin_inverse,
    mellin_transform,
    mittag_leffler,
    recip_gamma,
    wright_cos,
    wright_sinc,
)
from dfplattice.lattice import GridSpec
from dfplattice.operators import symbol_tables
from dfplattice.specfun.gammafn import _cubature
from dfplattice.specfun.hartman_watson import _cancellation_floor
from dfplattice.specfun.mellin import _contour
from oracles import fox_wright_partial_sum, hartman_watson_theta_loop, levy_half_pdf


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma(np.nan),
        lambda: gamma(np.array([1.0, complex(0.5, np.inf)])),
        lambda: recip_gamma(np.inf),
        lambda: bessel_i_scaled(1, np.nan),
        lambda: bessel_i_scaled(np.array([0, 1]), np.array([1.0, np.inf])),
        lambda: FoxWrightParams(((np.nan, 1.0),), ()),
        lambda: FoxWrightParams((), ((0.5, np.inf),)),
        lambda: FoxWrightParams((), ((np.array([0.5, np.nan]), 1.0),)),
        lambda: fox_wright_eval(FoxWrightParams((), ((0.5, 1.0),)), np.nan),
        lambda: fox_wright_eval(FoxWrightParams((), ((0.5, 1.0),)), np.array([1.0, -np.inf])),
        lambda: levy_laplace(0.7, np.inf),
        lambda: levy_laplace(0.7, np.array([1.0, np.nan])),
    ],
)
def test_non_finite_arguments_raise(call):
    with pytest.raises(DomainError, match="must be finite"):
        call()


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


# ------------------------------------------------------------ fox-wright

def test_wright_all_gamma_ratios_one():
    p = FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),))
    assert abs(fox_wright(p, 2.0) - np.e**2) < 1e-12


def test_wright_cos_at_pi():
    assert abs(wright_cos(np.pi) - (-1.0)) < 1e-13


def test_wright_sinc_at_half_pi():
    assert abs(wright_sinc(np.pi / 2.0) - 2.0 / np.pi) < 1e-13


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


@st.composite
def mellin_axes(draw):
    """Mellin-Barnes rows with one upper value per contour node, shape (P, 1)."""
    nodes = st.builds(complex, st.floats(0.2, 1.5), st.floats(-20.0, 20.0))
    a = np.array(draw(st.lists(nodes, min_size=1, max_size=5)))[:, None]
    A = 1.0 / draw(st.floats(0.75, 0.95))
    return a, A, draw(st.sampled_from([0.5, 1.5]))


@given(mellin_axes(), lam_arrays)
def test_fox_wright_parameter_axis_matches_oracle(axis, lam):
    # (P, 1) rows against (M,) lam: the product path
    a, A, b = axis
    res = fox_wright_eval(FoxWrightParams(((a, A),), ((b, 1.0),)), lam)
    shape = (a.shape[0], lam.size)
    assert res.value.shape == res.status.shape == res.cancellation.shape == shape
    for (p, j), got in np.ndenumerate(res.value):
        upper = ((a[p, 0], A),)
        want, largest = fox_wright_partial_sum(upper, ((b, 1.0),), lam[j])
        assert abs(got - want) <= 1e-12 * largest
        # the scalar call takes the slab path: the same sum in another order
        single = fox_wright_eval(FoxWrightParams(upper, ((b, 1.0),)), lam[j])
        assert abs(got - single.value) <= 1e-12 * largest
        assert res.status[p, j] == single.status == "converged"
        # sum |term| / |value| bounds the oracle's max |term| / |value| from above
        assert res.cancellation[p, j] * (1.0 + 1e-12) >= largest / (abs(want) + 1e-12 * largest)


@pytest.mark.parametrize("pole", [0.0, -1.0])
def test_fox_wright_parameter_axis_pole_raises(pole):
    a = np.array([0.7 + 2.0j, pole, 1.1 - 3.0j])[:, None]
    with pytest.raises(DomainError, match="pole"):
        fox_wright(FoxWrightParams(((a, 1.25),), ((0.5, 1.0),)), np.array([-0.3, 0.8]))


@pytest.mark.parametrize("axis", [True, False], ids=["parameter-axis", "scalar-rows"])
def test_fox_wright_slabs_match_per_slab_calls(axis):
    from dfplattice.specfun.wright import _SLAB

    n = _SLAB + 37
    rng = np.random.default_rng(8)
    lam = rng.uniform(-1.4, 1.4, n) + 1j * rng.uniform(-1.4, 1.4, n)
    a = rng.uniform(0.2, 1.5, n) + 1j * rng.uniform(-20.0, 20.0, n) if axis else np.full(n, 0.7 + 2.0j)
    rows = lambda s: FoxWrightParams(((a[s] if axis else a[0], 1.25),), ((0.5, 1.0),))
    whole = fox_wright_eval(rows(slice(None)), lam)
    parts = [fox_wright_eval(rows(s), lam[s]) for s in (slice(0, _SLAB), slice(_SLAB, n))]
    assert np.array_equal(whole.value, np.concatenate([r.value for r in parts]))
    assert np.array_equal(whole.cancellation, np.concatenate([r.cancellation for r in parts]))
    assert np.array_equal(whole.status, np.concatenate([r.status for r in parts]))
    assert whole.terms_used == max(r.terms_used for r in parts)


def _mellin_barnes_rows():
    """Mellin-Barnes-shaped rows: one upper value per contour node, a scalar lower row."""
    omega = 0.8 + 1j * np.linspace(-40.0, 40.0, 240)[:, None]
    return FoxWrightParams(((omega / 1.6, 1.25),), ((0.5, 1.0),)), -np.linspace(0.0, 3.0, 9) / 4.0


def _no_slabs(*args):
    raise AssertionError("a product-path call reached the slab path")


def test_fox_wright_scalar_row_is_not_broadcast(monkeypatch):
    # on the product path the lower row's log-Gammas are one (terms x 1) column per block
    from dfplattice.specfun import wright

    shapes = []

    def recording(s):
        if np.all(np.imag(s) == 0.0):  # the lower row's b + B m; the upper row is complex
            shapes.append(np.shape(s))
        return log_gamma(s)

    monkeypatch.setattr(wright, "log_gamma", recording)
    monkeypatch.setattr(wright, "_sum_slab", _no_slabs)
    fox_wright_eval(*_mellin_barnes_rows())
    assert shapes and all(shape == (wright._BLOCK, 1) for shape in shapes)


def test_fox_wright_product_path_takes_outer_products_only(monkeypatch):
    from dfplattice.specfun import wright

    calls = []
    monkeypatch.setattr(wright, "_sum_product", lambda *args: calls.append(args) or _no_slabs())
    # scalar rows (the Wright route and the Levy series), exact-ratio rows on an axis,
    # and an axis paired element by element with lam all stay on the slab path
    fox_wright_eval(FoxWrightParams((), ((0.5, 1.0),)), np.array([-1.0, 2.0j]))
    fox_wright_eval(FoxWrightParams((), ((0.0, -0.5),)), np.array([-1.0, -2.0]))
    fox_wright_eval(FoxWrightParams((), ((np.array([0.5, 1.5])[:, None], 1.0),)), np.array([-1.0, 2.0j]))
    fox_wright_eval(FoxWrightParams(((np.array([0.7 + 2.0j, 0.9]), 1.25),), ((0.5, 1.0),)), np.array([-1.0, 2.0]))
    assert not calls
    with pytest.raises(AssertionError, match="slab"):
        fox_wright_eval(*_mellin_barnes_rows())
    assert len(calls) == 1


def test_fox_wright_product_terms_grow_with_largest_lam():
    rows, _ = _mellin_barnes_rows()
    terms = []
    for top in (0.5, 4.0, 16.0):
        res = fox_wright_eval(rows, -np.linspace(0.0, top, 5))
        assert np.all(res.status == "converged")
        assert res.value.shape == (240, 5)
        assert np.all(res.cancellation[:, 0] == 1.0)  # lam = 0 is its m = 0 term
        terms.append(res.terms_used)
    assert terms[0] < terms[1] < terms[2]


def test_fox_wright_product_max_terms_status():
    rows, lam = _mellin_barnes_rows()
    res = fox_wright_eval(rows, lam, max_terms=10)
    assert res.terms_used == 10
    assert np.all(res.status[:, 0] == "converged")  # lam = 0
    assert np.all(res.status[:, 1:] == "max-terms")
    assert np.all(fox_wright_eval(rows, lam).status == "converged")


def test_fox_wright_product_rescales_each_element():
    # values from 1e-273 (Im a = -400 at lam = 1e-150) to 1e257 (lam = 600) in one call:
    # no one power-of-two unit holds both, so each element keeps its own
    a = (0.3 + 1j * np.array([-400.0, 0.0, 25.0]))[:, None]
    lower = ((1.5, 1.0),)
    lam = np.array([1e-150, -3.0, 40.0j, 600.0])
    res = fox_wright_eval(FoxWrightParams(((a, 1.0),), lower), lam)
    assert np.all(res.status == "converged")
    for (p, j), got in np.ndenumerate(res.value):
        single = fox_wright_eval(FoxWrightParams(((a[p, 0], 1.0),), lower), lam[j])
        largest = single.cancellation * abs(single.value)
        assert abs(got - single.value) <= 1e-12 * max(largest, abs(single.value))
    assert abs(res.value[0, 0]) < 1e-270 and abs(res.value[1, 3]) > 1e250


def test_fox_wright_rule_is_chosen_per_element():
    # a complex companion must not move a real element off the exact-ratio rule
    p = FoxWrightParams((), ((0.5, 1.0),))
    mixed = fox_wright_eval(p, np.array([-100.0, 1j]))
    single = fox_wright_eval(p, -100.0)
    assert mixed.value[0] == single.value
    assert mixed.value[0].imag == 0.0
    assert mixed.cancellation[0] == single.cancellation


# --------------------------------------------------------- mittag-leffler

def test_mittag_leffler_examples():
    assert abs(mittag_leffler(1.0, 1.0, 1.0) - np.e) < 1e-13
    assert abs(mittag_leffler(2.0, 1.0, -1.0) - np.cos(1.0)) < 1e-13
    assert abs(mittag_leffler(0.6, 0.8, 0.0) - recip_gamma(0.8)) < 1e-15
    with pytest.raises(DomainError):
        mittag_leffler(-1.0, 1.0, 0.5)


# ------------------------------------------------------------------ levy

def test_levy_half_closed_form():
    assert levy_pdf(0.5, 1.0) == pytest.approx(0.21969564473386122, rel=1e-13)


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


@st.composite
def levy_arguments(draw):
    """(nu, u): u log-uniform in [1e-8, 1e3], plus points at the series switch and deep in the underflow."""
    nu = draw(st.floats(0.05, 0.8, exclude_min=True))
    edge = 2.0 ** (-1.0 / nu)  # u^{-nu} = 2, where the series hands over to the integral
    point = st.floats(np.log(1e-8), np.log(1e3)).map(np.exp) | st.sampled_from(
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 1e-8]
    )
    return nu, np.array(draw(st.lists(point, min_size=1, max_size=12)))


@given(levy_arguments())
def test_levy_pdf_array_matches_scalar_calls(case):
    nu, u = case
    got = levy_pdf(nu, u)
    assert got.shape == u.shape
    for g, x in zip(got, u):
        want = levy_pdf(nu, float(x))
        assert type(want) is float
        assert abs(g - want) <= 1e-14 * abs(want)


@given(levy_arguments())
def test_levy_pdf_half_matches_closed_form(case):
    _, u = case
    got, want = levy_pdf(0.5, u), levy_half_pdf(u)
    # relative 1e-12 wherever the density is a normal double; below 1e-300 it underflows towards 0
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300)


@pytest.mark.parametrize("u", [np.array([1.0, 0.0]), np.array([2.0, -1e-3, 3.0]), np.array([[0.5], [np.nan]])])
def test_levy_pdf_array_rejects_nonpositive_arguments(u):
    with pytest.raises(DomainError, match="positive"):
        levy_pdf(0.5, u)


def test_levy_series_raises_past_its_digit_budget():
    # nu = 0.7 at u^{-nu} = 2: the series route, cancellation 2.8, returns
    edge = 2.0 ** (-1.0 / 0.7)
    res = levy_pdf_eval(0.7, edge)
    assert res.method == "series" and res.value > 0.0
    # nu = 0.9 at u = 0.4634 (u^{-nu} = 2.0): cancellation 7e11 returned -4.8e4 before
    with pytest.raises(DomainError, match="cancellation"):
        levy_pdf(0.9, 0.4634)
    with pytest.raises(DomainError, match="cancellation"):
        levy_pdf(0.9, np.array([0.05, 5.0, 0.4634]))
    # and the Laplace pass, which meets that region, stops at once
    with pytest.raises(DomainError, match="cancellation"):
        levy_laplace(0.9, 1.0)


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
    # an entry far below 1e-12 is also within 1e-12 absolute
    assert abs(levy_laplace(0.7, 200.0) - np.exp(-(200.0**0.7))) <= 1e-12
    with pytest.raises(DomainError):
        levy_laplace(0.7, np.array([1.0, -1e-3]))


def test_levy_laplace_is_relative_at_a_scalar():
    # the absolute atol 1e-12 returned 1.543e-18 for e^{-200^0.7} = 1.898e-18
    want = np.exp(-(200.0**0.7))
    assert abs(levy_laplace(0.7, 200.0) / want - 1.0) <= 1e-12


@pytest.mark.parametrize("t", [12.0, 20.0, 30.0])
def test_levy_laplace_is_relative_near_its_largest_entry(t):
    # the modewise weights of a 2D N=8 grid at sigma2 = 3: the largest positive-s entry is
    # below 1e-12, where an absolute atol 1e-12 left relative errors up to 0.12, 0.24 and 0.45
    d2 = symbol_tables(GridSpec(2, 1.0, Fraction(1, 4), 8)).d2
    s = (0.5 * 3.0 * d2) ** (1.0 / 0.7) * t * t
    got, want = levy_laplace(0.7, s), np.exp(-(s**0.7))
    pos = s > 0.0
    assert np.all(got[~pos] == 1.0)
    near = pos & (want >= 1e-12 * want[pos].max())
    assert near.sum() >= 4
    assert np.max(np.abs(got[near] / want[near] - 1.0)) <= 1e-11


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


def test_theta_refuses_outside_tame_range():
    with pytest.raises(DomainError, match="outside its guaranteed-accuracy range"):
        hartman_watson_theta(20.0, 1.0)
    with pytest.raises(DomainError, match="outside its guaranteed-accuracy range"):
        hartman_watson_theta(1.0, 0.05)
    with pytest.raises(DomainError, match="p=0.05 is outside"):
        hartman_watson_theta(1.0, np.array([0.5, 0.05, 2.0]))
    assert _cancellation_floor(1.0) < 0.2


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
def test_theta_array_equals_scalar_calls(r):
    # the support ends at ymax = arccosh(80/r + 1) for these p: ymax/3 and ymax/7 put a
    # panel edge on it, and p = 7 > ymax is one panel cut short
    ymax = float(np.arccosh(80.0 / r + 1.0))
    p = np.array([[_cancellation_floor(r), 0.3, ymax / 7.0], [ymax / 3.0, 1.0, 7.0]])
    got = hartman_watson_theta(r, p)
    assert got.shape == p.shape
    want = np.array([[hartman_watson_theta(r, float(x)) for x in row] for row in p])
    assert got.tobytes() == want.tobytes()
    loop = np.array([[hartman_watson_theta_loop(r, float(x)) for x in row] for row in p])
    assert got.tobytes() == loop.tobytes()
    assert type(hartman_watson_theta(r, 1.0)) is float
    assert hartman_watson_theta(r, np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_bessel_from_hartman_watson_returns_in_its_range(r):
    orders = np.array([0, 1, 2])
    got = bessel_from_hartman_watson(orders, r)
    assert got.shape == (3,)
    # the left-out head [0, floor] is the error: 1.7e-5 at r = 2, far less below
    assert np.all(np.abs(got - sp_iv(orders, r)) <= 2e-5 * sp_iv(orders, r))
    per_order = [bessel_from_hartman_watson(int(k), r) for k in orders]
    assert all(type(v) is float for v in per_order)
    assert np.allclose(got, per_order, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("r", [3.0, 5.0, 8.0])
def test_bessel_from_hartman_watson_refuses_a_large_head(r):
    # without the refusal I_0(5) came out 0.12 off and I_0(8) 0.72 off (120.3 for 427.6)
    match = "head" if r <= 5.0 else "requires r in"
    with pytest.raises(DomainError, match=match):
        bessel_from_hartman_watson(np.array([0, 1, 2]), r)


def test_bessel_from_hartman_watson_unconverged_orders_raise():
    # order 6 at r = 0.5 sits in theta's noise at the floor: without the check it came out 4.1e-3 off
    with pytest.raises(QuadratureError, match="stopped after 50 subdivisions"):
        bessel_from_hartman_watson(6, 0.5)
    with pytest.raises(QuadratureError):
        bessel_from_hartman_watson(np.arange(7), 0.5)


# ------------------------------------------------------------- cubature

def test_cubature_stopped_at_its_cap_raises():
    # sqrt|x - 1/3| has a kink no bisection lands on: 1e-14 is out of reach in 3 subdivisions
    kink = lambda x: np.sqrt(np.abs(x - 1.0 / 3.0))  # noqa: E731
    with pytest.raises(QuadratureError, match="stopped after 3 subdivisions") as info:
        _cubature(kink, 0.0, 1.0, "kink", rtol=1e-14, max_subdivisions=3)
    assert isinstance(info.value, DomainError)
    assert _cubature(kink, 0.0, 1.0, "kink", rtol=1e-6)[0] == pytest.approx(
        (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5), rel=1e-6
    )


def test_cubature_error_not_below_its_estimate_raises():
    # a peak only the Kronrod midpoint sees: the Gauss rule reads 0, so the error equals the
    # estimate, and a loose atol lets the pass "converge" on it
    peak = lambda x: np.exp(-(((x - 0.5) / 1e-6) ** 2))  # noqa: E731
    with pytest.raises(QuadratureError, match="not below its largest"):
        _cubature(peak, 0.0, 1.0, "peak", atol=1.0)


def _pass_through(module, call):
    """The integrand and options of the one ``_cubature`` pass that ``call()`` makes in ``module``."""
    seen = []

    def capture(f, a, b, what, **options):
        seen.append((f, options))
        return _cubature(f, a, b, what, **options)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_cubature", capture)
        call()
    (pass_,) = seen
    return pass_


def _cubature_case(name):
    from dfplattice.specfun import hartman_watson, levy

    if name == "kink-capped":
        return lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), {"rtol": 1e-14, "max_subdivisions": 3}
    if name == "kink":
        return lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), {"rtol": 1e-6}
    if name == "peak":
        return lambda x: np.exp(-(((x - 0.5) / 1e-6) ** 2)), {"atol": 1.0}
    if name == "levy-laplace":
        return _pass_through(levy, lambda: levy_laplace(0.7, np.linspace(0.0, 30.0, 31)))
    return _pass_through(hartman_watson, lambda: bessel_from_hartman_watson(np.arange(4), 1.0))


@pytest.mark.parametrize("name", ["kink-capped", "kink", "peak", "levy-laplace", "hartman-watson"])
def test_cubature_keeps_the_bits_of_scipy_gk21_with_one_call_per_region(name, monkeypatch):
    import scipy.integrate

    f, options = _cubature_case(name)
    scipy_cubature, results, calls = scipy.integrate.cubature, [], []

    def recorded(*args, **kwargs):
        results.append(scipy_cubature(*args, **kwargs))
        return results[-1]

    def counted(x):
        calls.append(x.shape)
        return f(x)

    monkeypatch.setattr(scipy.integrate, "cubature", recorded)
    try:
        _cubature(counted, 0.0, 1.0, name, **options)
    except QuadratureError:
        pass
    (got,) = results
    want = scipy_cubature(f, [0.0], [1.0], rule="gk21", **options)
    assert np.array_equal(got.estimate, want.estimate) and np.array_equal(got.error, want.error)
    assert (got.status, got.subdivisions) == (want.status, want.subdivisions)
    # one call per region on the 21 Kronrod and 10 Gauss nodes: the first region, then two per subdivision
    assert len(calls) == 1 + 2 * got.subdivisions and set(calls) == {(31, 1)}
    if name in ("levy-laplace", "kink"):
        assert got.subdivisions > 0


# ------------------------------------------------ one evaluator per integral

def _calls_by_enclosing_function(name: str) -> set:
    """(module, outermost function) of every call to ``name`` under ``src/``."""
    root = Path(__file__).resolve().parent.parent / "src"
    found = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if called == name:
                        found.add((path.stem, getattr(top, "name", None)))
    return found


def test_one_cubature_wrapper_and_one_quad_driver():
    assert _calls_by_enclosing_function("cubature") == {("gammafn", "_cubature")}
    assert _calls_by_enclosing_function("quad") == {("mellin", "_log_window_quad")}


# ----------------------------------------------------------------- mellin

def test_mellin_gamma_example():
    assert abs(mellin_transform(lambda t: np.exp(-t), 0.5) - np.sqrt(np.pi)) < 1e-12


def test_mellin_convolution_theorem():
    lhs = mellin_convolve(lambda t: np.exp(-t), lambda t: np.exp(-t), 1.0)
    # reference value 2 K_1(2) through an independent quadrature
    ref, _ = quad(lambda p: np.exp(-1.0 / p - p) / p, 0.0, np.inf, limit=400)
    assert abs(lhs - ref) < 1e-10


def test_mellin_parseval():
    # M{f g}(omega) = (1/2 pi i) int_{c - i inf}^{c + i inf} M{f}(omega - s) M{g}(s) ds
    # with f = e^{-t}, g = e^{-2t}: M{f} = Gamma, M{g}(s) = 2^{-s} Gamma(s)
    omega, c = 1.5, 0.75
    lhs = mellin_transform(lambda t: np.exp(-t) * np.exp(-2.0 * t), omega)

    def contour(tau):
        s = complex(c, tau)
        return gamma(omega - s) * 2.0 ** (-s) * gamma(s)

    rhs = quad(contour, -80.0, 80.0, limit=800, complex_func=True)[0] / (2.0 * np.pi)
    assert abs(lhs - rhs) < 1e-8


def test_mellin_nonconvergent_strip_raises():
    with pytest.raises(DomainError):
        mellin_transform(lambda t: 1.0 / (1.0 + t), 2.5)


def test_mellin_convolve_divergent_pair_raises():
    # int_0^inf dp/p diverges at both ends; the doubling windows never settle
    with pytest.raises(DomainError, match="not converged"):
        mellin_convolve(lambda t: 1.0, lambda t: 1.0, 1.0)


def test_mellin_inverse_calls_its_function_once_on_the_contour():
    calls = []

    def F(s):
        calls.append(np.shape(s))
        return gamma(s)

    assert abs(mellin_inverse(F, 1.0, c=0.8, T=80.0) - np.exp(-1.0)) < 1e-14
    assert len(calls) == 1 and np.prod(calls[0]) == 320 * 12  # 0.5-wide panels of 12 nodes
    with pytest.raises(ValueError, match="T must be finite"):
        mellin_inverse(gamma, 1.0, c=0.8, T=np.inf)
    with pytest.raises(ValueError, match="c must be finite"):
        mellin_inverse(gamma, 1.0, c=np.nan)


@pytest.mark.parametrize("T", [40.0, 80.0, 2.3, 0.3])
def test_contour_is_conjugate_symmetric(T):
    omega, weights = _contour(0.8, T)
    assert np.array_equal(omega[::-1, ::-1], np.conj(omega))
    assert np.array_equal(weights[::-1, ::-1], weights)
    upper = omega[omega.shape[0] // 2 :].imag
    assert upper.min() > 0.0 and upper.max() < T
    assert weights.sum() == pytest.approx(2.0 * T, rel=1e-14)


def test_mellin_complex_argument():
    s = 0.8 + 1.3j
    assert abs(mellin_transform(lambda t: np.exp(-t), s) - gamma(s)) < 1e-10
