import itertools
from fractions import Fraction

import numpy as np
import pytest

from dfplattice.clifford import Multivector, geometric_product_arrays
from dfplattice.lattice import Field, GridSpec, delta_h
from dfplattice.spectral import MomentumField
from dfplattice.operators import (
    dirac_apply,
    dirac_multiplier,
    dirac_symbol,
    laplacian_apply,
    laplacian_symbol,
    symbol_tables,
)

from oracles import dirac_stencil_oracle


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    return Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_laplacian_symbol_examples():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    assert laplacian_symbol((0.0,), spec) == 0.0
    assert laplacian_symbol((np.pi,), spec) == pytest.approx(4.0, abs=1e-14)
    spec2 = GridSpec(2, 1.0, Fraction(1, 4), 8)
    assert laplacian_symbol((np.pi, np.pi / 2), spec2) == pytest.approx(6.0, abs=1e-14)


def test_dirac_symbol_examples():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    assert dirac_symbol((0.0,), spec).sup_norm() < 1e-15
    half = GridSpec(1, 1.0, Fraction(1, 2), 8)
    z = dirac_symbol((np.pi,), half)
    assert z.isclose(Multivector({0b01: -2j}, 1), tol=1e-14)
    zero = GridSpec(1, 1.0, Fraction(0), 8)
    z0 = dirac_symbol((np.pi / 2,), zero)
    assert z0.isclose(Multivector({0b01: -1j, 0b10: 1.0}, 1), tol=1e-14)


def test_zone_validation():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    with pytest.raises(ValueError):
        laplacian_symbol((4.0,), spec)
    with pytest.raises(ValueError):
        dirac_symbol((0.0, 0.0), spec)
    # the zone (-pi/h, pi/h] is open at -pi/h
    with pytest.raises(ValueError):
        dirac_symbol((-np.pi,), spec)


@pytest.mark.parametrize("alpha", [Fraction(1, 10**8), Fraction(1, 4), Fraction(1, 2)])
@pytest.mark.parametrize("n,N,h", [(1, 32, 1.0), (2, 8, 0.5)])
def test_square_condition(n, N, h, alpha):
    spec = GridSpec(n, h, alpha, N)
    tab = symbol_tables(spec)
    z = dirac_multiplier(spec).values
    sq = geometric_product_arrays(z, z, n)
    assert np.max(np.abs(sq[0] - tab.d2)) < 1e-12
    assert max(np.max(np.abs(sq[m])) for m in range(1, spec.nblades)) < 1e-12


def test_laplacian_constant_field():
    spec = GridSpec(2, 0.5, Fraction(1, 4), 6)
    f = Field.from_blade_array(spec, 0, np.ones(spec.site_shape))
    assert laplacian_apply(f).sup_norm() < 1e-14


def test_laplacian_delta_stencil():
    # n=1, h=1, N=4: Laplacian of delta is (-2, 1, 0, 1)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    out = laplacian_apply(delta_h(spec))
    assert np.allclose(out.values[0], [-2.0, 1.0, 0.0, 1.0], atol=1e-14)


def test_dirac_constant_field():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    f = Field.from_blade_array(spec, 0, np.ones(spec.site_shape))
    assert dirac_apply(f).sup_norm() < 1e-13


@pytest.mark.parametrize(
    "alpha", [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
)
def test_dirac_matches_refinement_stencil(alpha):
    rng = np.random.default_rng(1)
    spec = GridSpec(1, 1.0, alpha, 8)
    f = random_field(spec, rng)
    assert dirac_apply(f).sup_diff(dirac_stencil_oracle(f)) < 1e-12


def test_dirac_matches_refinement_stencil_2d():
    rng = np.random.default_rng(2)
    spec = GridSpec(2, 0.5, Fraction(1, 4), 4)
    f = random_field(spec, rng)
    assert dirac_apply(f).sup_diff(dirac_stencil_oracle(f)) < 1e-12


@pytest.mark.parametrize(
    "n,N,h,alpha",
    [(1, 8, 1.0, Fraction(1, 4)), (1, 8, 1.0, Fraction(1, 2)), (2, 6, 0.7, Fraction(1, 4))],
)
def test_multiplier_tables_shape_and_values(n, N, h, alpha):
    spec = GridSpec(n, h, alpha, N)
    lap = MomentumField.from_blade_array(spec, 0, symbol_tables(spec).d2)
    dm = dirac_multiplier(spec)
    assert lap.values.shape == dm.values.shape == (spec.nblades,) + spec.site_shape
    # laplacian values real, >= 0, zero exactly at the zero mode
    assert np.all(symbol_tables(spec).d2 >= 0.0)
    assert lap.mv((0,) * n).sup_norm() == 0.0
    # xi from the literal node formula, so the tables must hold the Nyquist
    # node at k = +N/2 (xi = +pi/h), where the e_1 sign differs from -pi/h
    for mode in itertools.product(range(1 - N // 2, N // 2 + 1), repeat=n):
        xi = tuple(2.0 * np.pi * k / (N * h) for k in mode)
        assert abs(lap.mv(mode).scalar_part() - laplacian_symbol(xi, spec)) < 1e-14
        assert dm.mv(mode).isclose(dirac_symbol(xi, spec), tol=1e-14)


@pytest.mark.parametrize("h", [1.0, 0.35])
@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_wilson_limit_cosine_coefficient_vanishes(n, N, h):
    # at alpha = 1/2 the e_{n+j} coefficient cos(alpha h xi) - cos((1-alpha) h xi) is exactly 0
    tab = symbol_tables(GridSpec(n, h, Fraction(1, 2), N))
    assert all(np.all(c == 0.0) for c in tab.vec_cos)


def test_dirac_symbol_is_self_dagger():
    spec = GridSpec(2, 0.7, Fraction(1, 3), 6)
    for mode in ((-2, -1), (0, 1), (3, 2)):
        z = dirac_multiplier(spec).mv(mode)
        assert (z.dagger() - z).sup_norm() < 1e-15
