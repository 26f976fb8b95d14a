import warnings
from fractions import Fraction

import numpy as np
import pytest

from dfplattice.clifford import Multivector
from dfplattice.lattice import Field, GridSpec, delta_h, mass, normalization_check, sesquilinear
from dfplattice.operators import symbol_tables
from dfplattice.spectral import MomentumField, momentum_sesquilinear

from oracles import mv_product_oracle


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    return Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_gridspec_validation():
    GridSpec(1, 1.0, Fraction(0), 4)
    GridSpec(3, 0.25, Fraction(1, 2), 6)
    with pytest.raises(ValueError):
        GridSpec(0, 1.0, Fraction(1, 4), 8)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, Fraction(1, 4), 8)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, Fraction(3, 4), 8)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, Fraction(1, 4), 7)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, Fraction(1, 4), 2)


@pytest.mark.parametrize("h", [np.inf, np.nan])
def test_gridspec_refuses_non_finite_spacing(h):
    with pytest.raises(ValueError, match="spacing h must be finite"):
        GridSpec(1, h, Fraction(1, 4), 8)


@pytest.mark.parametrize("n, h", [(1, 1e-300), (1, 1e-154), (3, 2e-154)])
def test_gridspec_refuses_a_spacing_whose_symbols_overflow(n, h):
    # 1e-300 used to reach operators as "float division by zero"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"spacing h = {h} is too small"):
            GridSpec(n, h, Fraction(1, 4), 8)


def test_gridspec_admits_a_small_spacing_with_finite_symbols():
    spec = GridSpec(3, 1e-150, Fraction(1, 4), 4)
    assert np.isfinite(symbol_tables(spec).d2).all()


def test_momentum_nodes_in_zone():
    spec = GridSpec(1, 0.5, Fraction(1, 4), 8)
    xi = spec.xi_axis()
    assert np.all(xi > -np.pi / spec.h) and np.all(xi <= np.pi / spec.h + 1e-15)
    # FFT storage order, Nyquist node at +N/2
    assert list(spec.momentum_indices()) == [0, 1, 2, 3, 4, -3, -2, -1]
    assert [spec.mode_index(k) for k in spec.momentum_indices()] == list(range(spec.N))
    for k in (-4, 5):
        with pytest.raises(ValueError):
            spec.mode_index(k)


def test_delta_examples():
    d = delta_h(GridSpec(1, 0.5, Fraction(1, 4), 8))
    assert d.mv((0,)).scalar_part() == pytest.approx(2.0)
    assert d.mv((3,)).sup_norm() == 0.0
    d2 = delta_h(GridSpec(2, 1.0, Fraction(1, 4), 4))
    assert d2.mv((0, 0)).scalar_part() == pytest.approx(1.0)
    # normalization forced by the definition
    assert normalization_check(d2) == pytest.approx(1.0, abs=1e-15)


def test_sesquilinear_delta():
    spec = GridSpec(2, 0.5, Fraction(1, 4), 4)
    d = delta_h(spec)
    val = sesquilinear(d, d)
    assert abs(val.scalar_part() - 1.0 / spec.cell_volume) < 1e-12


def test_sesquilinear_f_f_nonnegative():
    rng = np.random.default_rng(3)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    f = random_field(spec, rng)
    val = sesquilinear(f, f)
    assert val.scalar_part().real >= 0.0
    assert abs(val.scalar_part().imag) < 1e-12


def test_sesquilinear_single_site_example():
    # f = e1 at site 1, g = 1 at site 1, n=1, h=1, N=4: <f,g> = -e1
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    fv = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    gv = np.zeros_like(fv)
    fv[0b01, 1] = 1.0
    gv[0, 1] = 1.0
    f, g = Field(spec, fv), Field(spec, gv)
    got = sesquilinear(f, g)
    expect = mv_product_oracle(Multivector.generator(1, 1).dagger(), Multivector.scalar(1.0, 1))
    assert (got - expect).sup_norm() < 1e-15
    assert got.isclose(Multivector.blade(0b01, 1, -1.0))


@pytest.fixture(scope="module")
def dense_pair_3d():
    """3D N=4 fields with all 64 blades live, and sum_x f(x)^dagger g(x) by the oracle."""
    rng = np.random.default_rng(12)
    spec = GridSpec(3, 0.5, Fraction(1, 4), 4)
    f, g = random_field(spec, rng), random_field(spec, rng)
    total = Multivector.zero(spec.n)
    for site in np.ndindex(*spec.site_shape):
        total = total + mv_product_oracle(f.mv(site).dagger(), g.mv(site))
    return spec, f, g, total


def test_sesquilinear_all_blades_live_matches_oracle(dense_pair_3d):
    spec, f, g, total = dense_pair_3d
    expect = spec.cell_volume * total
    assert (sesquilinear(f, g) - expect).sup_norm() <= 1e-12 * expect.sup_norm()


def test_momentum_sesquilinear_all_blades_live_matches_oracle(dense_pair_3d):
    spec, f, g, total = dense_pair_3d
    F, G = MomentumField(spec, f.values), MomentumField(spec, g.values)
    expect = spec.momentum_weight * total
    assert (momentum_sesquilinear(F, G) - expect).sup_norm() <= 1e-12 * expect.sup_norm()


def test_normalization_scaling():
    spec = GridSpec(1, 0.5, Fraction(1, 4), 8)
    d = delta_h(spec)
    assert normalization_check(d) == pytest.approx(1.0, abs=1e-15)
    assert normalization_check(2.0 * d) == pytest.approx(2.0, abs=1e-15)


def test_mass_is_multivector():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    vals[0b01, 2] = 3.0
    m = mass(Field(spec, vals))
    assert m.isclose(Multivector.blade(0b01, 1, 3.0))


def test_field_values_frozen():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    d = delta_h(spec)
    with pytest.raises(ValueError):
        d.values[0, 0] = 5.0


def test_field_shape_validation():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    with pytest.raises(ValueError):
        Field(spec, np.zeros((3, 4), dtype=complex))


def test_spec_mismatch_raises():
    a = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 4))
    b = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 8))
    with pytest.raises(ValueError):
        sesquilinear(a, b)


def test_shift_periodicity():
    rng = np.random.default_rng(6)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    f = random_field(spec, rng)
    assert f.shift((spec.N,)).sup_diff(f) == 0.0
    assert f.shift((3,)).mv((3,)).isclose(f.mv((0,)))
