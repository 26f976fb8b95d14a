from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfplattice.lattice import Field, GridSpec, delta_h, sesquilinear
from dfplattice.spectral import (
    MomentumField,
    convolve,
    dft_forward,
    dft_inverse,
    momentum_sesquilinear,
)

from oracles import convolve_direct, dft_forward_direct, refine_field, restrict_field, whole_array_transform


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    return Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_forward_delta_is_constant():
    for spec in (GridSpec(1, 0.5, Fraction(1, 4), 8), GridSpec(2, 1.0, Fraction(1, 4), 4)):
        F = dft_forward(delta_h(spec))
        expect = (2.0 * np.pi) ** (-spec.n / 2.0)
        assert np.allclose(F.values[0], expect, atol=1e-14)
        assert np.max(np.abs(F.values[1:])) == 0.0


@pytest.mark.parametrize(
    "combine",
    [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x.sup_diff(y),
        lambda x, y: sesquilinear(x, y),
        lambda x, y: momentum_sesquilinear(x, y),
        lambda x, y: convolve(x, y),
    ],
    ids=["add", "sub", "sup_diff", "sesquilinear", "momentum_sesquilinear", "convolve"],
)
def test_site_and_momentum_data_never_mix(combine):
    # one spec for both: only the class tells site data from momentum data
    f = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 8))
    F = dft_forward(f)
    assert not isinstance(F, Field) and not isinstance(f, MomentumField)
    for x, y in ((f, F), (F, f)):
        with pytest.raises(TypeError, match="cannot combine a (Momentum)?Field with a (Momentum)?Field"):
            combine(x, y)


@pytest.mark.parametrize(
    "transform, wrong",
    [
        (lambda f, F: dft_forward(F), "dft_forward takes a Field, not a MomentumField"),
        (lambda f, F: dft_inverse(f), "dft_inverse takes a MomentumField, not a Field"),
        (lambda f, F: convolve(F, F), "convolve takes a Field, not a MomentumField"),
    ],
    ids=["dft_forward", "dft_inverse", "convolve_momentum"],
)
def test_transforms_take_only_their_class(transform, wrong):
    f = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 8))
    with pytest.raises(TypeError, match=wrong):
        transform(f, dft_forward(f))


def test_forward_all_ones_concentrates_at_zero_mode():
    # n=1, h=1, N=4: constant 1 transforms to 4 (2 pi)^{-1/2} at xi = 0
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    f = Field.from_blade_array(spec, 0, np.ones(4))
    F = dft_forward(f)
    direct = dft_forward_direct(f)
    assert F.sup_diff(direct) < 1e-13
    assert abs(F.values[0, 0] - 4.0 * (2 * np.pi) ** -0.5) < 1e-13
    others = F.values[0, 1:]
    assert np.max(np.abs(others)) < 1e-13


def test_forward_acts_componentwise():
    rng = np.random.default_rng(0)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    g = rng.standard_normal(spec.N) + 1j * rng.standard_normal(spec.N)
    f_scalar = Field.from_blade_array(spec, 0, g)
    f_vector = Field.from_blade_array(spec, 0b01, g)  # e1 * g
    assert np.allclose(dft_forward(f_vector).values[0b01], dft_forward(f_scalar).values[0], atol=1e-14)


@pytest.mark.parametrize(
    "spec",
    [GridSpec(1, 0.5, Fraction(1, 4), 16), GridSpec(2, 1.0, Fraction(1, 3), 6), GridSpec(3, 1.0, Fraction(1, 4), 4)],
)
def test_roundtrip_random(spec):
    rng = np.random.default_rng(1)
    f = random_field(spec, rng)
    assert dft_inverse(dft_forward(f)).sup_diff(f) < 1e-12


def test_forward_matches_direct_oracle():
    rng = np.random.default_rng(2)
    for spec in (GridSpec(1, 0.75, Fraction(1, 4), 8), GridSpec(2, 1.25, Fraction(2, 5), 4)):
        f = random_field(spec, rng)
        assert dft_forward(f).sup_diff(dft_forward_direct(f)) < 1e-12


def test_inverse_of_constant_is_delta():
    spec = GridSpec(1, 0.5, Fraction(1, 4), 8)
    const = MomentumField.from_blade_array(spec, 0, np.full(spec.N, (2 * np.pi) ** -0.5))
    assert dft_inverse(const).sup_diff(delta_h(spec)) < 1e-13


def test_single_excited_node_gives_plane_wave():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    for k in (2, -3):  # mode k is stored at index k % N
        arr = np.zeros(spec.N)
        arr[k % spec.N] = 1.0
        f = dft_inverse(MomentumField.from_blade_array(spec, 0, arr))
        xi = 2.0 * np.pi * k / (spec.N * spec.h)
        x = spec.h * np.arange(spec.N)
        expect = (2 * np.pi) ** -0.5 * spec.momentum_weight * np.exp(-1j * x * xi)
        assert np.max(np.abs(f.values[0] - expect)) < 1e-14


def test_convolution_delta_identities():
    rng = np.random.default_rng(4)
    spec = GridSpec(1, 0.5, Fraction(1, 4), 8)
    f = random_field(spec, rng)
    d = delta_h(spec)
    assert convolve(d, f).sup_diff(f) < 1e-12
    assert convolve(f, d).sup_diff(f) < 1e-12


def test_convolution_matches_direct_oracle():
    rng = np.random.default_rng(5)
    # includes noncommuting multivector kernels, where left-multiplication matters
    for spec in (GridSpec(1, 1.0, Fraction(1, 4), 8), GridSpec(2, 0.5, Fraction(1, 4), 4)):
        K, f = random_field(spec, rng), random_field(spec, rng)
        assert convolve(K, f).sup_diff(convolve_direct(K, f)) < 1e-12


def test_convolution_scalar_shift_example():
    # scalar kernel supported at site 1 shifts and scales by h^n
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    kv = np.zeros(4)
    kv[1] = 1.0
    fv = np.array([0.0, 2.0, 0.0, 0.0])
    K = Field.from_blade_array(spec, 0, kv)
    f = Field.from_blade_array(spec, 0, fv)
    out = convolve(K, f)
    expect = np.array([0.0, 0.0, 2.0, 0.0]) * spec.h  # mass h * f shifted by one site
    assert np.max(np.abs(out.values[0] - expect)) < 1e-13


def test_convolution_linearity_and_equivariance():
    rng = np.random.default_rng(7)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    K, f, g = (random_field(spec, rng) for _ in range(3))
    lam = 1.3 - 0.4j
    lin = convolve(K, Field(spec, lam * f.values + g.values))
    assert lin.sup_diff(Field(spec, lam * convolve(K, f).values + convolve(K, g).values)) < 1e-12
    assert convolve(K, f.shift((3,))).sup_diff(convolve(K, f).shift((3,))) < 1e-12


def test_refine_restrict_roundtrip():
    rng = np.random.default_rng(8)
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    f = random_field(spec, rng)
    for s in (2, 3, 4):
        fine = refine_field(f, s)
        assert fine.spec.N == spec.N * s and fine.spec.h == pytest.approx(spec.h / s)
        assert restrict_field(fine, s).sup_diff(f) < 1e-12


def test_spec_mismatch_raises():
    a = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 4))
    b = delta_h(GridSpec(1, 1.0, Fraction(1, 4), 8))
    with pytest.raises(ValueError):
        convolve(a, b)


# ------------------------------------------------- live-blade transforms

@st.composite
def live_blade_values(draw):
    """(spec, live blades, values): random coefficients on no blade, one blade,
    the scalar and 2n vector blades, or every blade; zero elsewhere."""
    n, N = draw(st.integers(1, 3)), draw(st.sampled_from([4, 6, 8]))
    spec = GridSpec(n, 1.0, Fraction(1, 4), N)
    nb = spec.nblades
    kind = draw(st.sampled_from(["empty", "one", "vector", "all"]))
    live = {
        "empty": [],
        "one": [draw(st.integers(0, nb - 1))],
        "vector": [0] + [1 << g for g in range(2 * n)],
        "all": list(range(nb)),
    }[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros((nb,) + spec.site_shape, dtype=complex)
    for m in live:
        values[m] = rng.standard_normal(spec.site_shape) + 1j * rng.standard_normal(spec.site_shape)
    return spec, live, values


@settings(max_examples=60)
@given(live_blade_values())
def test_live_blade_transforms_match_whole_array_fft(case):
    spec, live, values = case
    dead = np.setdiff1d(np.arange(spec.nblades), live)
    for got, forward in (
        (dft_forward(Field(spec, values)).values, True),
        (dft_inverse(MomentumField(spec, values)).values, False),
    ):
        assert got.tobytes() == whole_array_transform(values, spec, forward).tobytes()
        assert np.all(got[dead] == 0.0) and not np.signbit(got[dead].view(float)).any()
