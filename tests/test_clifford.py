import numpy as np
import pytest

from dfplattice import clifford
from dfplattice.clifford import (
    AlgebraError,
    Multivector,
    blade_matrices,
    blade_product,
    dagger_sign,
    geometric_product_arrays,
    live_blades,
    num_blades,
)

from oracles import blade_product_sorting, dagger_sign_reversal, dense_product, mv_product_oracle


def e(j, dim):
    return Multivector.generator(j, dim)


def rand_mv(dim, rng):
    vec = rng.standard_normal(num_blades(dim)) + 1j * rng.standard_normal(num_blades(dim))
    return Multivector.from_array(vec, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_generator_squares(dim):
    for j in range(1, dim + 1):
        assert (e(j, dim) * e(j, dim)).isclose(Multivector.scalar(-1.0, dim))
        assert (e(dim + j, dim) * e(dim + j, dim)).isclose(Multivector.scalar(1.0, dim))


def test_distinct_generators_anticommute():
    dim = 2
    for j in range(1, 2 * dim + 1):
        for k in range(1, 2 * dim + 1):
            if j == k:
                continue
            assert (e(j, dim) * e(k, dim) + e(k, dim) * e(j, dim)).sup_norm() == 0.0


def test_e2_e1_is_minus_e1e2():
    dim = 2
    prod = e(2, dim) * e(1, dim)
    assert prod.isclose(Multivector.blade(0b11, dim, -1.0))


def test_identity_element():
    rng = np.random.default_rng(0)
    a = rand_mv(2, rng)
    one = Multivector.scalar(1.0, 2)
    assert (one * a).isclose(a) and (a * one).isclose(a)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        e(1, 1) * e(1, 2)


def test_dagger_examples():
    dim = 1
    assert e(1, dim).dagger().isclose(-1.0 * e(1, dim))
    assert e(2, dim).dagger().isclose(e(2, dim))
    assert Multivector.scalar(1j, dim).dagger().isclose(Multivector.scalar(-1j, dim))
    # e1 e2 conjugates to itself with a sign forced by the generator rules
    dim = 2
    b = e(1, dim) * e(2, dim)
    assert b.dagger().isclose(-1.0 * b)


def test_norm_examples():
    assert Multivector.scalar(3.0, 1).norm() == pytest.approx(3.0, abs=1e-15)
    assert e(1, 1).norm() == pytest.approx(1.0, abs=1e-15)
    a = Multivector({0b01: 1j, 0b10: 1.0}, 1)  # i e1 + e2
    # expand a^dagger a through the independent sorting oracle
    sq = mv_product_oracle(a.dagger(), a)
    assert abs(sq.scalar_part() - 2.0) < 1e-14
    assert a.norm() == pytest.approx(np.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_matches_sorting_oracle(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(12):
        a, b = rand_mv(dim, rng), rand_mv(dim, rng)
        assert (a * b - mv_product_oracle(a, b)).sup_norm() < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_blade_product_signs_match_oracle(dim):
    nb = num_blades(dim)
    for i in range(nb):
        for j in range(nb):
            assert blade_product(i, j, dim) == blade_product_sorting(i, j, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cayley_tables_match_the_sorting_oracles(dim):
    nb = num_blades(dim)
    masks, signs = clifford.product_table(dim)
    expect = [[blade_product_sorting(i, j, dim) for j in range(nb)] for i in range(nb)]
    assert masks.shape == signs.shape == (nb, nb)
    assert np.array_equal(masks, [[m for m, _ in row] for row in expect])
    assert np.array_equal(signs, [[s for _, s in row] for row in expect])
    gmasks, gsigns = clifford.generator_tables(dim)
    assert gmasks.shape == gsigns.shape == (2 * dim, nb)
    for g in range(2 * dim):
        assert [(int(m), int(s)) for m, s in zip(gmasks[g], gsigns[g])] == expect[1 << g]
    assert clifford.dagger_signs(dim).tolist() == [dagger_sign_reversal(m, dim) for m in range(nb)]
    tables = (masks, signs, gmasks, gsigns, clifford.dagger_signs(dim), blade_matrices(dim))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_single_blade_products_match_the_sorting_oracle_bit_for_bit(dim):
    rng = np.random.default_rng(110 + dim)
    nb = num_blades(dim)
    for i in range(nb):
        for j in range(nb):
            ca, cb = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            a, b = Multivector.blade(i, dim, ca), Multivector.blade(j, dim, cb)
            expect = dense_product(a.to_array(), b.to_array(), dim)
            assert (a * b).to_array().tobytes() == expect.tobytes()


def test_inf_coefficient_times_a_blade_stays_on_one_blade():
    # the sign is applied by negation: the real part stays infinite, and no
    # other blade is touched (a dense pair matrix would spread 0 * inf = nan)
    dim = 2
    for i, j in ((0, 0b0110), (0b0001, 0b0001), (0b1010, 0b0101)):
        mask, sign = blade_product_sorting(i, j, dim)
        for prod in (Multivector.blade(i, dim, np.inf) * Multivector.blade(j, dim),
                     Multivector.blade(i, dim) * Multivector.blade(j, dim, np.inf)):
            assert [m for m, _ in prod.items()] == [mask]
            assert prod.coeff(mask).real == sign * np.inf


def test_dirac_symbol_shaped_vectors_square_to_scalars():
    # vectors of the Dirac-symbol shape, imaginary on the e_j block and real
    # on the e_{n+j} block, satisfy a^dagger = a, so a^dagger a = a^2 is the
    # scalar sum of squares; this is the family the operator symbols live in
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        coeffs = {}
        total = 0.0
        for j in range(1, dim + 1):
            aj, bj = rng.standard_normal(2)
            coeffs[1 << (j - 1)] = -1j * aj
            coeffs[1 << (dim + j - 1)] = bj
            total += aj * aj + bj * bj
        a = Multivector(coeffs, dim)
        assert (a.dagger() - a).sup_norm() < 1e-15
        sq = a.dagger() * a
        rest = sq - Multivector.scalar(sq.scalar_part(), dim)
        assert rest.sup_norm() < 1e-12
        assert sq.scalar_part().real == pytest.approx(total, rel=1e-12)


def test_vector_span_square_not_scalar_in_general():
    # general span elements do produce bivectors; only the scalar part of
    # a^dagger a is sign-definite (it is the coefficient norm, see below)
    for a in (Multivector({0b01: 1j, 0b10: 1j}, 1), Multivector({0: 1.0, 0b10: 1.0}, 1)):
        sq = a.dagger() * a
        assert (sq - Multivector.scalar(sq.scalar_part(), 1)).sup_norm() > 1.0
        assert sq.scalar_part().real == pytest.approx(2.0)


def test_norm_nonnegative_for_general_elements():
    # a^dagger a has unit scalar coefficient blade-by-blade, so norm is the
    # flat 2-norm of the coefficient vector for every multivector
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3):
        a = rand_mv(dim, rng)
        flat = np.linalg.norm(a.to_array())
        assert a.norm() == pytest.approx(flat, rel=1e-12)


def test_array_products_match_pointwise():
    rng = np.random.default_rng(9)
    dim = 2
    nb = num_blades(dim)
    a = rng.standard_normal((nb, 3)) + 1j * rng.standard_normal((nb, 3))
    b = rng.standard_normal((nb, 3)) + 1j * rng.standard_normal((nb, 3))
    out = geometric_product_arrays(a, b, dim)
    for k in range(3):
        expect = mv_product_oracle(
            Multivector.from_array(a[:, k], dim), Multivector.from_array(b[:, k], dim)
        )
        assert (Multivector.from_array(out[:, k], dim) - expect).sup_norm() < 1e-12


def test_dagger_arrays_matches_pointwise():
    # blade conjugation of a blade-major array: the sign table times the conjugate
    rng = np.random.default_rng(10)
    dim = 3
    nb = num_blades(dim)
    a = rng.standard_normal((nb, 2)) + 1j * rng.standard_normal((nb, 2))
    out = clifford.dagger_signs(dim)[:, None] * np.conj(a)
    for k in range(2):
        expect = Multivector.from_array(a[:, k], dim).dagger()
        assert (Multivector.from_array(out[:, k], dim) - expect).sup_norm() == 0.0


def rand_blades(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_matches_dense_oracle(a, b, dim, tol=1e-12):
    out = geometric_product_arrays(a, b, dim)
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    assert out.shape == (num_blades(dim),) + shape
    # spatial shapes broadcast among themselves, right-aligned after the blade axis
    a_full, b_full = (
        np.broadcast_to(x.reshape(x.shape[:1] + (1,) * (len(shape) + 1 - x.ndim) + x.shape[1:]), out.shape)
        for x in (a, b)
    )
    for idx in np.ndindex(*shape):
        site = (slice(None),) + idx
        expect = dense_product(a_full[site], b_full[site], dim)
        assert np.max(np.abs(out[site] - expect)) <= tol * max(1.0, np.max(np.abs(expect)))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_blade_matrices_multiply_like_the_sorting_oracle(dim):
    mats = blade_matrices(dim)
    nb, size = num_blades(dim), 1 << dim
    assert mats.shape == (nb, size, size)
    for i in range(nb):
        for j in range(nb):
            mask, sign = blade_product_sorting(i, j, dim)
            assert np.array_equal(mats[i] @ mats[j], sign * mats[mask])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_blade_matrices_dagger_and_trace_orthogonality(dim):
    mats = blade_matrices(dim)
    nb = num_blades(dim)
    for m in range(nb):
        assert np.array_equal(mats[m].conj().T, dagger_sign(m, dim) * mats[m])
    # tr(E_m^dagger E_k) for every pair
    gram = np.einsum("mab,kab->mk", mats.conj(), mats)
    assert np.array_equal(gram, (1 << dim) * np.eye(nb))


def kernel_blades(dim):
    """The live set of a lattice kernel: the scalar and the 2n generators."""
    return [0] + [1 << g for g in range(2 * dim)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_all_blades_live_matches_dense_oracle(dim):
    rng = np.random.default_rng(20 + dim)
    nb = num_blades(dim)
    assert_matches_dense_oracle(rand_blades(rng, (nb, 3)), rand_blades(rng, (nb, 3)), dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_kernel_live_set_matches_dense_oracle(dim):
    rng = np.random.default_rng(30 + dim)
    nb = num_blades(dim)
    kernel = np.zeros((nb, 3), dtype=complex)
    kernel[kernel_blades(dim)] = rand_blades(rng, (2 * dim + 1, 3))
    full = rand_blades(rng, (nb, 3))
    assert_matches_dense_oracle(kernel, full, dim)
    assert_matches_dense_oracle(full, kernel, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_with_zero_operand_is_exactly_zero(dim):
    rng = np.random.default_rng(40 + dim)
    nb = num_blades(dim)
    full, zero = rand_blades(rng, (nb, 2, 2)), np.zeros((nb, 2, 2), dtype=complex)
    for a, b in ((full, zero), (zero, full), (zero, zero)):
        out = geometric_product_arrays(a, b, dim)
        assert out.shape == (nb, 2, 2) and not np.any(out)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_broadcasts_spatial_shapes(dim):
    rng = np.random.default_rng(50 + dim)
    nb = num_blades(dim)
    assert_matches_dense_oracle(rand_blades(rng, (nb, 3, 1)), rand_blades(rng, (nb, 1, 2)), dim)
    assert_matches_dense_oracle(rand_blades(rng, (nb,)), rand_blades(rng, (nb, 4)), dim)
    assert_matches_dense_oracle(rand_blades(rng, (nb, 2)), rand_blades(rng, (nb,)), dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_unreachable_blades_are_exactly_zero(dim):
    rng = np.random.default_rng(60 + dim)
    nb = num_blades(dim)
    kernel = np.zeros((nb, 4), dtype=complex)
    kernel[kernel_blades(dim)] = rand_blades(rng, (2 * dim + 1, 4))
    pair = np.zeros((nb, 4), dtype=complex)
    pair[0b11] = rand_blades(rng, 4)
    out = assert_matches_dense_oracle(kernel, pair, dim)
    reach = {m ^ 0b11 for m in kernel_blades(dim)}
    for m in range(nb):
        if m not in reach:
            assert np.all(out[m] == 0.0)


def test_product_site_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(70)
    nb = num_blades(2)
    a, b = rand_blades(rng, (nb, 5, 3)), rand_blades(rng, (nb, 5, 3))
    whole = geometric_product_arrays(a, b, 2)
    monkeypatch.setattr(clifford, "_BLOCK", 4)  # 15 sites: three full blocks and a partial one
    assert np.max(np.abs(geometric_product_arrays(a, b, 2) - whole)) < 1e-13
    assert_matches_dense_oracle(a, b, 2)


def test_blade_axis_must_hold_every_blade():
    rng = np.random.default_rng(80)
    good = rand_blades(rng, (64, 3))
    long = rand_blades(rng, (80, 3))  # rows 64..79 must not be dropped silently
    with pytest.raises(ValueError, match="64 blades"):
        geometric_product_arrays(long, good, 3)
    with pytest.raises(ValueError, match="64 blades"):
        geometric_product_arrays(good, long, 3)
    with pytest.raises(ValueError, match="64 blades"):
        clifford.sesquilinear_arrays(good, long, 3)


def test_live_blades_lists_the_nonzero_blades():
    rng = np.random.default_rng(90)
    values = rand_blades(rng, (16, 3, 2))
    values[[1, 5, 6, 15]] = 0.0
    values[7, 2, 1] = 0.0  # one zero site keeps the blade live
    values[9] = 0.0
    values[9, 1, 0] = np.nan
    expect = [m for m in range(16) if np.any(values[m])]
    assert live_blades(values).tolist() == expect
    assert live_blades(np.zeros((4, 2))).tolist() == []
    corner = values[:, 0, 0]
    assert live_blades(corner).tolist() == [m for m in range(16) if corner[m] != 0]


def test_norm_consistency_error():
    class Broken(Multivector):
        def dagger(self):
            return self  # violates the conjugation rules on purpose

    a = Broken({0b01: 1.0}, 1)  # e1 with dagger forced to e1: a"dagger"a = -1
    with pytest.raises(AlgebraError):
        a.norm()
