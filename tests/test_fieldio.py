import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfplattice import fieldio
from dfplattice.fieldio import (
    field_from_json,
    field_rows,
    field_to_json,
    grid_from_dict,
    grid_to_dict,
    read_field_csv,
    write_field_csv,
)
from dfplattice.lattice import Field, GridSpec, delta_h
from dfplattice.spectral import MomentumField, dft_forward
from oracles import field_csv_oracle, field_rows_oracle


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[rng.random(shape) < 0.5] = 0.0  # exercise sparsity
    return Field(spec, vals)


def test_grid_dict_roundtrip():
    spec = GridSpec(2, 0.5, Fraction(1, 3), 8)
    assert grid_from_dict(grid_to_dict(spec)) == spec


def test_csv_roundtrip_exact():
    rng = np.random.default_rng(0)
    for spec in (GridSpec(1, 1.0, Fraction(1, 4), 8), GridSpec(2, 0.5, Fraction(1, 3), 4)):
        f = random_field(spec, rng)
        buf = io.StringIO()
        write_field_csv(f, buf)
        buf.seek(0)
        g = read_field_csv(buf, spec)
        assert np.array_equal(f.values, g.values)


def test_csv_header_and_delta_rows():
    spec = GridSpec(2, 0.5, Fraction(1, 4), 4)
    buf = io.StringIO()
    write_field_csv(delta_h(spec), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k1,k2,mask,re,im"
    assert lines[1] == "0,0,0,4.0,0.0"
    assert len(lines) == 2  # zeros are not serialized


def test_momentum_csv_signed_indices():
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    F = dft_forward(delta_h(spec))
    rows = list(field_rows(F))
    assert [r[0] for r in rows] == [-1, 0, 1, 2]
    buf = io.StringIO()
    write_field_csv(F, buf)
    buf.seek(0)
    G = read_field_csv(buf, spec, momentum=True)
    assert isinstance(G, MomentumField)
    assert np.array_equal(F.values, G.values)
    # k = -N/2 is not a node of the grid (the Nyquist node is +N/2)
    with pytest.raises(ValueError):
        read_field_csv(io.StringIO("k1,mask,re,im\n-2,0,1.0,0.0\n"), spec, momentum=True)


def test_csv_header_mismatch_raises():
    spec1 = GridSpec(1, 1.0, Fraction(1, 4), 4)
    spec2 = GridSpec(2, 1.0, Fraction(1, 4), 4)
    buf = io.StringIO()
    write_field_csv(delta_h(spec1), buf)
    buf.seek(0)
    with pytest.raises(ValueError, match="header"):
        read_field_csv(buf, spec2)


def test_json_roundtrip():
    rng = np.random.default_rng(1)
    spec = GridSpec(1, 0.25, Fraction(2, 5), 8)
    f = random_field(spec, rng)
    doc = field_to_json(f)
    g = field_from_json(doc)
    assert g.spec == spec
    assert np.array_equal(f.values, g.values)
    # the JSON rows go through the CSV reader's checks, named by row number
    doc["rows"] = [[0, 0, 1.0, 0.0], [0, 0, 5.0, 0.0]]
    with pytest.raises(ValueError, match=r"JSON row 2 \(0,0,5.0,0.0\): repeats"):
        field_from_json(doc)
    doc["rows"] = [[1.5, 0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="JSON row 1"):
        field_from_json(doc)


def test_multivector_triples_roundtrip():
    from dfplattice.clifford import Multivector
    from dfplattice.fieldio import mv_from_triples, mv_to_triples

    mv = Multivector({0: 1.5, 0b11: -2.0 + 0.5j}, 1)
    triples = mv_to_triples(mv)
    assert triples == [(0, 1.5, 0.0), (3, -2.0, 0.5)]
    assert mv_from_triples(triples, 1) == mv


def test_rows_sorted_lexicographically():
    spec = GridSpec(2, 1.0, Fraction(1, 4), 4)
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    vals[3, 2, 1] = 1.0
    vals[0, 2, 1] = 1.0
    vals[1, 0, 3] = 1.0
    rows = list(field_rows(Field(spec, vals)))
    assert rows[0][:3] == (0, 3, 1)
    assert rows[1][:3] == (2, 1, 0)
    assert rows[2][:3] == (2, 1, 3)


# coefficient parts that stress the float format: signed zero, subnormals,
# reprs with an exponent, and ordinary values
SPECIAL_PARTS = np.array([0.0, -0.0, 5e-324, -2.2e-310, 1e16, -1e-05, 0.1, 1.5, -2.75, 123456.789])


@st.composite
def sparse_fields(draw):
    n, N = draw(st.integers(1, 3)), draw(st.sampled_from([4, 6, 8]))
    spec = GridSpec(n, 1.0, Fraction(1, 4), N)
    shape = (spec.nblades,) + spec.site_shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.001, 0.05, 0.5]))
    vals = np.empty(shape, dtype=complex)  # parts set apart, so that -0.0 survives in both
    vals.real, vals.imag = rng.choice(SPECIAL_PARTS, shape), rng.choice(SPECIAL_PARTS, shape)
    vals[rng.random(shape) >= density] = 0.0
    cls = MomentumField if draw(st.booleans()) else Field
    return cls(spec, vals)


@settings(max_examples=40)
@given(sparse_fields())
def test_rows_match_sorting_oracle(field):
    buf = io.StringIO()
    write_field_csv(field, buf)
    text = buf.getvalue()
    assert text == field_csv_oracle(field)
    doc = field_to_json(field)
    assert json.dumps(doc["rows"]) == json.dumps([list(r) for r in field_rows_oracle(field)])
    momentum = isinstance(field, MomentumField)
    for back in (read_field_csv(io.StringIO(text), field.spec, momentum=momentum), field_from_json(doc)):
        assert type(back) is type(field)
        assert np.array_equal(back.values, field.values)
        assert field_csv_oracle(back) == text  # signs of zero parts survive as well


# parts that stress the float format and the row filter: signed zero, the
# smallest subnormal, a repr with an exponent, infinities and ordinary values
EDGE_PARTS = np.array([0.0, -0.0, 5e-324, 1e16, np.inf, -np.inf, -2.75])


@pytest.mark.parametrize("momentum", [False, True], ids=["site", "momentum"])
@pytest.mark.parametrize("n, N", [(1, 4), (1, 6), (2, 4), (3, 4)])
def test_streamed_blocks_match_sorting_oracle(monkeypatch, n, N, momentum):
    monkeypatch.setattr(fieldio, "_ROWS", 3)
    spec = GridSpec(n, 1.0, Fraction(1, 4), N)
    shape = (spec.nblades,) + spec.site_shape
    rng = np.random.default_rng(10 * n + N)
    full = np.empty(shape, dtype=complex)  # parts set apart, so that -0.0 survives in both
    full.real, full.imag = rng.choice(EDGE_PARTS, shape), rng.choice(EDGE_PARTS, shape)
    full[rng.random(shape) >= 0.7] = 0.0
    rows = np.count_nonzero(full)
    assert rows >= 7
    cls = MomentumField if momentum else Field
    for count in (6, 7, rows):  # two full blocks, a partial last block, every row
        kept = np.where((np.cumsum(full != 0) <= count).reshape(shape), full, 0.0)
        buf = io.StringIO()
        write_field_csv(cls(spec, kept), buf)
        assert buf.getvalue() == field_csv_oracle(cls(spec, kept))
        assert buf.getvalue().count("\n") == 1 + count
    header_only = io.StringIO()
    write_field_csv(cls(spec, np.zeros(shape)), header_only)
    assert header_only.getvalue() == ",".join(["k1", "k2", "k3"][:n] + ["mask", "re", "im"]) + "\n"


class _CountingSink:
    """A text handle that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_csv_writer_peak_memory_is_a_fraction_of_the_text():
    # 3D N=16 with every blade live: 262,144 rows, about 13 MB of CSV; writing
    # it through whole-file text and per-row tuples took about six times that
    spec = GridSpec(3, 1.0, Fraction(1, 4), 16)
    rng = np.random.default_rng(3)
    shape = (spec.nblades,) + spec.site_shape
    field = Field(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), _copy=False)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_field_csv(field, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 10_000_000
    assert peak < sink.size / 3
