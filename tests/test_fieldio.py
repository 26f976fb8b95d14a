import io
import json
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfplattice import fieldio
from dfplattice.fieldio import field_to_json, read_field_csv, write_field_csv
from dfplattice.lattice import Field, GridSpec, delta_h
from dfplattice.spectral import MomentumField, dft_forward
from oracles import field_csv_oracle, field_rows_oracle


def field_from_json(doc: dict):
    """The field of a ``field_to_json`` document, its rows read by the CSV reader with its checks."""
    g = doc["grid"]
    spec = GridSpec(int(g["n"]), float(g["h"]), Fraction(g["alpha"]), int(g["N"]))
    # str() writes a JSON 1.5 or 1.0 as the CSV text would, so an index refuses it alike;
    # an empty row is written "[]", so that it is refused, not skipped as a blank line
    lines = [",".join(map(str, row)) or "[]" for row in doc["rows"]]
    return fieldio._read_rows(lines, 1, spec, doc.get("kind") == "momentum", "JSON row")


def random_field(spec, rng):
    shape = (spec.nblades,) + spec.site_shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[rng.random(shape) < 0.5] = 0.0  # exercise sparsity
    return Field(spec, vals)


def test_grid_dict_roundtrip():
    spec = GridSpec(2, 0.5, Fraction(1, 3), 8)
    assert field_from_json(field_to_json(delta_h(spec))).spec == spec


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
    rows = field_to_json(F)["rows"]
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dumps_json_refuses_non_finite(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        fieldio.dumps_json({"value": value})


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
    doc["rows"] = [[0, 0, 1.0, 0.0], [], [1, 0, 1.0, 0.0]]
    with pytest.raises(ValueError, match=r"JSON row 2 \(\[\]\): expected 4 values, got 1"):
        field_from_json(doc)


def test_multivector_triples_roundtrip():
    from dfplattice.clifford import Multivector

    mv = Multivector({0: 1.5, 0b11: -2.0 + 0.5j}, 1)
    triples = [(m, c.real, c.imag) for m, c in sorted(mv.items())]  # mask, re, im
    assert triples == [(0, 1.5, 0.0), (3, -2.0, 0.5)]
    assert Multivector({m: complex(re, im) for m, re, im in triples}, 1) == mv


def test_rows_sorted_lexicographically():
    spec = GridSpec(2, 1.0, Fraction(1, 4), 4)
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    vals[3, 2, 1] = 1.0
    vals[0, 2, 1] = 1.0
    vals[1, 0, 3] = 1.0
    rows = field_to_json(Field(spec, vals))["rows"]
    assert rows[0][:3] == [0, 3, 1]
    assert rows[1][:3] == [2, 1, 0]
    assert rows[2][:3] == [2, 1, 3]


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
    # blocks of 3 rows, so that the larger fields are cut into forked spans
    monkeypatch.setattr(fieldio, "_ROWS", 3)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    spec = GridSpec(n, 1.0, Fraction(1, 4), N)
    shape = (spec.nblades,) + spec.site_shape
    rng = np.random.default_rng(10 * n + N)
    full = np.empty(shape, dtype=complex)  # parts set apart, so that -0.0 survives in both
    full.real, full.imag = rng.choice(EDGE_PARTS, shape), rng.choice(EDGE_PARTS, shape)
    full[rng.random(shape) >= 0.7] = 0.0
    rows = np.count_nonzero(full)
    assert rows >= 7
    cls = MomentumField if momentum else Field
    # two full blocks, a partial last block, and every row in 1, 2 and 3 processes
    for processes, count in [(1, 6), (1, 7), (1, rows), (2, rows), (3, rows)]:
        monkeypatch.setattr(fieldio, "_processes", lambda: processes)
        kept = np.where((np.cumsum(full != 0) <= count).reshape(shape), full, 0.0)
        buf = io.StringIO()
        del forks[:]
        write_field_csv(cls(spec, kept), buf)
        assert buf.getvalue() == field_csv_oracle(cls(spec, kept))
        assert buf.getvalue().count("\n") == 1 + count
        # one child per span after the first, and every span holds several blocks
        assert len(forks) == max(1, min(processes, count // (fieldio._SPAN_BLOCKS * 3))) - 1
    _no_child_left()
    header_only = io.StringIO()
    write_field_csv(cls(spec, np.zeros(shape)), header_only)
    assert header_only.getvalue() == ",".join(["k1", "k2", "k3"][:n] + ["mask", "re", "im"]) + "\n"


class _CountingSink:
    """A text handle that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_csv_writer_peak_memory_is_a_fraction_of_the_text(monkeypatch):
    # 3D N=16 with every blade live: 262,144 rows, about 13 MB of CSV; writing
    # it through whole-file text and per-row tuples took about six times that.
    # One process, so that tracemalloc sees every block formatted
    monkeypatch.setenv("DFP_THREADS", "1")
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


def _two_span_rows(monkeypatch, child_columns):
    """Rows 0..count-1 in blocks of 3, cut into two spans; the forked child
    calls ``child_columns`` before its first block."""
    monkeypatch.setattr(fieldio, "_ROWS", 3)
    monkeypatch.setattr(fieldio, "_processes", lambda: 2)
    count = 2 * fieldio._SPAN_BLOCKS * 3

    def columns(lo, hi):
        if lo == count // 2:
            child_columns()
        return [map(str, range(lo, hi))]

    return count, columns


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_writer_process_raises_in_the_parent(monkeypatch, capfd):
    def fail():
        raise OSError("no space left on the device")

    count, columns = _two_span_rows(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=f"rows {count // 2}..{count - 1} exited with 1"):
        fieldio._write_rows(io.StringIO(), ["x"], count, columns)
    _no_child_left()
    assert "OSError: no space left on the device" in capfd.readouterr().err


class _BrokenPipe:
    """A text handle that takes the header, then fails like a closed pipe."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError


@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt])
def test_parent_error_leaves_no_child(monkeypatch, error):
    # the child would format for a minute: it must be killed, not awaited
    count, columns = _two_span_rows(monkeypatch, lambda: time.sleep(60))
    fh = _BrokenPipe() if error is BrokenPipeError else io.StringIO()
    if error is KeyboardInterrupt:
        parent_columns = columns

        def columns(lo, hi):
            if lo == 3:
                raise KeyboardInterrupt
            return parent_columns(lo, hi)

    start = time.perf_counter()
    with pytest.raises(error):
        fieldio._write_rows(fh, ["x"], count, columns)
    assert time.perf_counter() - start < 30
    _no_child_left()


# float64 bit patterns other than NaN, whose repr keeps neither sign nor payload
FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
EXACT_PARTS = FLOAT_BITS.filter(lambda x: x == x) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1e16])


@settings(max_examples=30)
@given(st.lists(st.tuples(EXACT_PARTS, EXACT_PARTS), min_size=1, max_size=16), st.booleans())
def test_reader_returns_the_written_doubles_bit_for_bit(parts, momentum):
    spec = GridSpec(1, 1.0, Fraction(1, 4), 4)
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex).reshape(-1)
    vals.real[: len(parts)], vals.imag[: len(parts)] = np.array(parts).T
    field = (MomentumField if momentum else Field)(spec, vals.reshape((spec.nblades,) + spec.site_shape))
    text = field_csv_oracle(field)
    doc = {**field_to_json(field), "rows": [list(r) for r in field_rows_oracle(field)]}
    written = np.where(field.values != 0, field.values, 0.0)  # a zero coefficient (-0.0 parts too) has no row
    for back in (read_field_csv(io.StringIO(text), spec, momentum=momentum), field_from_json(doc)):
        assert back.values.view(np.uint64).tobytes() == written.view(np.uint64).tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,0,1.0,0.0\n\n1.0,0,1.0,0.0\n", r"CSV line 4 \(1.0,0,1.0,0.0\): could not convert string '1.0'"),
        ("0,1e0,1.0,0.0\n", r"CSV line 2 \(0,1e0,1.0,0.0\): could not convert string '1e0'"),
        ("0,0,1.0,0.0\n1,0,1.0\n", r"CSV line 3 \(1,0,1.0\): expected 4 values, got 3"),
        ("0,0,1.0,0.0\n \n", r"CSV line 3 \( \): expected 4 values, got 1"),
        ("0,0,1.0,x\n", r"CSV line 2 \(0,0,1.0,x\): could not convert string 'x'"),
        # a row out of range before a row that does not parse is the one named
        ("9,0,1.0,0.0\n1.5,0,1.0,0.0\n", r"CSV line 2 \(9,0,1.0,0.0\): site index outside \[0, 8\)"),
        ("0,0,1.0,0.0\n\n\n1,16,1.0,0.0\n", r"CSV line 5 \(1,16,1.0,0.0\): blade mask 16 outside \[0, 4\)"),
        ("0,0,1.0,0.0\n1,0,1.0,0.0\n\n0,0,2.0,0.0\n0,0,3.0,0.0\n", r"CSV line 5 \(0,0,2.0,0.0\): repeats"),
    ],
    ids=["float-index", "exponent-mask", "short", "blank-with-space", "bad-part", "range-first",
         "mask-after-blanks", "first-repeat"],
)
def test_reader_names_the_first_bad_line(body, message):
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    with pytest.raises(ValueError, match=message):
        read_field_csv(io.StringIO("k1,mask,re,im\n" + body), spec)


def test_reader_names_mode_numbers_out_of_range():
    spec = GridSpec(2, 1.0, Fraction(1, 4), 4)
    with pytest.raises(ValueError, match=r"CSV line 3 \(0,-2,0,1.0,0.0\): mode number -2 outside"):
        read_field_csv(io.StringIO("k1,k2,mask,re,im\n2,-1,0,1.0,0.0\n0,-2,0,1.0,0.0\n"), spec, momentum=True)
