"""CSV / JSON serialization of fields.

Row schema (both kinds): k1,..,kn,mask,re,im -- one row per (site, blade)
with a nonzero coefficient, in lexicographic order, which the layout gives
directly (sites in C order, blades ascending within a site, momentum axes in
ascending signed k).  Site fields index sites 0..N-1; momentum fields use the
signed mode numbers -N/2+1..N/2.  Floats are written as shortest round-trip
reprs, so identical data produces identical bytes and a write/read cycle is
exact.  The CSV writer streams: it formats ``_ROWS`` rows at a time, column
by column, and writes each block straight to the handle, so it holds one
block of text and one index per row, never the whole file.  CSV and JSON
rows share one reader, which rejects mis-sized and repeated rows, site
indices outside [0, N), mode numbers outside (-N/2, N/2] and blade masks
outside [0, 4^n) with a ValueError that names the CSV line or JSON row.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .clifford import live_blades
from .lattice import Field, GridSpec
from .spectral import MomentumField

__all__ = [
    "grid_to_dict",
    "grid_from_dict",
    "field_rows",
    "write_field_csv",
    "read_field_csv",
    "field_to_json",
    "field_from_json",
    "mv_to_triples",
    "mv_from_triples",
]


def grid_to_dict(spec: GridSpec) -> dict:
    return {"n": spec.n, "h": spec.h, "alpha": str(spec.alpha), "N": spec.N}


def grid_from_dict(d: dict) -> GridSpec:
    return GridSpec(int(d["n"]), float(d["h"]), Fraction(d["alpha"]), int(d["N"]))


def _header(n: int) -> List[str]:
    return [f"k{j + 1}" for j in range(n)] + ["mask", "re", "im"]


_ROWS = 2048  # CSV rows formatted and written together


def _row_columns(field: Union[Field, MomentumField], text: bool):
    """The nonzero (k1..kn, mask, re, im) rows in lexicographic order, as
    (row count, ``columns(lo, hi)``), which gives rows lo..hi-1 column by
    column: as str when ``text`` (indices from a lookup made once per call,
    floats by repr), else as int and float."""
    spec = field.spec
    flat = field.values.reshape(spec.nblades, -1)
    axis, labels = np.arange(spec.N), np.arange(spec.N)
    if isinstance(field, MomentumField):
        axis = spec.ascending_modes()
        labels = spec.momentum_indices()[axis]
    # storage position of each site in row order
    order = np.arange(spec.nsites).reshape(spec.site_shape)[np.ix_(*[axis] * spec.n)].ravel()
    live = live_blades(flat)
    nonzero = np.empty((spec.nsites, live.size), dtype=bool)
    for col, m in enumerate(live):
        nonzero[:, col] = flat[m, order] != 0
    rows = np.flatnonzero(nonzero)  # site-major, blades ascending within a site
    index, number = (str, repr) if text else (int, float)
    label = np.array([index(k) for k in labels.tolist()], dtype=object)
    blade = np.array([index(m) for m in live.tolist()], dtype=object)

    def columns(lo: int, hi: int) -> list:
        site, col = np.divmod(rows[lo:hi], live.size)
        coef = flat[live[col], order[site]]
        idx = np.unravel_index(site, spec.site_shape)
        return [label[i].tolist() for i in idx] + [
            blade[col].tolist(), map(number, coef.real.tolist()), map(number, coef.imag.tolist())
        ]

    return rows.size, columns


def field_rows(field: Union[Field, MomentumField]) -> List[Tuple]:
    """Nonzero (indices..., mask, re, im) rows in lexicographic order."""
    count, columns = _row_columns(field, text=False)
    return list(zip(*columns(0, count)))


def _write_rows(fh, header: Sequence[str], count: int, columns: Callable[[int, int], list]) -> None:
    """CSV of ``count`` rows, written ``_ROWS`` at a time: ``columns(lo, hi)``
    gives rows lo..hi-1 as one iterable of str per column."""
    fh.write(",".join(header) + "\n")
    for lo in range(0, count, _ROWS):
        fh.write("\n".join(map(",".join, zip(*columns(lo, min(lo + _ROWS, count))))) + "\n")


def write_field_csv(field: Union[Field, MomentumField], fh) -> None:
    _write_rows(fh, _header(field.spec.n), *_row_columns(field, text=True))


def _read_rows(rows, spec: GridSpec, momentum: bool, where: str):
    """The field of (position, row) pairs; ``where`` and the position name a bad row."""
    n = spec.n
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    seen = set()
    for pos, row in rows:
        try:
            if len(row) != n + 3:
                raise ValueError(f"expected {n + 3} values, got {len(row)}")
            *idx, mask = map(int, map(str, row[: n + 1]))  # str(): a JSON 1.5 fails like the text "1.5"
            if momentum:
                idx = [spec.mode_index(k) for k in idx]
            elif not (0 <= min(idx) and max(idx) < spec.N):
                raise ValueError(f"site index outside [0, {spec.N})")
            if not 0 <= mask < spec.nblades:
                raise ValueError(f"blade mask {mask} outside [0, {spec.nblades})")
            key = (mask, *idx)
            if key in seen:
                raise ValueError("repeats the indices and mask of an earlier row")
            seen.add(key)
            vals[key] = complex(float(row[n + 1]), float(row[n + 2]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} {pos} ({','.join(map(str, row))}): {exc}") from None
    return (MomentumField if momentum else Field)(spec, vals, _copy=False)


def read_field_csv(fh, spec: GridSpec, momentum: bool = False):
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != _header(spec.n):
        raise ValueError("empty CSV: no header line" if header is None else f"unexpected CSV header {header}")
    return _read_rows(((reader.line_num, row) for row in reader if row), spec, momentum, "CSV line")


def field_to_json(field: Union[Field, MomentumField]) -> dict:
    return {
        "grid": grid_to_dict(field.spec),
        "kind": "momentum" if isinstance(field, MomentumField) else "field",
        "columns": _header(field.spec.n),
        "rows": [list(r) for r in field_rows(field)],
    }


def field_from_json(doc: dict):
    spec = grid_from_dict(doc["grid"])
    return _read_rows(enumerate(doc["rows"], 1), spec, doc.get("kind") == "momentum", "JSON row")


def dumps_json(doc: dict) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def mv_to_triples(mv) -> List[Tuple[int, float, float]]:
    """Multivector as sorted (mask, re, im) triples, mask in decimal."""
    return [(m, c.real, c.imag) for m, c in sorted(mv.items())]


def mv_from_triples(triples, dim: int):
    from .clifford import Multivector

    return Multivector({int(m): complex(re, im) for m, re, im in triples}, dim)
