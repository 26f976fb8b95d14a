"""CSV / JSON serialization of fields.

Row schema (both kinds): k1,..,kn,mask,re,im -- one row per (site, blade)
with a nonzero coefficient, lexicographically ordered.  Site fields index
sites 0..N-1; momentum fields use the signed mode numbers -N/2+1..N/2, so
their rows run in ascending k although the arrays are stored in FFT order.
Floats are written as shortest round-trip reprs, so identical data produces
identical bytes and a write/read cycle is exact.  Reading rejects site
indices outside [0, N), mode numbers outside (-N/2, N/2] and blade masks
outside [0, 4^n) with a ValueError that names the line.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

import numpy as np

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


def field_rows(field: Union[Field, MomentumField]) -> Iterable[Tuple]:
    """Nonzero (indices..., mask, re, im) rows in lexicographic order."""
    spec = field.spec
    labels = spec.momentum_indices().tolist() if isinstance(field, MomentumField) else range(spec.N)
    nz = np.argwhere(field.values != 0)
    rows = []
    for entry in nz:
        mask, idx = int(entry[0]), tuple(int(v) for v in entry[1:])
        v = field.values[(mask,) + idx]
        rows.append(tuple(labels[i] for i in idx) + (mask, float(v.real), float(v.imag)))
    rows.sort(key=lambda r: r[: spec.n] + (r[spec.n],))
    return rows


def write_field_csv(field: Union[Field, MomentumField], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_header(field.spec.n))
    for row in field_rows(field):
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def read_field_csv(fh, spec: GridSpec, momentum: bool = False):
    reader = csv.reader(fh)
    header = next(reader)
    if header != _header(spec.n):
        raise ValueError(f"unexpected CSV header {header}")
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    index = spec.mode_index if momentum else int
    for row in reader:
        if not row:
            continue
        try:
            idx = tuple(index(v) for v in row[: spec.n])
            mask = int(row[spec.n])
            if not (momentum or 0 <= min(idx) and max(idx) < spec.N):
                raise ValueError(f"site index outside [0, {spec.N})")
            if not 0 <= mask < spec.nblades:
                raise ValueError(f"blade mask {mask} outside [0, {spec.nblades})")
        except ValueError as exc:
            raise ValueError(f"CSV line {reader.line_num} ({','.join(row)}): {exc}") from None
        vals[(mask,) + idx] = complex(float(row[spec.n + 1]), float(row[spec.n + 2]))
    cls = MomentumField if momentum else Field
    return cls(spec, vals, _copy=False)


def field_to_json(field: Union[Field, MomentumField]) -> dict:
    return {
        "grid": grid_to_dict(field.spec),
        "kind": "momentum" if isinstance(field, MomentumField) else "field",
        "columns": _header(field.spec.n),
        "rows": [list(r) for r in field_rows(field)],
    }


def field_from_json(doc: dict):
    spec = grid_from_dict(doc["grid"])
    momentum = doc.get("kind") == "momentum"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_header(spec.n))
    for row in doc["rows"]:
        writer.writerow(row)
    buf.seek(0)
    return read_field_csv(buf, spec, momentum=momentum)


def dumps_json(doc: dict) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def mv_to_triples(mv) -> List[Tuple[int, float, float]]:
    """Multivector as sorted (mask, re, im) triples, mask in decimal."""
    return [(m, c.real, c.imag) for m, c in sorted(mv.items())]


def mv_from_triples(triples, dim: int):
    from .clifford import Multivector

    return Multivector({int(m): complex(re, im) for m, re, im in triples}, dim)
