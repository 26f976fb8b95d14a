"""CSV / JSON serialization of fields.

Row schema (both kinds): k1,..,kn,mask,re,im -- one row per (site, blade)
with a nonzero coefficient, in lexicographic order, which the layout gives
directly (sites in C order, blades ascending within a site, momentum axes in
ascending signed k).  Site fields index sites 0..N-1; momentum fields use the
signed mode numbers -N/2+1..N/2.  Floats are written as shortest round-trip
reprs, so identical data produces identical bytes and a write/read cycle is
exact.

The CSV writer streams: it formats ``_ROWS`` rows at a time, column by
column, and writes each block straight to the handle, so it holds one block
of text and one index per row, never the whole file.  Large outputs are
formatted on every CPU the process may run on (at most DFP_THREADS): the row
range is cut into contiguous spans, one per process, and each span after the
first is formatted by a forked child into an unlinked temporary file.  The
parent formats the first span straight into the handle, then reaps the
children in order and copies their files after it, so the bytes do not
depend on the number of processes.  Where ``os.fork`` is missing, the one
span is the whole range.

The reader takes the rows as text lines: numpy parses them into integer
indices and float parts (an index such as ``1.5`` or ``1.0`` is refused, as
``int()`` refuses it), and one array check rejects mis-sized and repeated
rows, site indices outside [0, N), mode numbers outside (-N/2, N/2] and
blade masks outside [0, 4^n), with a ValueError that names the first bad
CSV line.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .clifford import live_blades
from .lattice import Field, GridSpec
from .spectral import MomentumField

__all__ = [
    "grid_to_dict",
    "write_field_csv",
    "read_field_csv",
    "field_to_json",
]


def grid_to_dict(spec: GridSpec) -> dict:
    return {"n": spec.n, "h": spec.h, "alpha": str(spec.alpha), "N": spec.N}


def _header(n: int) -> List[str]:
    return [f"k{j + 1}" for j in range(n)] + ["mask", "re", "im"]


_ROWS = 2048  # CSV rows formatted and written together
_SPAN_BLOCKS = 8  # blocks of rows each writer process gets at least, or fewer processes run


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


def _field_rows(field: Union[Field, MomentumField]) -> List[Tuple]:
    """Nonzero (indices..., mask, re, im) rows in lexicographic order."""
    count, columns = _row_columns(field, text=False)
    return list(zip(*columns(0, count)))


def _processes() -> int:
    """Processes the CSV writer may use: the CPUs this process may run on, at most DFP_THREADS."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = os.environ.get("DFP_THREADS", "")
    return max(1, min(cpus, int(cap))) if cap.isdigit() else cpus


def _write_span(fh, lo: int, hi: int, columns: Callable[[int, int], list]) -> None:
    for start in range(lo, hi, _ROWS):
        fh.write("\n".join(map(",".join, zip(*columns(start, min(start + _ROWS, hi))))) + "\n")


def _write_rows(fh, header: Sequence[str], count: int, columns: Callable[[int, int], list]) -> None:
    """CSV of ``count`` rows, formatted ``_ROWS`` at a time: ``columns(lo, hi)``
    gives rows lo..hi-1 as one iterable of str per column.  Each span of rows
    after the first is formatted by a forked child into a temporary file;
    every child is reaped before this returns or raises."""
    fh.write(",".join(header) + "\n")
    spans = max(1, min(_processes(), count // (_SPAN_BLOCKS * _ROWS)))
    cuts = [count * s // spans for s in range(spans + 1)]
    children = []  # (pid, temporary file, lo, hi) of each child not yet reaped, in row order
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            tmp = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
            pid = os.fork()
            if pid == 0:  # the child formats its span and leaves, whatever happens
                status = 1
                try:
                    _write_span(tmp, lo, hi, columns)
                    tmp.flush()
                    status = 0
                except Exception:  # Ctrl-C, a BaseException, leaves without a traceback
                    import traceback

                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(status)
            children.append((pid, tmp, lo, hi))
        _write_span(fh, cuts[0], cuts[1], columns)
        while children:
            code = os.waitstatus_to_exitcode(os.waitpid(children[0][0], 0)[1])
            _, tmp, lo, hi = children.pop(0)
            with tmp:
                if code:
                    raise RuntimeError(f"the CSV writer process for rows {lo}..{hi - 1} exited with {code}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
    finally:
        for pid, tmp, _, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            tmp.close()


def write_field_csv(field: Union[Field, MomentumField], fh) -> None:
    _write_rows(fh, _header(field.spec.n), *_row_columns(field, text=True))


def _table(lines: Sequence[str], n: int) -> np.ndarray:
    """The rows of ``lines`` (blank lines skipped) as integer indices and mask and float parts."""
    dtype = np.dtype([(name, np.int64) for name in _header(n)[:-2]] + [("re", float), ("im", float)])
    if not any(lines):  # numpy warns on input without rows
        return np.empty(0, dtype)
    return np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1)


def _parse_error(line: str, n: int) -> str:
    """Why numpy cannot parse the one row ``line``."""
    values = line.split(",")
    if len(values) != n + 3:
        return f"expected {n + 3} values, got {len(values)}"
    try:
        _table([line], n)
    except ValueError as exc:
        return str(exc).split(" at row ")[0]
    return "cannot be parsed"  # pragma: no cover - the line failed inside a longer input


def _first_bad(table: np.ndarray, spec: GridSpec, momentum: bool):
    """The storage index (mask, k1..kn, raveled) of each row, and the position
    of the first row with an index out of range or repeated and the reason
    (None, None if there is none)."""
    N, nb = spec.N, spec.nblades
    idx = np.stack([table[f"k{j + 1}"] for j in range(spec.n)])
    mask = table["mask"]
    low, high = (-N // 2 + 1, N // 2) if momentum else (0, N - 1)
    out = (idx < low) | (idx > high)
    bad_mask = (mask < 0) | (mask >= nb)
    key = np.ravel_multi_index((np.clip(mask, 0, nb - 1), *(idx % N)), (nb,) + spec.site_shape)
    repeat = np.ones(key.size, dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False
    bad = out.any(axis=0) | bad_mask | repeat
    if not bad.any():
        return key, None, None
    r = int(np.argmax(bad))
    if out[:, r].any():
        k = int(idx[out[:, r], r][0])
        reason = f"mode number {k} outside (-N/2, N/2] for N = {N}" if momentum else f"site index outside [0, {N})"
    elif bad_mask[r]:
        reason = f"blade mask {int(mask[r])} outside [0, {nb})"
    else:
        reason = "repeats the indices and mask of an earlier row"
    return key, r, reason


def _read_rows(lines: List[str], first: int, spec: GridSpec, momentum: bool, where: str):
    """The field of the text rows ``lines``, blank ones skipped; ``where`` and
    the position (``first`` for lines[0]) name the first bad row."""
    n = spec.n
    try:
        table, bad, reason = _table(lines, n), None, None
    except ValueError:
        ok, bad = 0, len(lines)  # lines[:ok] parse, lines[:bad] do not
        while bad - ok > 1:
            mid = (ok + bad) // 2
            try:
                _table(lines[:mid], n)
                ok = mid
            except ValueError:
                bad = mid
        bad -= 1
        table, reason = _table(lines[:bad], n), _parse_error(lines[bad], n)
    key, row, why = _first_bad(table, spec, momentum)
    if row is not None:  # an earlier row than any that failed to parse
        bad, reason = [i for i, line in enumerate(lines) if line][row], why
    if reason is not None:
        raise ValueError(f"{where} {first + bad} ({lines[bad]}): {reason}")
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    flat = vals.reshape(-1)
    flat.real[key], flat.imag[key] = table["re"], table["im"]  # parts set apart keep -0.0
    return (MomentumField if momentum else Field)(spec, vals, _copy=False)


def read_field_csv(fh, spec: GridSpec, momentum: bool = False):
    text = fh.read()
    if not text:
        raise ValueError("empty CSV: no header line")
    first, _, body = text.partition("\n")
    header = first.split(",") if first else []
    if header != _header(spec.n):
        raise ValueError(f"unexpected CSV header {header}")
    return _read_rows(body.split("\n"), 2, spec, momentum, "CSV line")


def field_to_json(field: Union[Field, MomentumField]) -> dict:
    return {
        "grid": grid_to_dict(field.spec),
        "kind": "momentum" if isinstance(field, MomentumField) else "field",
        "columns": _header(field.spec.n),
        "rows": [list(r) for r in _field_rows(field)],
    }


def dumps_json(doc: dict) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift); NaN or infinity raises ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
