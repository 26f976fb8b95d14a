"""Discrete Laplacian and fractional Dirac operator: stencils and Fourier symbols.

The Laplacian acts by the standard second-difference stencil (and equally by
its scalar symbol).  The Dirac operator is defined through its Clifford
vector symbol

    z(xi) = sum_j -i e_j [sin((1-a) h xi_j) + sin(a h xi_j)]/h
          + sum_j e_{n+j} [cos(a h xi_j) - cos((1-a) h xi_j)]/h

whose square is the Laplacian symbol d(xi)^2 = (4/h^2) sum_j sin^2(h xi_j/2)
times the unit blade; generic alpha shifts the stencil off the storage grid,
so the multiplier route is canonical and stencils exist only on refinements
(exercised by the test oracles).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .clifford import Multivector, generator_tables, live_blades, num_blades
from .lattice import Field, GridSpec
from .spectral import MomentumField, dft_forward, dft_inverse

__all__ = [
    "SymbolTables",
    "symbol_tables",
    "laplacian_symbol",
    "dirac_symbol",
    "laplacian_apply",
    "dirac_apply",
    "apply_dirac_symbol_arrays",
    "dirac_multiplier",
]


def _check_in_zone(xi: Sequence[float], spec: GridSpec) -> None:
    bound = np.pi / spec.h
    if len(xi) != spec.n:
        raise ValueError(f"momentum point has {len(xi)} components, expected {spec.n}")
    for c in xi:
        # rounding allowance at the closed end only: -pi/h is not in the zone,
        # and z(xi) differs there from the Nyquist node +pi/h for alpha > 0
        if not (-bound < c <= bound + 1e-9):
            raise ValueError(f"momentum component {c} outside (-pi/h, pi/h]")


def _laplacian_term(xi, h: float):
    """One axis of d(xi)^2: (4/h^2) sin^2(h xi / 2)."""
    return 4.0 / h**2 * np.sin(h * xi / 2.0) ** 2


def _dirac_coefficients(xi, h: float, a: float):
    """One axis of z(xi): the e_j coefficient divided by -i, and the e_{n+j} coefficient."""
    return (
        (np.sin((1.0 - a) * h * xi) + np.sin(a * h * xi)) / h,
        (np.cos(a * h * xi) - np.cos((1.0 - a) * h * xi)) / h,
    )


def _dirac_blades(vec_sin: Sequence, vec_cos: Sequence, n: int) -> np.ndarray:
    """Blade array of z from its per-axis coefficients (scalars or node arrays)."""
    vals = np.zeros((num_blades(n),) + np.shape(vec_sin[0]), dtype=complex)
    for j in range(n):
        vals[1 << j] = -1j * vec_sin[j]
        vals[1 << (n + j)] = vec_cos[j]
    return vals


def laplacian_symbol(xi: Sequence[float], spec: GridSpec) -> float:
    """d(xi)^2 = (4/h^2) sum_j sin^2(h xi_j / 2), the symbol of -Laplacian."""
    _check_in_zone(xi, spec)
    return float(sum(_laplacian_term(c, spec.h) for c in xi))


def dirac_symbol(xi: Sequence[float], spec: GridSpec) -> Multivector:
    """Clifford vector symbol of the Dirac operator at one momentum point."""
    _check_in_zone(xi, spec)
    vec_sin, vec_cos = zip(*(_dirac_coefficients(c, spec.h, spec.alpha_float) for c in xi))
    return Multivector.from_array(_dirac_blades(vec_sin, vec_cos, spec.n), spec.n)


@dataclass(frozen=True)
class SymbolTables:
    """Per-grid symbol data on the full momentum node grid, in FFT order (immutable, shared)."""

    spec: GridSpec
    d2: np.ndarray            # (N,)*n, symbol of -Laplacian, real >= 0
    vec_sin: Tuple[np.ndarray, ...]   # e_j coefficient / (-i), one (N,)*n array per axis
    vec_cos: Tuple[np.ndarray, ...]   # e_{n+j} coefficient, one per axis


@lru_cache(maxsize=128)
def symbol_tables(spec: GridSpec) -> SymbolTables:
    grids = spec.xi_grids()
    d2 = np.zeros(spec.site_shape)
    vsin: List[np.ndarray] = []
    vcos: List[np.ndarray] = []
    for g in grids:
        d2 = d2 + _laplacian_term(g, spec.h)
        s, c = _dirac_coefficients(g, spec.h, spec.alpha_float)
        vsin.append(s)
        vcos.append(c)
    d2.setflags(write=False)
    for arr in (*vsin, *vcos):
        arr.setflags(write=False)
    return SymbolTables(spec, d2, tuple(vsin), tuple(vcos))


def _apply_dirac_rows(values: np.ndarray, spec: GridSpec, blades: np.ndarray, live: np.ndarray) -> np.ndarray:
    """z(xi) times blade rows: row r of ``values`` and of the result holds blade
    ``blades[r]`` (sorted).  Only the rows of the blades ``live`` are read, and
    ``blades`` must hold their images under every generator."""
    tab = symbol_tables(spec)
    n = spec.n
    gmask, gsign = generator_tables(n)
    row = np.empty(spec.nblades, dtype=np.intp)
    row[blades] = np.arange(blades.size)
    out = np.zeros_like(values)
    for j in range(n):
        coef_sin = -1j * tab.vec_sin[j]
        coef_cos = tab.vec_cos[j]
        for m in live:
            out[row[gmask[j, m]]] += gsign[j, m] * coef_sin * values[row[m]]
            out[row[gmask[n + j, m]]] += gsign[n + j, m] * coef_cos * values[row[m]]
    return out


def apply_dirac_symbol_arrays(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Left-multiply momentum-space blade arrays by the Dirac symbol z(xi)."""
    return _apply_dirac_rows(values, spec, np.arange(spec.nblades), live_blades(values))


def laplacian_apply(f: Field, route: str = "stencil") -> Field:
    """Discrete Laplacian: second-difference stencil, or the symbol route."""
    spec = f.spec
    if route == "stencil":
        out = np.zeros_like(f.values)
        for ax in spec.site_axes:
            out += np.roll(f.values, 1, axis=ax) + np.roll(f.values, -1, axis=ax)
        out -= 2.0 * spec.n * f.values
        return Field(spec, out / spec.h**2, _copy=False)
    if route == "multiplier":
        F = dft_forward(f)
        return dft_inverse(MomentumField(spec, F.values * -symbol_tables(spec).d2[None, ...], _copy=False))
    raise ValueError(f"unknown route {route!r}")


def dirac_apply(f: Field) -> Field:
    """Fractional Dirac operator via its symbol (the canonical route)."""
    F = dft_forward(f)
    out = apply_dirac_symbol_arrays(F.values, f.spec)
    return dft_inverse(MomentumField(f.spec, out, _copy=False))


def dirac_multiplier(spec: GridSpec) -> MomentumField:
    """The Dirac symbol z(xi) as a MomentumField."""
    tab = symbol_tables(spec)
    return MomentumField(spec, _dirac_blades(tab.vec_sin, tab.vec_cos, spec.n), _copy=False)
