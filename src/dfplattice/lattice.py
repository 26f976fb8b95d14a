"""Finite periodic lattice truncation, Clifford-valued fields, sesquilinear form.

Sites live on the uniform grid h*Z^n modulo N*h; the fractional parameter
alpha never changes the storage grid -- it enters only through the Fourier
symbol of the Dirac operator (see :mod:`dfplattice.operators`).  Momentum
nodes are xi_k = 2*pi*k/(N*h) with k in {-N/2+1, ..., N/2} per axis, all
inside the zone (-pi/h, pi/h].  Momentum arrays are stored in FFT order:
mode k sits at index k % N, so the Nyquist node k = N/2 (xi = +pi/h) sits at
index N/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .clifford import Multivector, num_blades, sesquilinear_arrays

__all__ = ["GridSpec", "Field", "delta_h", "sesquilinear", "mass", "normalization_check"]


@dataclass(frozen=True)
class GridSpec:
    """Periodic truncation of the fractional lattice.

    n     spatial dimension (1..3)
    h     lattice spacing, finite and > 0, with the largest symbol 4n/h^2 finite
    alpha exact rational in [0, 1/2]; 0 and 1/2 are admitted limit cases
    N     sites per axis, even and >= 4
    """

    n: int
    h: float
    alpha: Fraction
    N: int

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ValueError("dimension n must be 1, 2 or 3")
        if not 0 < self.h < np.inf:
            raise ValueError(f"spacing h must be finite and positive, got {self.h}")
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            if not np.isfinite(4.0 * self.n / np.float64(self.h) ** 2):
                raise ValueError(f"spacing h = {self.h} is too small: the largest symbol 4n/h^2 must be finite")
        if not isinstance(self.alpha, Fraction):
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 <= self.alpha <= Fraction(1, 2):
            raise ValueError("alpha must lie in [0, 1/2]")
        if self.N < 4 or self.N % 2:
            raise ValueError("N must be even and >= 4")

    # -- geometry ---------------------------------------------------------
    @property
    def nblades(self) -> int:
        return num_blades(self.n)

    @property
    def site_shape(self) -> Tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def site_axes(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def nsites(self) -> int:
        return self.N**self.n

    @property
    def cell_volume(self) -> float:
        """h^n, the quadrature weight of one site."""
        return self.h**self.n

    @property
    def momentum_weight(self) -> float:
        """(2*pi/(N*h))^n, the quadrature weight of one momentum node."""
        return (2.0 * np.pi / (self.N * self.h)) ** self.n

    @property
    def alpha_float(self) -> float:
        return float(self.alpha)

    def momentum_indices(self) -> np.ndarray:
        """Per-axis signed mode number at each storage index: 0 .. N/2, -N/2+1 .. -1."""
        k = np.arange(self.N)
        return np.where(k <= self.N // 2, k, k - self.N)

    def mode_index(self, k: int) -> int:
        """Storage index of the signed mode number k, which must lie in (-N/2, N/2]."""
        k = int(k)
        if not -self.N // 2 < k <= self.N // 2:
            raise ValueError(f"mode number {k} outside (-N/2, N/2] for N = {self.N}")
        return k % self.N

    def ascending_modes(self) -> np.ndarray:
        """Per-axis storage indices of the signed mode numbers -N/2+1 .. N/2, in that order."""
        return np.roll(np.arange(self.N), self.N // 2 - 1)

    def xi_axis(self) -> np.ndarray:
        """Per-axis momentum node values 2*pi*k/(N*h), in storage order."""
        return 2.0 * np.pi * self.momentum_indices() / (self.N * self.h)

    def xi_grids(self):
        """Momentum component arrays broadcast over the full node grid."""
        return np.meshgrid(*([self.xi_axis()] * self.n), indexing="ij")


class _GridData:
    """Body of site and momentum fields: a Multivector per grid point, blade-major.

    ``values`` has shape (4^n,) + (N,)*n and is frozen after construction;
    every operation returns a new value of the same class.  Operands must share
    the class (TypeError otherwise: site and momentum data never mix) and the spec.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values: np.ndarray, _copy: bool = True):
        values = np.array(values, dtype=complex, copy=_copy)
        expected = (spec.nblades,) + spec.site_shape
        if values.shape != expected:
            raise ValueError(f"{type(self).__name__} values shape {values.shape} != {expected}")
        values.setflags(write=False)
        self.spec = spec
        self.values = values

    @classmethod
    def from_blade_array(cls, spec: GridSpec, mask: int, arr: np.ndarray):
        vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
        vals[mask] = arr
        return cls(spec, vals, _copy=False)

    def _require_same_spec(self, other: "_GridData") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine a {type(self).__name__} with a {type(other).__name__}")
        if self.spec != other.spec:
            raise ValueError("grid spec mismatch")

    def __add__(self, other):
        self._require_same_spec(other)
        return type(self)(self.spec, self.values + other.values, _copy=False)

    def __sub__(self, other):
        self._require_same_spec(other)
        return type(self)(self.spec, self.values - other.values, _copy=False)

    def __rmul__(self, scalar: complex):
        return type(self)(self.spec, scalar * self.values, _copy=False)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def sup_diff(self, other) -> float:
        self._require_same_spec(other)
        return float(np.max(np.abs(self.values - other.values)))

    def _pairing(self, other, weight: float) -> Multivector:
        """sum over grid points of weight * self^dagger other."""
        self._require_same_spec(other)
        n = self.spec.n
        return Multivector.from_array(sesquilinear_arrays(self.values, other.values, n) * weight, n)


class Field(_GridData):
    """A Multivector per lattice site, stored blade-major; see :class:`_GridData`."""

    __slots__ = ()

    def mv(self, site: Tuple[int, ...]) -> Multivector:
        """The Multivector at one site (multi-index over {0..N-1}^n)."""
        idx = (slice(None),) + tuple(int(s) % self.spec.N for s in site)
        return Multivector.from_array(self.values[idx], self.spec.n)

    def shift(self, offsets: Tuple[int, ...]) -> "Field":
        """Periodic translation by whole sites: out(x) = self(x - offsets*h)."""
        vals = self.values
        for ax, off in zip(self.spec.site_axes, offsets):
            vals = np.roll(vals, off, axis=ax)
        return Field(self.spec, vals, _copy=False)


def delta_h(spec: GridSpec) -> Field:
    """Discrete delta: scalar value 1/h^n at the origin, zero elsewhere."""
    vals = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    vals[(0,) + (0,) * spec.n] = 1.0 / spec.cell_volume
    return Field(spec, vals, _copy=False)


def sesquilinear(f: Field, g: Field) -> Multivector:
    """Clifford-valued pairing sum_x h^n f(x)^dagger g(x)."""
    return f._pairing(g, f.spec.cell_volume)


def mass(f: Field) -> Multivector:
    """Total lattice mass sum_x h^n f(x) as a Multivector."""
    vec = f.values.reshape(f.spec.nblades, -1).sum(axis=1) * f.spec.cell_volume
    return Multivector.from_array(vec, f.spec.n)


def normalization_check(f: Field) -> float:
    """Scalar part of the total mass; quasi-probability fields return 1."""
    return float(mass(f).scalar_part().real)
