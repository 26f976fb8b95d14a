"""Discrete Fourier transform on the periodic lattice and its convolution calculus.

Conventions (fixed once, used everywhere):

* forward:  (F f)(xi) = h^n (2 pi)^(-n/2) sum_x f(x) e^{+i x.xi}
* inverse:  f(x) = (2 pi)^(-n/2) sum_k w (F f)(xi_k) e^{-i x.xi_k},
  with node weight w = (2 pi/(N h))^n standing in for the zone integral;
  the pair is an exact isomorphism on the truncation.
* convolution: (K * f)(x) = sum_y h^n K(x - y) f(y), kernel on the LEFT;
  under the transforms above F[K * f] = (2 pi)^(n/2) (F K)(F f), and the
  multiplier representation F^-1[m . F f] is exactly a convolution against
  F^-1[(2 pi)^(-n/2) m].

Transforms run as one FFT per blade component, over the live blades only
(every other blade of the result is exactly 0); an O(N^2) direct-sum twin
lives in the test suite as the independent oracle.  Momentum arrays keep the
FFT's natural order (mode k at index k % N, see :class:`GridSpec`), so a
transform is one scaled FFT with no reordering.
"""

from __future__ import annotations

import numpy as np

from .clifford import Multivector, geometric_product_arrays, live_blades
from .lattice import Field, GridSpec, _GridData

__all__ = [
    "MomentumField",
    "dft_forward",
    "dft_inverse",
    "momentum_sesquilinear",
    "convolve",
]


class MomentumField(_GridData):
    """A Multivector per momentum node, blade-major, nodes in FFT order (mode k at index k % N)."""

    __slots__ = ()

    def mv(self, mode: tuple) -> Multivector:
        """Multivector at the node with signed mode numbers ``mode``, each in (-N/2, N/2]."""
        idx = (slice(None),) + tuple(self.spec.mode_index(k) for k in mode)
        return Multivector.from_array(self.values[idx], self.spec.n)


def _transform_rows(rows: np.ndarray, spec: GridSpec, forward: bool) -> np.ndarray:
    """The scaled transform of the blade rows ``rows`` over the site axes, as a new array.

    One 1D pass per site axis in the order ``np.fft.fftn`` takes them, the
    later passes in place; each blade's result does not depend on the other
    rows, so a subset of rows transforms to the same bits as the whole array.
    """
    if forward:
        fft, scale = np.fft.ifft, spec.cell_volume * (2.0 * np.pi) ** (-spec.n / 2.0) * spec.nsites
    else:
        fft, scale = np.fft.fft, (2.0 * np.pi) ** (-spec.n / 2.0) * spec.momentum_weight
    axes = spec.site_axes[::-1]
    out = fft(rows, axis=axes[0])
    for ax in axes[1:]:
        fft(out, axis=ax, out=out)
    out *= scale
    return out


def _placed(rows: np.ndarray, blades: np.ndarray, into: np.ndarray) -> np.ndarray:
    """``rows``, one per blade of ``blades``, as the rows of the sorted blades
    ``into`` (a superset), zero elsewhere; ``rows`` itself when the sets are equal."""
    if blades.size == into.size:
        return rows
    out = np.zeros((into.size,) + rows.shape[1:], dtype=complex)
    out[np.searchsorted(into, blades)] = rows
    return out


def _transform(values: np.ndarray, spec: GridSpec, forward: bool) -> np.ndarray:
    """The transform of the live blades of ``values``; every other blade is exactly 0."""
    live = live_blades(values)
    rows = values if live.size == spec.nblades else values[live]
    return _placed(_transform_rows(rows, spec, forward), live, np.arange(spec.nblades))


def _require_class(x, cls, name: str) -> None:
    """TypeError unless ``x`` is exactly a ``cls``: site and momentum data never mix."""
    if type(x) is not cls:
        raise TypeError(f"{name} takes a {cls.__name__}, not a {type(x).__name__}")


def dft_forward(f: Field) -> MomentumField:
    """Forward transform, componentwise per blade."""
    _require_class(f, Field, "dft_forward")
    return MomentumField(f.spec, _transform(f.values, f.spec, forward=True), _copy=False)


def dft_inverse(F: MomentumField) -> Field:
    """Inverse transform; exact inverse of :func:`dft_forward` on the truncation."""
    _require_class(F, MomentumField, "dft_inverse")
    return Field(F.spec, _transform(F.values, F.spec, forward=False), _copy=False)


def momentum_sesquilinear(F: MomentumField, G: MomentumField) -> Multivector:
    """Zone pairing sum_k w F(xi_k)^dagger G(xi_k) (weight w per node)."""
    return F._pairing(G, F.spec.momentum_weight)


def convolve(K: Field, f: Field) -> Field:
    """Discrete convolution (K * f)(x) = sum_y h^n K(x-y) f(y), kernel on the left."""
    K._require_same_spec(f)
    _require_class(K, Field, "convolve")
    spec = K.spec
    FK = dft_forward(K)
    Ff = dft_forward(f)
    prod = geometric_product_arrays(FK.values, Ff.values, spec.n)
    prod *= (2.0 * np.pi) ** (spec.n * 0.5)  # F[K * f] = (2 pi)^(n/2) FK Ff
    return dft_inverse(MomentumField(spec, prod, _copy=False))
