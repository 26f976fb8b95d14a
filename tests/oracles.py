"""Independent reference implementations used only by the tests.

Each oracle re-derives a library operation through a different algorithm:
blade products and conjugation signs via sequence sorting instead of the
bit-arithmetic Cayley table, transforms via explicit O(N^2) phase sums
instead of FFTs (and via one FFT of every blade, dead blades included,
instead of the live ones), convolution via the literal double loop, the
fractional Dirac operator via finite-difference stencils on a refined grid
instead of its Fourier symbol, Fox-Wright series via literal Gamma
products instead of term ratios or log-Gammas, the Levy density at index
1/2 via its closed form instead of the series or the Zolotarev integral,
the Hartman-Watson density via a running total over its panels instead of
one (p x panel x node) array, and field rows via a Python sort of every
nonzero entry instead of the layout.  The refinement-grid embedding the
stencil oracle needs lives here too: no library code uses it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import numpy as np
from scipy.special import gamma, rgamma

from dfplattice.clifford import Multivector, num_blades
from dfplattice.lattice import Field, GridSpec
from dfplattice.spectral import MomentumField, dft_forward, dft_inverse


# ---------------------------------------------------------- blade products

def blade_product_sorting(mask_a: int, mask_b: int, n: int) -> Tuple[int, int]:
    """Blade product by explicit sequence sorting and pair cancellation."""
    seq: List[int] = [j for j in range(2 * n) if mask_a >> j & 1]
    seq += [j for j in range(2 * n) if mask_b >> j & 1]
    sign = 1
    # bubble sort, one transposition sign per swap
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # cancel adjacent equal generators with their metric square
    out: List[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= -1 if seq[i] < n else 1
            i += 2
        else:
            out.append(seq[i])
            i += 1
    mask = 0
    for j in out:
        mask |= 1 << j
    return mask, sign


def dagger_sign_reversal(mask: int, n: int) -> int:
    """Blade conjugation sign by literally reversing the generator sequence:
    one sign per transposition that sorts the reversed sequence back, times
    -1 per generator squaring to -1 (those are anti-Hermitian)."""
    seq = [j for j in range(2 * n) if mask >> j & 1][::-1]
    sign = -1 if sum(j < n for j in seq) % 2 else 1
    for i in range(len(seq)):
        for k in range(len(seq) - 1 - i):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
    return sign


def dense_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Dense 4^n-vector geometric product through the sorting oracle."""
    nb = num_blades(n)
    out = np.zeros(nb, dtype=complex)
    for i in range(nb):
        if a[i] == 0:
            continue
        for j in range(nb):
            if b[j] == 0:
                continue
            mask, sign = blade_product_sorting(i, j, n)
            out[mask] += sign * a[i] * b[j]
    return out


def mv_product_oracle(x: Multivector, y: Multivector) -> Multivector:
    return Multivector.from_array(dense_product(x.to_array(), y.to_array(), x.dim), x.dim)


# --------------------------------------------------------------- transforms

def dft_forward_direct(f: Field) -> MomentumField:
    """(F f)(xi) = h^n (2 pi)^(-n/2) sum_x f(x) e^{i x.xi}, literal sums."""
    spec = f.spec
    modes = spec.momentum_indices()
    vals = np.zeros_like(f.values)
    scale = spec.cell_volume * (2.0 * np.pi) ** (-spec.n / 2.0)
    for midx in np.ndindex(*spec.site_shape):
        xi = np.array([2.0 * np.pi * modes[i] / (spec.N * spec.h) for i in midx])
        acc = np.zeros(f.values.shape[:1], dtype=complex)
        for sidx in np.ndindex(*spec.site_shape):
            x = spec.h * np.array(sidx)
            acc += f.values[(slice(None),) + sidx] * np.exp(1j * float(x @ xi))
        vals[(slice(None),) + midx] = scale * acc
    return MomentumField(spec, vals)


def whole_array_transform(values: np.ndarray, spec: GridSpec, forward: bool) -> np.ndarray:
    """The scaled transform as one FFT of every blade, dead blades included."""
    if forward:
        scale = spec.cell_volume * (2.0 * np.pi) ** (-spec.n / 2.0) * spec.nsites
        return np.fft.ifftn(values, axes=spec.site_axes) * scale
    return np.fft.fftn(values, axes=spec.site_axes) * ((2.0 * np.pi) ** (-spec.n / 2.0) * spec.momentum_weight)


def convolve_direct(K: Field, f: Field) -> Field:
    """(K * f)(x) = sum_y h^n K(x - y) f(y) with the literal double loop."""
    spec = K.spec
    out = np.zeros_like(f.values)
    for xidx in np.ndindex(*spec.site_shape):
        acc = np.zeros(spec.nblades, dtype=complex)
        for yidx in np.ndindex(*spec.site_shape):
            diff = tuple((xi - yi) % spec.N for xi, yi in zip(xidx, yidx))
            acc += dense_product(
                K.values[(slice(None),) + diff], f.values[(slice(None),) + yidx], spec.n
            )
        out[(slice(None),) + xidx] = spec.cell_volume * acc
    return Field(spec, out)


# -------------------------------------------------------- refinement grid

def refine_field(f: Field, factor: int) -> Field:
    """Embed a field into the grid refined by ``factor`` (spacing h/factor).

    The embedding zero-pads the momentum data, i.e. extends the field as the
    trigonometric polynomial it already is: coarse mode k, Nyquist node
    included, lands on fine mode k.  Restricting back to the coarse sites
    recovers the input exactly.  The stencil oracle needs it for Dirac
    shifts that leave the storage grid.
    """
    spec = f.spec
    fine = GridSpec(spec.n, spec.h / factor, spec.alpha, spec.N * factor)
    vals = np.zeros((spec.nblades,) + fine.site_shape, dtype=complex)
    fine_index = spec.momentum_indices() % fine.N
    vals[(slice(None),) + np.ix_(*[fine_index] * spec.n)] = dft_forward(f).values
    return dft_inverse(MomentumField(fine, vals, _copy=False))


def restrict_field(f: Field, factor: int) -> Field:
    """Sample every ``factor``-th site back onto the coarse grid."""
    spec = f.spec
    coarse = GridSpec(spec.n, spec.h * factor, spec.alpha, spec.N // factor)
    return Field(coarse, f.values[(slice(None),) + (slice(None, None, factor),) * spec.n])


# ------------------------------------------------------------ Dirac stencils

def _left_generator(field_vals: np.ndarray, j: int, n: int) -> np.ndarray:
    """Left multiplication of blade arrays by generator j (1-based)."""
    from dfplattice.clifford import generator_tables

    gmask, gsign = generator_tables(n)
    out = np.zeros_like(field_vals)
    g = j - 1
    for m in range(field_vals.shape[0]):
        out[gmask[g, m]] += gsign[g, m] * field_vals[m]
    return out


def _dirac_kahler_stencil(vals: np.ndarray, spec: GridSpec, shift: int, eps: float) -> np.ndarray:
    """D_eps with displacements of `shift` grid steps (eps = shift * spacing)."""
    n = spec.n
    out = np.zeros_like(vals)
    for j in range(1, n + 1):
        ax = j
        fwd = np.roll(vals, -shift, axis=ax)
        bwd = np.roll(vals, shift, axis=ax)
        out += _left_generator((fwd - bwd) / (2.0 * eps), j, n)
        out += _left_generator((2.0 * vals - fwd - bwd) / (2.0 * eps), n + j, n)
    return out


def _dirac_kahler_stencil_dagger(vals: np.ndarray, spec: GridSpec, shift: int, eps: float) -> np.ndarray:
    """Formal blade conjugate of the stencil: the e_j part flips sign."""
    n = spec.n
    out = np.zeros_like(vals)
    for j in range(1, n + 1):
        ax = j
        fwd = np.roll(vals, -shift, axis=ax)
        bwd = np.roll(vals, shift, axis=ax)
        out += _left_generator(-(fwd - bwd) / (2.0 * eps), j, n)
        out += _left_generator((2.0 * vals - fwd - bwd) / (2.0 * eps), n + j, n)
    return out


def dirac_stencil_oracle(f: Field) -> Field:
    """Fractional Dirac operator via refinement-grid finite differences.

    For alpha = r/s the two displacement scales (1-alpha)h and alpha*h land
    on the grid refined s-fold, where the defining combination
    (1-alpha) D_{(1-alpha)h} - alpha D^dagger_{alpha h} is a plain stencil;
    the result is restricted back to the storage grid.  alpha = 0 needs no
    refinement.
    """
    spec = f.spec
    alpha = spec.alpha
    if alpha == 0:
        vals = _dirac_kahler_stencil(f.values, spec, 1, spec.h)
        return Field(spec, vals)
    s = alpha.denominator
    r = alpha.numerator
    fine = refine_field(f, s)
    a = float(alpha)
    if alpha == Fraction(1, 2):
        # central difference on the half grid: (1/2)(D - D^dagger) at eps = h/2
        d = _dirac_kahler_stencil(fine.values, fine.spec, 1, spec.h / 2.0)
        dd = _dirac_kahler_stencil_dagger(fine.values, fine.spec, 1, spec.h / 2.0)
        vals = 0.5 * (d - dd)
    else:
        d = _dirac_kahler_stencil(fine.values, fine.spec, s - r, (1.0 - a) * spec.h)
        dd = _dirac_kahler_stencil_dagger(fine.values, fine.spec, r, a * spec.h)
        vals = (1.0 - a) * d - a * dd
    return restrict_field(Field(fine.spec, vals), s)


# ------------------------------------------------------------- Fox-Wright

def fox_wright_partial_sum(upper, lower, lam: complex, terms: int = 100) -> Tuple[complex, float]:
    """Partial sum of pPsiq and its largest |term|, one term at a time.

    Term m is lam^m / m! * prod Gamma(a + A m) * prod 1/Gamma(b + B m),
    each factor evaluated directly: no log space, no term ratios.
    """
    total, largest = 0j, 0.0
    for m in range(terms):
        term = complex(lam) ** m * rgamma(m + 1.0)
        for a, A in upper:
            term *= gamma(complex(a) + A * m)
        for b, B in lower:
            term *= rgamma(complex(b) + B * m)
        total += term
        largest = max(largest, abs(term))
    return total, largest


# ------------------------------------------------------------------- Levy

def levy_half_pdf(u: np.ndarray) -> np.ndarray:
    """The one-sided stable density at index 1/2 in closed form: u^{-3/2} e^{-1/(4u)} / (2 sqrt(pi))."""
    u = np.asarray(u, dtype=float)
    return u**-1.5 * np.exp(-1.0 / (4.0 * u)) / (2.0 * np.sqrt(np.pi))


# --------------------------------------------------------- Hartman-Watson

def hartman_watson_theta_loop(r: float, p: float) -> float:
    """theta_r(p) for one p by a running total over the Gauss panels between the sine zeros."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    ymax = min(np.arccosh(80.0 / r + 1.0), np.sqrt(2.0 * p * 80.0 + np.pi**2))
    total, m = 0.0, 0
    while m * p < ymax:
        a, b = m * p, min((m + 1) * p, ymax)
        y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        f = np.exp((np.pi**2 - y**2) / (2.0 * p) - r * np.cosh(y)) * np.sinh(y) * np.sin(np.pi * y / p)
        total += float(np.sum(0.5 * (b - a) * weights * f))
        m += 1
    return r / np.sqrt(2.0 * np.pi**3 * p) * total


# ------------------------------------------------------------- field rows

def field_rows_oracle(field) -> List[tuple]:
    """(k..., mask, re, im) rows: every nonzero entry, then a Python sort on (k..., mask).

    Momentum axes are labelled with signed mode numbers, storage index i
    holding k = i for i <= N/2 and k = i - N above.
    """
    spec = field.spec
    N = spec.N
    signed = isinstance(field, MomentumField)
    labels = [i if not signed or i <= N // 2 else i - N for i in range(N)]
    rows = []
    for entry in np.argwhere(field.values != 0):
        mask, idx = int(entry[0]), tuple(int(v) for v in entry[1:])
        v = complex(field.values[(mask,) + idx])
        rows.append(tuple(labels[i] for i in idx) + (mask, v.real, v.imag))
    rows.sort(key=lambda r: r[: spec.n] + (r[spec.n],))
    return rows


def field_csv_oracle(field) -> str:
    """The field CSV: header, then the oracle rows with ints in decimal and floats by repr."""
    header = [f"k{j + 1}" for j in range(field.spec.n)] + ["mask", "re", "im"]
    lines = [",".join(header)]
    for row in field_rows_oracle(field):
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"
