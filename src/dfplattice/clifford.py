"""Complexified Clifford algebra of signature (n, n) over bitmask blades.

The 2n generators split into n generators squaring to -1 (indices 1..n)
and n generators squaring to +1 (indices n+1..2n); distinct generators
anticommute.  A basis blade is a bitmask over the generators (bit j-1 set
<=> generator j present), kept in ascending generator order, so the 2^(2n)
blades are the integers 0..4^n-1 and the empty mask is the scalar unit.

Two representations live here:

* :class:`Multivector` -- a sparse mask -> complex map, the value type for
  pointwise algebra (sesquilinear forms, symbols at a single momentum node).
* flat ``(4^n, ...)`` complex arrays -- the blade-major layout used by
  lattice fields; the array-level products below drive every field
  operation and are what the solvers spend their time in.

The array product does not visit blade pairs.  Complexified Cl(n,n) is
isomorphic to the 2^n x 2^n complex matrices (Lounesto, *Clifford Algebras
and Spinors*, ch. 16): with Jordan-Wigner gammas, e_j = i*gamma_j for j <= n
and e_{n+j} = gamma_{n+j}, each blade is one matrix, blade conjugation is
the conjugate transpose, and the blade coefficient m of a matrix P is
tr(E_m^dagger P) / 2^n.  A field product is then one 2^n x 2^n matmul per
site between two basis changes; the matrices stay private to this module and
fields stay blade-major.  The pairing sum_x a(x)^dagger b(x) needs no
per-site product at all: it is the blade Gram matrix over sites, scattered
through the Cayley table.  That table, :func:`product_table`, is the one
source of blade signs: the generator and conjugation signs are read from it,
and Multivector products scatter their blade pairs through it as well.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

__all__ = [
    "AlgebraError",
    "Multivector",
    "blade_product",
    "dagger_sign",
    "dagger_signs",
    "generator_mask",
    "geometric_product_arrays",
    "generator_tables",
    "live_blades",
    "num_blades",
    "product_table",
    "sesquilinear_arrays",
]

CONSISTENCY_TOL = 1e-12
_BLOCK = 2048        # sites multiplied together, which bounds the block matrices


class AlgebraError(ArithmeticError):
    """An algebraic invariant failed beyond roundoff (internal inconsistency)."""


def num_blades(n: int) -> int:
    return 1 << (2 * n)


def generator_mask(j: int, n: int) -> int:
    """Bitmask of generator ``j`` (1-based, 1 <= j <= 2n)."""
    if not 1 <= j <= 2 * n:
        raise ValueError(f"generator index {j} outside 1..{2 * n}")
    return 1 << (j - 1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def product_table(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense Cayley data: (result_mask[i, j], sign[i, j]) over all blade pairs.

    Blade i times blade j is sign[i, j] * blade(i ^ j).  The sign is
    (-1)^swaps from interleaving the two ascending generator sequences (each
    generator of i passes the generators of j below it), times -1 per
    repeated generator below index n; both counts are sums of the 2n shifted bits.
    """
    m = np.arange(num_blades(n), dtype=np.intp)
    bits = m[:, None] >> np.arange(2 * n) & 1
    below = np.cumsum(bits, axis=1) - bits
    parity = (bits @ below.T + bits[:, :n] @ bits[:, :n].T) & 1
    return _frozen(m[:, None] ^ m[None, :]), _frozen((1 - 2 * parity).astype(np.int8))


@lru_cache(maxsize=None)
def dagger_signs(n: int) -> np.ndarray:
    """Sign of blade conjugation per mask: E_m^dagger E_m = 1, so it is the sign of
    E_m E_m, the diagonal of :func:`product_table`."""
    return _frozen(product_table(n)[1].diagonal().copy())


@lru_cache(maxsize=None)
def generator_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left multiplication by each generator: the (2n, 4^n) rows of :func:`product_table`
    at the generator masks, so generator g (0-based) times blade m is
    ``signs[g, m] * blade(masks[g, m])``."""
    gens = 1 << np.arange(2 * n)
    return tuple(_frozen(table[gens]) for table in product_table(n))


def blade_product(mask_a: int, mask_b: int, n: int) -> Tuple[int, int]:
    """Product of two basis blades: result mask and sign, read from :func:`product_table`."""
    masks, signs = product_table(n)
    return int(masks[mask_a, mask_b]), int(signs[mask_a, mask_b])


def dagger_sign(mask: int, n: int) -> int:
    """Sign of blade conjugation, read from :func:`dagger_signs`."""
    return int(dagger_signs(n)[mask])


def _cayley_sum(pairs: np.ndarray, n: int) -> np.ndarray:
    """Blade vector of sum_{i,j} sign[i, j] pairs[i, j] blade(i ^ j), the (4^n, 4^n)
    blade-pair matrix scattered in row-major order; signs apply by negation, exactly."""
    masks, signs = product_table(n)
    terms = np.where(signs < 0, -pairs, pairs).ravel()
    out = np.empty(num_blades(n), dtype=complex)
    out.real, out.imag = (np.bincount(masks.ravel(), part, out.size) for part in (terms.real, terms.imag))
    return out


@lru_cache(maxsize=None)
def blade_matrices(n: int) -> np.ndarray:
    """Each blade as a 2^n x 2^n complex matrix, shape (4^n, 2^n, 2^n).

    Jordan-Wigner gammas (Z...Z X I...I and Z...Z Y I...I) are 2n Hermitian,
    pairwise anticommuting matrices squaring to 1.  Generator j <= n is
    i*gamma_j (anti-Hermitian, squares to -1), generator n+j is gamma_{n+j}
    (Hermitian, squares to +1), and blade m is the product of its generators
    in ascending order.  So E_m^dagger = dagger_sign(m) * E_m and
    tr(E_m^dagger E_k) = 2^n delta_mk.
    """
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]])
    pauli_z = np.diag([1.0 + 0j, -1.0])
    gammas = [
        reduce(np.kron, [pauli_z] * k + [p] + [np.eye(2)] * (n - k - 1))
        for k in range(n)
        for p in (pauli_x, pauli_y)
    ]
    gens = [1j * gm if g < n else gm for g, gm in enumerate(gammas)]
    return _frozen(np.array([
        reduce(np.matmul, [gens[g] for g in range(2 * n) if m >> g & 1], np.eye(1 << n, dtype=complex))
        for m in range(num_blades(n))
    ]))


def _require_blade_axis(a: np.ndarray, n: int) -> None:
    if a.ndim < 1 or a.shape[0] != num_blades(n):
        raise ValueError(f"leading axis of shape {a.shape} is not the {num_blades(n)} blades of n = {n}")


def live_blades(values: np.ndarray) -> np.ndarray:
    """Indices of the blades (leading axis) that are nonzero somewhere."""
    return values.reshape(values.shape[0], -1).any(axis=1).nonzero()[0]


def _sites(a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``a`` broadcast to spatial ``shape`` and flattened to (blades, sites)."""
    if a.shape[1:] != shape:  # spatial axes broadcast right-aligned, as numpy aligns them
        pad = (1,) * (len(shape) + 1 - a.ndim)
        a = np.broadcast_to(a.reshape(a.shape[:1] + pad + a.shape[1:]), a.shape[:1] + shape)
    return a.reshape(a.shape[0], -1)


def geometric_product_arrays(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Geometric product of blade-major coefficient arrays.

    ``a`` and ``b`` have shape (4^n,) + spatial, the spatial shapes
    broadcasting together.  Each site's operands become 2^n x 2^n matrices
    through :func:`blade_matrices` (live blades only), are multiplied, and
    are read back as tr(E_m^dagger P) / 2^n, in blocks of at most ``_BLOCK``
    sites.  Blades that no live pair i ^ j reaches are exactly zero.
    """
    _require_blade_axis(a, n)
    _require_blade_axis(b, n)
    nb, dim = num_blades(n), 1 << n
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((nb, math.prod(shape)), dtype=complex)
    a_live, b_live = live_blades(a), live_blades(b)
    if a_live.size and b_live.size:
        basis = blade_matrices(n).reshape(nb, dim * dim)
        reach = np.unique(a_live[:, None] ^ b_live[None, :])
        to_a, to_b = basis[a_live], basis[b_live]
        back = basis[reach].conj().T / dim
        a2, b2 = _sites(a, shape), _sites(b, shape)
        for lo in range(0, out.shape[1], _BLOCK):
            part = slice(lo, lo + _BLOCK)
            ma = (a2[a_live, part].T @ to_a).reshape(-1, dim, dim)
            mb = (b2[b_live, part].T @ to_b).reshape(-1, dim, dim)
            out[reach, part] = ((ma @ mb).reshape(-1, dim * dim) @ back).T
    return out.reshape((nb,) + shape)


def sesquilinear_arrays(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Blade vector of sum_x a(x)^dagger b(x) over all spatial points.

    No per-site product: the Gram matrix G[i, j] = sum_x conj(a_i(x)) b_j(x)
    is one GEMM over sites, and pair (i, j) adds dagger_sign(i) *
    sign(i, j) * G[i, j] to blade i ^ j of the product table.
    """
    _require_blade_axis(a, n)
    _require_blade_axis(b, n)
    nb = num_blades(n)
    gram = np.conj(a.reshape(nb, -1)) @ b.reshape(nb, -1).T
    return _cayley_sum(dagger_signs(n)[:, None] * gram, n)


class Multivector:
    """Element of the complexified algebra, sparse over blades.

    Instances are immutable; all operations return fresh values.  Absent
    blades are exactly zero (coefficients below 0 magnitude are dropped).
    """

    __slots__ = ("dim", "_coeffs")

    def __init__(self, coeffs: Mapping[int, complex], dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        nb = num_blades(dim)
        clean: Dict[int, complex] = {}
        for mask, c in coeffs.items():
            if not 0 <= mask < nb:
                raise ValueError(f"blade mask {mask} outside algebra Cl({dim},{dim})")
            c = complex(c)
            if c != 0:
                clean[mask] = clean.get(mask, 0.0) + c
        self.dim = dim
        self._coeffs = {m: c for m, c in clean.items() if c != 0}

    # -- constructors ---------------------------------------------------
    @classmethod
    def scalar(cls, value: complex, dim: int) -> "Multivector":
        return cls({0: value}, dim)

    @classmethod
    def blade(cls, mask: int, dim: int, coeff: complex = 1.0) -> "Multivector":
        return cls({mask: coeff}, dim)

    @classmethod
    def generator(cls, j: int, dim: int) -> "Multivector":
        """Basis generator e_j, 1-based (j <= n squares to -1, j > n to +1)."""
        return cls({generator_mask(j, dim): 1.0}, dim)

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls({}, dim)

    @classmethod
    def from_array(cls, vec: np.ndarray, dim: int) -> "Multivector":
        return cls({m: vec[m] for m in range(num_blades(dim)) if vec[m] != 0}, dim)

    # -- access ---------------------------------------------------------
    def coeff(self, mask: int) -> complex:
        return self._coeffs.get(mask, 0.0)

    def items(self) -> Iterable[Tuple[int, complex]]:
        return self._coeffs.items()

    def to_array(self) -> np.ndarray:
        vec = np.zeros(num_blades(self.dim), dtype=complex)
        for m, c in self._coeffs.items():
            vec[m] = c
        return vec

    def scalar_part(self) -> complex:
        return self._coeffs.get(0, 0.0)

    # -- algebra ----------------------------------------------------------
    def _require_same_dim(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._require_same_dim(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return Multivector(out, self.dim)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-1.0) * other

    def __neg__(self) -> "Multivector":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "Multivector":
        return Multivector({m: scalar * c for m, c in self._coeffs.items()}, self.dim)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._require_same_dim(other)
            a, b = self.to_array(), other.to_array()
            ia, ib = a.nonzero()[0], b.nonzero()[0]
            pairs = np.zeros((a.size, b.size), dtype=complex)
            # nonzero blades only, so an inf or nan coefficient reaches just the blades it
            # multiplies into; like Python complex arithmetic, that raises no warning
            with np.errstate(invalid="ignore", over="ignore"):
                pairs[np.ix_(ia, ib)] = np.multiply.outer(a[ia], b[ib])
                return Multivector.from_array(_cayley_sum(pairs, self.dim), self.dim)
        return Multivector({m: c * other for m, c in self._coeffs.items()}, self.dim)

    def dagger(self) -> "Multivector":
        sign = dagger_signs(self.dim)
        return Multivector({m: sign[m] * np.conj(c) for m, c in self._coeffs.items()}, self.dim)

    def norm(self) -> float:
        """sqrt of the scalar part of a^dagger a (checked real nonnegative)."""
        sq = (self.dagger() * self).scalar_part()
        scale = max(1.0, self.sup_norm() ** 2)
        if abs(sq.imag) > CONSISTENCY_TOL * scale or sq.real < -CONSISTENCY_TOL * scale:
            raise AlgebraError(f"a^dagger a scalar part {sq} not real nonnegative")
        return float(np.sqrt(max(sq.real, 0.0)))

    def sup_norm(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return (self - other).sup_norm() <= tol

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self.dim == other.dim
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._coeffs.items()))))

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"Multivector(0, dim={self.dim})"
        parts = []
        for m in sorted(self._coeffs):
            label = "1" if m == 0 else "e" + "e".join(
                str(j + 1) for j in range(2 * self.dim) if m >> j & 1
            )
            parts.append(f"({self._coeffs[m]:.6g})*{label}")
        return " + ".join(parts) + f" [dim={self.dim}]"
