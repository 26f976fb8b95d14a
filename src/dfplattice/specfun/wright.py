"""Generalized (Fox-Wright) series p_Psi_q and its named special cases.

The series  sum_m  prod_k Gamma(a_k + A_k m) / prod_l Gamma(b_l + B_l m)
            * lam^m / m!
is summed by one driver, ``fox_wright_eval``, for a scalar or an array of
arguments.  A row value a_k or b_l may itself be an array: the rows then
form a parameter axis that broadcasts against lam, and each element of the
broadcast shape is the series of its own parameter set (the Mellin-Barnes
contour, one set per node, is one call).  Weights stay scalars, so Delta
and rho are one per call.  Admissibility follows the standard trichotomy
on Delta = sum B_l - sum A_k:

* Delta > -1: entire in lam;
* Delta = -1: |lam| < rho converges, |lam| = rho needs Re kappa > 1/2,
  with rho = prod |B_l|^B_l / prod |A_k|^A_k and
  kappa = sum b_l - sum a_k + (p - q)/2 (the smallest Re kappa on the axis);
* Delta < -1: divergent for lam != 0.

The driver checks admissibility once per call, at the largest |lam|, takes
the m = 0 terms from Gamma and 1/Gamma directly, and generates the terms
m >= 1 in blocks of ``_BLOCK`` on one of two paths.

Product path.  A call whose rows take the log-Gamma rule below (they are
not all real, positive and of positive-integer weight) and whose parameter
axis and lam form an outer product, every (set, lam) pair once, as the
Mellin-Barnes contour's (nodes x 1) rows against the distinct lam.  Term m
of set p at lam_j is C[m, p] lam_j^m: the coefficients depend on the set
only and the powers on lam only, so each block is one matrix product of a
(terms x sets) block of C, built from log-Gammas, and a (terms x lam) block
of powers.  Every set's row and every lam's column is scaled by an exact
power of two so that no factor exceeds 1, and no array spans more than one
block of terms.  Each element keeps its partial sum, its sum of |term|
(|C| times |powers|) and its largest block-end |partial sum| in units of
2^e, e raised after every block to the exponent of the block's |term| sum.
An element is done after a full block whose |term| sum lies below
``_TERM_EPS`` times its largest block-end |partial sum|; every element takes
the same K terms, K the block end at which the last element is done (the
element of largest |lam|, in practice), or ``max_terms``, where the
elements not done have status "max-terms".  ``terms_used`` is K, and the
cancellation is sum |term| / |value|, a conservative bound on max |term| /
|value|.  The sums run in another order than the slab path's, so the two
agree to rounding, not bit for bit.

Slab path, every other call: the elements of a slab are summed at once.
Slabs hold at most ``_SLAB`` elements, which bounds the block arrays
whatever the size of the call; each block's coefficients are built once per
parameter set that an unfinished element of the slab still uses, as a
(terms x sets) array, and gathered per element.  A scalar row stays one
value on a parameter axis, so its share of a block is one (terms x 1)
column, on both paths.

* Coefficient rule, chosen per element.  When every row (v, w) has real
  v > 0 and a positive-integer weight w, and the element's lam is real,
  term m is term m - 1 times the exact Pochhammer ratio
  lam prod_k (a_k + A_k (m-1))_{A_k} / (m prod_l (b_l + B_l (m-1))_{B_l}),
  with ratios, products and sums in ``np.longdouble`` (extended precision
  on x86, plain double on platforms without it), so alternating sums such
  as cos(10) = sqrt(pi) 0Psi1[(1/2,1); -25] keep their digits.  Otherwise
  each term is the exponential of a sum of log-Gammas: denominator pole
  terms are exact zeros, numerator poles are genuine parameter
  singularities and raise.  An element whose ratio terms leave the double
  range is summed again from m = 1 with log-Gammas.  So an element's value
  does not depend on the elements that share its call, and an array call
  equals per-element scalar calls bit for bit.  The block coefficients
  depend on the parameters only; those of scalar rows are cached, as is
  their m = 0 term.  A block's log-Gamma coefficients are held in one
  (terms x sets) array, built and pole-marked in place.
* Rescale.  Each element's terms and partial sums are held in units of
  2^e, with e raised after every block to the binary exponent of the
  largest term so far; the rescale is an exact power of two, so nothing
  overflows unless the value itself does.
* Stopping rule.  An element stops after a full block whose terms all lie
  below ``_TERM_EPS`` times its largest block-end partial sum so far
  (status "converged"), or at ``max_terms`` ("max-terms").

``FoxWrightValue`` carries the value, the status and the cancellation (its
log10 is the digits lost) per element, and ``terms_used``, the most terms
any element took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .gammafn import DomainError, _require_finite, gamma, log_gamma, recip_gamma

__all__ = [
    "FoxWrightParams",
    "FoxWrightValue",
    "fox_wright",
    "fox_wright_eval",
    "mittag_leffler",
    "bessel_i_scaled",
    "wright_cos",
    "wright_sinc",
]

_BLOCK = 25          # terms per block, and the window of the stopping rule
_SLAB = 1024         # elements summed together, which bounds the block arrays
_MAX_TERMS = 100_000
_TERM_EPS = 1e-16
_LN2 = math.log(2.0)


def _row_value(v):
    """A row value as a complex, or as a read-only complex array for a parameter axis."""
    if np.ndim(v) == 0:
        return complex(v)
    v = np.array(v, dtype=complex)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class FoxWrightParams:
    """Parameter rows (a_k, A_k) over (b_l, B_l); values and weights finite, weights nonzero.

    A row value a_k or b_l may be an array: the rows then broadcast to a
    parameter axis of shape ``shape``, which in turn broadcasts against lam.
    Weights are scalars, so Delta and rho are one per call.
    """

    upper: Tuple[Tuple[complex, float], ...]
    lower: Tuple[Tuple[complex, float], ...]
    shape: Tuple[int, ...] = field(init=False, repr=False, compare=False)  # () for scalar rows

    def __post_init__(self):
        up = tuple((_row_value(a), float(A)) for a, A in self.upper)
        lo = tuple((_row_value(b), float(B)) for b, B in self.lower)
        for v, w in up + lo:
            _require_finite(np.append(v, w), "Fox-Wright row")
        if any(A == 0.0 for _, A in up) or any(B == 0.0 for _, B in lo):
            raise ValueError("Fox-Wright weights must be nonzero")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "shape", np.broadcast_shapes(*(np.shape(v) for v, _ in up + lo)))

    @property
    def delta(self) -> float:
        return sum(B for _, B in self.lower) - sum(A for _, A in self.upper)

    @property
    def rho(self) -> float:
        num = float(np.prod([abs(B) ** B for _, B in self.lower])) if self.lower else 1.0
        den = float(np.prod([abs(A) ** A for _, A in self.upper])) if self.upper else 1.0
        return num / den

    @property
    def kappa(self) -> Union[complex, np.ndarray]:
        return (
            sum((b for b, _ in self.lower), 0j)
            - sum((a for a, _ in self.upper), 0j)
            + (len(self.upper) - len(self.lower)) / 2.0
        )

    def convergence_kind(self) -> str:
        if self.delta > -1.0:
            return "entire"
        if self.delta == -1.0:
            return "disk"
        return "divergent"

    def check_admissible(self, lam: complex) -> None:
        """Raise unless the series converges at |lam|, for every parameter set on the axis."""
        lam = complex(lam)
        kind = self.convergence_kind()
        if kind == "entire" or lam == 0.0:
            return
        kappa = np.ravel(self.kappa)
        kappa = complex(kappa[np.argmin(kappa.real)])  # the boundary case is decided by min Re kappa
        if kind == "divergent":
            raise DomainError(
                f"series divergent: Delta = {self.delta} < -1 "
                f"(rho = {self.rho}, kappa = {kappa})"
            )
        r, rho = abs(lam), self.rho
        if r < rho * (1.0 - 1e-13):
            return
        if r <= rho * (1.0 + 1e-13):
            if kappa.real > 0.5:
                return
            raise DomainError(
                f"boundary |lam| = rho = {rho} requires Re kappa > 1/2, "
                f"got kappa = {kappa} (Delta = {self.delta})"
            )
        raise DomainError(
            f"|lam| = {r} outside radius rho = {rho} "
            f"(Delta = {self.delta}, kappa = {kappa})"
        )


@dataclass(frozen=True)
class FoxWrightValue:
    """Scalars for scalar lam and rows; otherwise arrays of their broadcast shape, except terms_used."""

    value: Union[complex, np.ndarray]
    status: Union[str, np.ndarray]           # "converged" | "max-terms"
    terms_used: int                          # the most terms any element took
    # the digits-lost indicator: max |term| / |value| (slab path), sum |term| / |value| (product path)
    cancellation: Union[float, np.ndarray]


def _gamma_ratio(params: FoxWrightParams):
    """Gamma(a) / Gamma(b) products: a complex, or an array over the parameter axis."""
    out = 1.0 + 0.0j
    for a, _ in params.upper:
        out = out * gamma(a)  # raises at poles
    for b, _ in params.lower:
        out = out * recip_gamma(b)
    return out


_scalar_gamma_ratio = lru_cache(maxsize=256)(_gamma_ratio)


def _m0_term(params: FoxWrightParams):
    """The m = 0 terms: one complex for scalar rows, cached as it depends on the parameters
    only, or an array over the parameter axis."""
    return _gamma_ratio(params) if params.shape else _scalar_gamma_ratio(params)


def _coefficients(upper, lower, start: int, stop: int, exact: bool):
    """Columns of m = start..stop-1 and of t_m / (lam t_{m-1}) (exact) or log(t_m / lam^m).

    Row values are scalars or 1-d arrays over P parameter sets; the
    coefficients come as a (terms x P) array, one column per set.  The exact
    ratios are Pochhammer products in extended precision; a log coefficient
    of -inf marks a denominator pole (an exact zero term).
    """
    m = np.arange(start, stop, dtype=float)[:, None]
    if exact:
        k = m.astype(np.longdouble)
        coef = 1.0 / k
        for a, A in upper:
            for i in range(int(A)):
                coef = coef * (np.real(a) + A * (k - 1.0) + i)
        for b, B in lower:
            for i in range(int(B)):
                coef = coef / (np.real(b) + B * (k - 1.0) + i)
    else:
        from scipy.special import gammaln

        coef = -gammaln(m + 1.0)
        for a, A in upper:
            coef = _in_place(np.add, log_gamma(a + A * m), coef)
        den = 0.0
        for b, B in lower:
            den = den + log_gamma(b + B * m)
        if not np.isfinite(coef).all():
            raise DomainError("Gamma pole among upper parameters a_k + A_k m")
        coef = _in_place(np.subtract, coef, den)
        np.copyto(coef, -np.inf, where=~np.isfinite(den))  # denominator poles: exact zero terms
    return m, coef


def _in_place(op, x: np.ndarray, y):
    """op(x, y), written over the temporary x when it already has the result's shape and dtype,
    so a block's (terms x sets) coefficients are held in one array."""
    fits = x.shape == np.broadcast_shapes(x.shape, np.shape(y)) and x.dtype == np.result_type(x, y)
    return op(x, y, out=x if fits else None)


@lru_cache(maxsize=256)
def _cached_coefficients(params: FoxWrightParams, start: int, stop: int, exact: bool):
    """``_coefficients`` of scalar rows, cached: they depend on the parameters only."""
    m, coef = _coefficients(params.upper, params.lower, start, stop, exact)
    m.flags.writeable = coef.flags.writeable = False  # the cache hands them to every caller
    return m, coef


def _block_coefficients(params: FoxWrightParams, rows, col, start: int, stop: int, exact: bool):
    """``_coefficients`` with one column per element: element j has set ``col[j]`` of ``rows``.

    ``rows`` holds the (upper, lower) rows of the slab's parameter sets, as
    1-d arrays or, for a scalar row, the scalar; when every row is scalar
    (``rows`` None) the one cached column is returned.
    """
    if rows is None:
        return _cached_coefficients(params, start, stop, exact)
    m, coef = _coefficients(*rows, start, stop, exact)
    return m, coef.take(col, axis=1)  # C order, so blocks sum as scalar-row blocks do


def _narrow(rows, col):
    """The rows of the parameter sets that ``col`` uses, and ``col`` renumbered among them.

    Scalar rows, and ``rows`` None when every row is scalar, pass through unchanged.
    """
    if rows is None:
        return None, col
    sets, col = np.unique(col, return_inverse=True)
    return tuple(tuple((v if np.ndim(v) == 0 else v[sets], w) for v, w in part) for part in rows), col


def _exact_rows(params: FoxWrightParams) -> bool:
    """Positive-integer weights with positive real rows: exact term ratios at a real lam."""
    return all(
        w == int(w) and w > 0 and np.all(np.imag(v) == 0.0) and np.all(np.real(v) > 0.0)
        for v, w in params.upper + params.lower
    )


def _flat_rows(params: FoxWrightParams):
    """The (upper, lower) rows over the flattened parameter axis, a scalar row kept scalar."""
    return tuple(
        tuple((v if np.ndim(v) == 0 else np.broadcast_to(v, params.shape).reshape(-1), w) for v, w in part)
        for part in (params.upper, params.lower)
    )


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z 2^e for complex z, part by part, so no power of two is formed on its own (it may overflow)."""
    out = np.empty(np.broadcast_shapes(z.shape, np.shape(e)), dtype=complex)
    out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
    return out


def _sum_series(params: FoxWrightParams, lam: np.ndarray, pid: np.ndarray, max_terms: int):
    """The slab path: the series at every element of the 1-d complex array ``lam``.

    Element j takes the parameter set ``pid[j]`` of the flattened parameter
    axis.  Returns the values, a converged flag and the cancellation per
    element, and the most terms any element took.
    """
    params.check_admissible(np.abs(lam).max(initial=0.0))  # admissibility depends on |lam| only
    t0 = np.ravel(_m0_term(params))  # one per parameter set
    exact_rows = _exact_rows(params)
    flat = _flat_rows(params) if params.shape else None
    value = np.empty(lam.shape, dtype=complex)
    converged = np.ones(lam.shape, dtype=bool)
    cancellation = np.empty(lam.shape)

    def sum_into(idx, exact):
        """Sum the elements ``idx`` under one rule; returns the terms taken and the overflowed elements."""
        if not idx.size:
            return 1, idx
        res = _sum_slab(params, flat, lam[idx], t0[pid[idx]], pid[idx], exact, max_terms)
        value[idx], converged[idx], cancellation[idx] = res[:3]
        return res[3], idx[res[4]]

    terms_used = 1
    for lo in range(0, lam.size, _SLAB):
        logs = np.arange(lo, min(lo + _SLAB, lam.size))
        if exact_rows:
            # the rule is chosen per element, so no element depends on what shares its call:
            # exact ratios at a real lam, log-Gammas otherwise and where the ratio terms overflow
            real = lam[logs].imag == 0.0
            terms, redo = sum_into(logs[real], True)
            logs = np.concatenate((logs[~real], redo))
            terms_used = max(terms_used, terms)
        terms_used = max(terms_used, sum_into(logs, False)[0])
    return value, converged, cancellation, terms_used


def _sum_slab(params, flat, lam, t0, pid, exact, max_terms):
    """Sum one slab's elements under one coefficient rule.

    ``t0`` is each element's m = 0 term and ``pid`` its index on the
    flattened parameter axis, whose rows are ``flat`` (None when every row
    is scalar).  Block coefficients are built for the sets of unfinished
    elements only.
    Returns the value, converged flag and cancellation per element, the
    terms taken, and a mask of the elements whose exact-ratio terms left the
    double range: those are left unsummed, to be summed with log-Gammas.
    """
    # per element: partial sum in units of 2^exps, largest |term| in the same units
    sums = t0.copy()
    exps = np.zeros(lam.shape, dtype=int)
    peaks = np.abs(t0)
    converged = np.ones(lam.shape, dtype=bool)
    overflow = np.zeros(lam.shape, dtype=bool)
    # the same for the unfinished elements, with lam, the last term and the largest block-end |sum|
    live = np.flatnonzero(lam)
    x, acc, e, big = lam[live], sums[live], exps[live], peaks[live]
    rows, col = _narrow(flat, pid[live])  # each live element's column among the live sets
    last, top = acc.real, big
    m0 = 1
    with np.errstate(all="ignore"):
        while live.size and m0 < max_terms:
            stop = min(m0 + _BLOCK, max_terms)
            if exact:
                m, ratio = _block_coefficients(params, rows, col, m0, stop, True)
                terms = last * (ratio * x.real).cumprod(axis=0)
                tmag = np.abs(terms).max(axis=0)
                keep = np.isfinite(tmag.astype(float))
                if not keep.all():
                    overflow[live[~keep]] = True
                    state = (live, x, acc, e, big, last, top, col, tmag)
                    live, x, acc, e, big, last, top, col, tmag = (v[keep] for v in state)
                    terms = terms[:, keep]
                    rows, col = _narrow(rows, col)
                up = np.maximum(np.frexp(tmag)[1], 0)
            else:
                m, logc = _block_coefficients(params, rows, col, m0, stop, False)
                logt = logc + m * np.log(x)
                up = np.maximum(np.ceil(logt.real.max(axis=0) / _LN2) - e, 0).astype(int)
                terms = np.exp(logt - (e + up) * _LN2)
                tmag = np.abs(terms).max(axis=0)
            m0 = stop
            if up.any():
                scale = np.ldexp(1.0, -up)
                e, acc, top, big = e + up, acc * scale, top * scale, big * scale
                if exact:
                    terms, tmag = terms * scale, tmag * scale
            # each element's terms contiguous, so numpy sums every element pairwise,
            # as in a one-element call, whatever else shares the slab
            acc, last = acc + np.add.reduce(np.ascontiguousarray(terms.T), axis=1), terms[-1]
            top = np.maximum(top, np.abs(acc))
            big = np.maximum(big, tmag)
            done = (tmag < _TERM_EPS * top) & (m.size == _BLOCK)
            if m0 >= max_terms:
                converged[live[~done]] = False
                done[:] = True
            if done.any():
                idx = live[done]
                sums[idx], exps[idx], peaks[idx] = acc[done], e[done], big[done]
                keep = ~done
                state = (live, x, acc, e, big, last, top, col)
                live, x, acc, e, big, last, top, col = (v[keep] for v in state)
                rows, col = _narrow(rows, col)
        converged[live] = False  # left only when max_terms <= 1
        cancellation = peaks / np.abs(sums)
        value = _ldexp(sums, exps)
    cancellation[lam == 0] = 1.0
    return value, converged, cancellation, m0, overflow


def _product_block(rows, loglam: np.ndarray, start: int, stop: int):
    """Terms start..stop-1 of the product path: the (sets x lam) sums of the terms and of their
    magnitudes, and the exponents of the power-of-two unit they are in.

    The (terms x sets) arrays live only here, so one block's are freed before the next's are built.
    """
    m, logc = _coefficients(*rows, start, stop, False)  # (terms x sets), -inf at each pole term
    logp = m * loglam  # (terms x lam)
    row_e = np.ceil(logc.real.max(axis=0) / _LN2)
    row_e = np.where(np.isfinite(row_e), row_e, 0.0).astype(int)  # 0 for a set of pole terms only
    col_e = np.ceil(logp.real.max(axis=0) / _LN2).astype(int)
    logc -= row_e * _LN2
    c = np.exp(logc, out=logc)
    pw = np.exp(logp - col_e * _LN2)
    return c.T @ pw, np.abs(c).T @ np.abs(pw), row_e[:, None] + col_e


def _sum_product(params: FoxWrightParams, lam: np.ndarray, max_terms: int):
    """The product path: the series at every (parameter set, lam) pair, as (sets x lam) arrays.

    ``lam`` is 1-d.  Returns the values, converged flags and cancellations,
    and K.  A lam = 0 column is its m = 0 term, with cancellation 1.
    """
    params.check_admissible(np.abs(lam).max())  # admissibility depends on |lam| only
    t0 = np.ravel(_m0_term(params))
    value = np.repeat(t0[:, None], lam.size, axis=1)
    converged, cancellation = np.ones(value.shape, dtype=bool), np.ones(value.shape)
    nz = np.flatnonzero(lam)
    rows, loglam = _flat_rows(params), np.log(lam[nz])
    acc = value[:, nz]  # partial sums, in units of 2^e
    mag = np.abs(acc)  # sums of |term|, the same units
    top = mag.copy()  # largest block-end |partial sum|, the same units
    e = np.zeros(acc.shape, dtype=int)
    done = np.zeros(acc.shape, dtype=bool)
    m0 = 1
    with np.errstate(all="ignore"):
        while nz.size and m0 < max_terms and not done.all():
            stop = min(m0 + _BLOCK, max_terms)
            block, block_mag, unit = _product_block(rows, loglam, m0, stop)
            up = np.where(block_mag > 0.0, np.maximum(unit + np.frexp(block_mag)[1] - e, 0), 0)
            e, shift = e + up, unit - e - up
            scale = np.ldexp(1.0, -up)
            block_mag = np.ldexp(block_mag, shift)
            acc = acc * scale + _ldexp(block, shift)
            mag = mag * scale + block_mag
            top = np.maximum(top * scale, np.abs(acc))
            done |= (block_mag < _TERM_EPS * top) & (stop - m0 == _BLOCK)
            m0 = stop
        value[:, nz], converged[:, nz], cancellation[:, nz] = _ldexp(acc, e), done, mag / np.abs(acc)
    return value, converged, cancellation, m0


def fox_wright_eval(
    params: FoxWrightParams, lam: Union[complex, np.ndarray], max_terms: int = _MAX_TERMS
) -> FoxWrightValue:
    """Evaluate the series with full status reporting, at a scalar or an array lam.

    Array rows broadcast against lam; the result has the broadcast shape.  A
    call whose rows take the log-Gamma rule and whose parameter axis and lam
    form an outer product takes the product path, every other the slab path.
    """
    lam = _require_finite(np.asarray(lam, dtype=complex), "Fox-Wright argument lam")
    sets = np.arange(math.prod(params.shape)).reshape(params.shape)
    # each element's index on the flattened parameter axis (0 for scalar rows) and in the flattened lam
    pid, lid = np.broadcast_arrays(sets, np.arange(lam.size).reshape(lam.shape))
    shape = pid.shape
    pid, lid, lam = pid.reshape(-1), lid.reshape(-1), lam.reshape(-1)
    if params.shape and pid.size == sets.size * lam.size > 0 and not _exact_rows(params):
        # each (set, lam) pair once: no axis of the broadcast pairs sets with lam element by element
        value, converged, cancellation, terms = _sum_product(params, lam, max_terms)
        value, converged, cancellation = value[pid, lid], converged[pid, lid], cancellation[pid, lid]
    else:
        value, converged, cancellation, terms = _sum_series(params, lam[lid], pid, max_terms)
    if not shape:
        status = "converged" if converged[0] else "max-terms"
        return FoxWrightValue(complex(value[0]), status, terms, float(cancellation[0]))
    status = np.where(converged, "converged", "max-terms").reshape(shape)
    return FoxWrightValue(value.reshape(shape), status, terms, cancellation.reshape(shape))


def fox_wright(params: FoxWrightParams, lam: Union[complex, np.ndarray]):
    """The series value: a complex for a scalar lam, an array of lam's shape otherwise."""
    return fox_wright_eval(params, lam).value


def mittag_leffler(rho: float, beta: float, lam: complex) -> complex:
    """E_{rho,beta}(lam) as the 1Psi1 series with rows (1,1) over (beta,rho)."""
    if rho <= 0:
        raise DomainError("Mittag-Leffler index rho must be positive")
    return fox_wright(FoxWrightParams(((1.0, 1.0),), ((beta, rho),)), lam)


def bessel_i_scaled(k, z):
    """Exponentially scaled modified Bessel e^{-z} I_k(z), integer order, finite z >= 0.

    Scalars give a float; integer arrays of orders (or arrays of z)
    broadcast to an array.
    """
    from scipy.special import ive

    z = _require_finite(np.asarray(z, dtype=float), "bessel_i_scaled argument z")
    if np.any(z < 0):
        raise DomainError("bessel_i_scaled requires z >= 0")
    out = ive(np.abs(np.asarray(k, dtype=int)), z)  # |k|: I_{-k} = I_k exactly
    return float(out) if out.ndim == 0 else out


def wright_cos(lam: float) -> complex:
    """cos(lam) through sqrt(pi) 0Psi1[(1/2,1); -lam^2/4]."""
    p = FoxWrightParams((), ((0.5, 1.0),))
    return np.sqrt(np.pi) * fox_wright(p, -(lam**2) / 4.0)


def wright_sinc(lam: float) -> complex:
    """sin(lam)/lam through (sqrt(pi)/2) 0Psi1[(3/2,1); -lam^2/4]."""
    p = FoxWrightParams((), ((1.5, 1.0),))
    return np.sqrt(np.pi) / 2.0 * fox_wright(p, -(lam**2) / 4.0)
