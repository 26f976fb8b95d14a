"""Generalized (Fox-Wright) series p_Psi_q and its named special cases.

The series  sum_m  prod_k Gamma(a_k + A_k m) / prod_l Gamma(b_l + B_l m)
            * lam^m / m!
is evaluated in log space (blocked, with a running rescale) so that huge
numerator/denominator Gammas never overflow individually.  Denominator pole
terms are exact zeros; numerator poles are genuine parameter singularities
and raise.  Admissibility follows the standard trichotomy on
Delta = sum B_l - sum A_k:

* Delta > -1: entire in lam;
* Delta = -1: |lam| < rho converges, |lam| = rho needs Re kappa > 1/2,
  with rho = prod |B_l|^B_l / prod |A_k|^A_k and
  kappa = sum b_l - sum a_k + (p - q)/2;
* Delta < -1: divergent for lam != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import gammaln as _gammaln

from .gammafn import DomainError, gamma, log_gamma, recip_gamma

__all__ = [
    "FoxWrightParams",
    "FoxWrightValue",
    "fox_wright",
    "fox_wright_eval",
    "fox_wright_grid",
    "mittag_leffler",
    "bessel_i_scaled",
    "wright_cos",
    "wright_sinc",
]

_BLOCK = 25          # consecutive-small-terms window of the stopping rule
_MAX_TERMS = 100_000
_TERM_EPS = 1e-16


@dataclass(frozen=True)
class FoxWrightParams:
    """Parameter rows (a_k, A_k) over (b_l, B_l); weights must be nonzero."""

    upper: Tuple[Tuple[complex, float], ...]
    lower: Tuple[Tuple[complex, float], ...]

    def __post_init__(self):
        up = tuple((complex(a), float(A)) for a, A in self.upper)
        lo = tuple((complex(b), float(B)) for b, B in self.lower)
        if any(A == 0.0 for _, A in up) or any(B == 0.0 for _, B in lo):
            raise ValueError("Fox-Wright weights must be nonzero")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)

    @property
    def delta(self) -> float:
        return sum(B for _, B in self.lower) - sum(A for _, A in self.upper)

    @property
    def rho(self) -> float:
        num = float(np.prod([abs(B) ** B for _, B in self.lower])) if self.lower else 1.0
        den = float(np.prod([abs(A) ** A for _, A in self.upper])) if self.upper else 1.0
        return num / den

    @property
    def kappa(self) -> complex:
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
        lam = complex(lam)
        kind = self.convergence_kind()
        if kind == "entire" or lam == 0.0:
            return
        if kind == "divergent":
            raise DomainError(
                f"series divergent: Delta = {self.delta} < -1 "
                f"(rho = {self.rho}, kappa = {self.kappa})"
            )
        r, rho = abs(lam), self.rho
        if r < rho * (1.0 - 1e-13):
            return
        if r <= rho * (1.0 + 1e-13):
            if self.kappa.real > 0.5:
                return
            raise DomainError(
                f"boundary |lam| = rho = {rho} requires Re kappa > 1/2, "
                f"got kappa = {self.kappa} (Delta = {self.delta})"
            )
        raise DomainError(
            f"|lam| = {r} outside radius rho = {rho} "
            f"(Delta = {self.delta}, kappa = {self.kappa})"
        )


@dataclass(frozen=True)
class FoxWrightValue:
    value: complex
    status: str          # "converged" | "max-terms"
    terms_used: int
    cancellation: float  # max |term| / |value|, the digits-lost indicator


def _m0_term(params: FoxWrightParams) -> complex:
    out = 1.0 + 0.0j
    for a, _ in params.upper:
        out *= gamma(a)  # raises at poles
    for b, _ in params.lower:
        out *= recip_gamma(b)
    return out


def _ratio_path_ok(params: FoxWrightParams, lam: complex) -> bool:
    """Positive-integer weights with positive real rows admit exact term ratios."""
    if lam.imag != 0.0:
        return False
    rows = params.upper + params.lower
    return all(
        w == int(w) and w > 0 and v.imag == 0.0 and v.real > 0.0 for v, w in rows
    )


def _eval_ratio(params: FoxWrightParams, lam: float, max_terms: int) -> Optional[FoxWrightValue]:
    """Term-ratio recurrence + exact summation; ~1 ulp per term, no loggamma."""
    term = complex(_m0_term(params)).real
    terms = [term]
    max_partial, running, max_term = abs(term), term, abs(term)
    small_run = 0
    status = "max-terms"
    m = 0
    while m + 1 < max_terms:
        ratio = lam / (m + 1.0)
        for a, A in params.upper:
            for i in range(int(A)):
                ratio *= a.real + A * m + i
        for b, B in params.lower:
            for i in range(int(B)):
                ratio /= b.real + B * m + i
        term *= ratio
        if not np.isfinite(term):
            return None  # overflow; caller falls back to the log path
        terms.append(term)
        running += term
        max_partial = max(max_partial, abs(running))
        max_term = max(max_term, abs(term))
        m += 1
        small_run = small_run + 1 if abs(term) < _TERM_EPS * max_partial else 0
        if small_run >= _BLOCK:
            status = "converged"
            break
    value = math.fsum(terms)
    cancel = max_term / abs(value) if value != 0.0 else np.inf
    return FoxWrightValue(complex(value), status, m + 1, float(cancel))


def fox_wright_eval(
    params: FoxWrightParams, lam: complex, max_terms: int = _MAX_TERMS
) -> FoxWrightValue:
    """Evaluate the series with full status reporting."""
    lam = complex(lam)
    params.check_admissible(lam)
    if lam == 0.0:
        return FoxWrightValue(_m0_term(params), "converged", 1, 1.0)
    if _ratio_path_ok(params, lam):
        out = _eval_ratio(params, lam.real, max_terms)
        if out is not None:
            return out

    loglam = np.log(lam)
    shift = 0.0          # accumulator is held in units of exp(shift)
    acc = 0.0 + 0.0j
    max_partial = 0.0    # in the same scaled units
    max_term = 0.0
    m0 = 0
    status = "max-terms"
    with np.errstate(all="ignore"):
        while m0 < max_terms:
            m = np.arange(m0, min(m0 + _BLOCK, max_terms))
            num = m * loglam - log_gamma(m + 1.0)
            for a, A in params.upper:
                num = num + log_gamma(a + A * m)
            den = np.zeros_like(num)
            for b, B in params.lower:
                den = den + log_gamma(b + B * m)
            if np.any(np.isinf(num.real) & (num.real > 0)) or np.any(np.isnan(num)):
                raise DomainError("Gamma pole among upper parameters a_k + A_k m")
            zero_term = np.isinf(den.real) | np.isnan(den)
            lt = np.where(zero_term, -np.inf, num - np.where(zero_term, 0.0, den))
            # rescale so exp never overflows while magnitudes stay comparable
            block_top = float(np.max(lt.real))
            if block_top - shift > 600.0:
                factor = np.exp(shift - block_top)
                acc *= factor
                max_partial *= factor
                max_term *= factor
                shift = block_top
            terms = np.where(np.isneginf(lt.real), 0.0, np.exp(lt - shift))
            tmag = np.abs(terms)
            max_term = max(max_term, float(np.max(tmag, initial=0.0)))
            for t in terms:
                acc += t
                max_partial = max(max_partial, abs(acc))
            m0 += len(m)
            if max_partial > 0.0 and float(np.max(tmag)) < _TERM_EPS * max_partial:
                status = "converged"
                break
    if shift == 0.0 or acc == 0.0:
        value = acc
    else:
        # combine in log space: exp(shift) alone may overflow even when
        # the cancelled sum acc * exp(shift) is moderate
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.exp(shift + np.log(complex(acc)))
    cancel = max_term / abs(acc) if abs(acc) > 0 else np.inf
    return FoxWrightValue(complex(value), status, m0, float(cancel))


def fox_wright(params: FoxWrightParams, lam: complex) -> complex:
    return fox_wright_eval(params, lam).value


def fox_wright_grid(params: FoxWrightParams, lam: np.ndarray, max_terms: int = 4000) -> np.ndarray:
    """Series over an array of arguments sharing one parameter set.

    Used by the kernel routines, which need the same p_Psi_q at every
    momentum node; terms are generated blockwise for all nodes at once.
    No rescaling here -- callers stay in regimes where terms fit in range.
    """
    for l in np.atleast_1d(lam).flat:
        params.check_admissible(l)
    lam = np.asarray(lam, dtype=complex)
    flat = lam.reshape(-1)
    out = np.zeros(flat.shape, dtype=complex)
    maxmag = np.zeros(flat.shape)
    with np.errstate(all="ignore"):
        loglam = np.where(flat == 0.0, 0.0, np.log(np.where(flat == 0.0, 1.0, flat)))
        m0 = 0
        while m0 < max_terms:
            m = np.arange(m0, m0 + _BLOCK)
            base = -log_gamma(m + 1.0).astype(complex)
            for a, A in params.upper:
                base = base + log_gamma(a + A * m)
            den = np.zeros_like(base)
            for b, B in params.lower:
                den = den + log_gamma(b + B * m)
            if np.any(np.isinf(base.real) & (base.real > 0)) or np.any(np.isnan(base)):
                raise DomainError("Gamma pole among upper parameters a_k + A_k m")
            zero_term = np.isinf(den.real) | np.isnan(den)
            lt = np.where(zero_term, -np.inf, base - np.where(zero_term, 0.0, den))
            block = np.exp(lt[:, None] + m[:, None] * loglam[None, :])
            block = np.where(np.isneginf(lt.real)[:, None], 0.0, block)
            # lam == 0 contributes only its m = 0 term
            block[:, flat == 0.0] = 0.0
            if m0 == 0 and np.any(flat == 0.0):
                block[0, flat == 0.0] = np.exp(lt[0]) if not np.isneginf(lt[0].real) else 0.0
            out += block.sum(axis=0)
            mags = np.abs(block)
            maxmag = np.maximum(maxmag, mags.max(axis=0))
            m0 += _BLOCK
            if m0 >= 2 * _BLOCK and np.all(
                mags.max(axis=0) <= _TERM_EPS * np.maximum(np.abs(out), maxmag * 1e-30)
            ):
                break
    return out.reshape(lam.shape)


def mittag_leffler(rho: float, beta: float, lam: complex) -> complex:
    """E_{rho,beta}(lam) as the 1Psi1 series with rows (1,1) over (beta,rho)."""
    if rho <= 0:
        raise DomainError("Mittag-Leffler index rho must be positive")
    return fox_wright(FoxWrightParams(((1.0, 1.0),), ((beta, rho),)), lam)


def bessel_i_scaled(k: int, z: float) -> float:
    """Exponentially scaled modified Bessel e^{-z} I_k(z), z >= 0, integer order."""
    k = abs(int(k))
    z = float(z)
    if z < 0:
        raise DomainError("bessel_i_scaled requires z >= 0")
    if z == 0.0:
        return 1.0 if k == 0 else 0.0
    # first term in log space, then the stable term recurrence
    log_t = k * np.log(z / 2.0) - _gammaln(k + 1.0) - z
    term = np.exp(log_t)
    total = term
    q = z * z / 4.0
    m = 0
    while m < 10_000:
        term *= q / ((m + 1.0) * (m + 1.0 + k))
        total += term
        m += 1
        if term <= 1e-18 * total:  # also stops once the terms underflow to 0
            break
    return float(total)


def wright_cos(lam: float) -> complex:
    """cos(lam) through sqrt(pi) 0Psi1[(1/2,1); -lam^2/4]."""
    p = FoxWrightParams((), ((0.5, 1.0),))
    return np.sqrt(np.pi) * fox_wright(p, -(lam**2) / 4.0)


def wright_sinc(lam: float) -> complex:
    """sin(lam)/lam through (sqrt(pi)/2) 0Psi1[(3/2,1); -lam^2/4]."""
    p = FoxWrightParams((), ((1.5, 1.0),))
    return np.sqrt(np.pi) / 2.0 * fox_wright(p, -(lam**2) / 4.0)
