"""Special-function backend: Gamma, Fox-Wright series, Mittag-Leffler,
scaled Bessel, one-sided Levy density, Hartman-Watson, numerical Mellin.

scipy is imported inside the functions that call it, so importing the
package (and every CLI command whose path calls none of them) does not load it."""

from .gammafn import DomainError, QuadratureError, gamma, log_gamma, recip_gamma
from .wright import (
    FoxWrightParams,
    FoxWrightValue,
    bessel_i_scaled,
    fox_wright,
    fox_wright_eval,
    mittag_leffler,
    wright_cos,
    wright_sinc,
)
from .levy import LevyValue, levy_laplace, levy_pdf, levy_pdf_eval
from .hartman_watson import bessel_from_hartman_watson, hartman_watson_theta
from .mellin import mellin_convolve, mellin_inverse, mellin_transform

__all__ = [
    "DomainError",
    "QuadratureError",
    "gamma",
    "recip_gamma",
    "log_gamma",
    "FoxWrightParams",
    "FoxWrightValue",
    "fox_wright",
    "fox_wright_eval",
    "mittag_leffler",
    "bessel_i_scaled",
    "wright_cos",
    "wright_sinc",
    "LevyValue",
    "levy_pdf",
    "levy_pdf_eval",
    "levy_laplace",
    "hartman_watson_theta",
    "bessel_from_hartman_watson",
    "mellin_transform",
    "mellin_inverse",
    "mellin_convolve",
]
