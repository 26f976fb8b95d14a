"""Time-changed Dirac-Fokker-Planck equations on periodic lattices.

Clifford-algebra fields over finite periodic truncations of fractional
lattices, the discrete Fourier calculus that diagonalizes the Dirac and
Laplace operators, multiplier-based evolution solvers, and the Wright /
Mellin special-function machinery that expresses their kernels in closed
form.  Every analytic identity the construction rests on is exposed as a
machine-checkable invariant (see :mod:`dfplattice.verification` and the CLI
``dfplattice verify``).
"""

from .clifford import AlgebraError, Multivector
from .lattice import Field, GridSpec, delta_h, mass, normalization_check, sesquilinear
from .spectral import (
    MomentumField,
    convolve,
    dft_forward,
    dft_inverse,
    momentum_sesquilinear,
)
from .operators import (
    dirac_apply,
    dirac_multiplier,
    dirac_symbol,
    laplacian_apply,
    laplacian_symbol,
)
from .solver import (
    ModelParams,
    dfp_evolve,
    dfp_evolve_stepped,
    dfp_kernel,
    heat_kernel,
    kg_kernel,
    kg_kernel_mellin,
    klein_gordon_evolve,
    levy_subordination_check,
    levy_subordination_modewise,
    mellin_barnes_kernel,
    kernel_mellin_identity,
    wilson_diffusion_coefficient,
)

__version__ = "0.1.0"
