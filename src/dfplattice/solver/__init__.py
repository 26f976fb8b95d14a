"""Evolution machinery: heat semigroup, time-changed drift-diffusion flow,
damped wave solutions, Levy subordination, and the kernel Mellin calculus."""

from .params import ModelParams
from .evolution import (
    dfp_evolve,
    dfp_evolve_stepped,
    dfp_kernel,
    heat_kernel,
    klein_gordon_evolve,
    trig_factors,
    wilson_diffusion_coefficient,
)
from .kernels import (
    MellinBarnesResult,
    default_contour_abscissa,
    kernel_mellin_identity,
    kg_kernel,
    kg_kernel_mellin,
    mellin_barnes_kernel,
)
from .subordination import (
    QuadratureError,
    levy_subordination_check,
    levy_subordination_modewise,
)

__all__ = [
    "ModelParams",
    "dfp_evolve",
    "dfp_evolve_stepped",
    "dfp_kernel",
    "heat_kernel",
    "klein_gordon_evolve",
    "trig_factors",
    "wilson_diffusion_coefficient",
    "kg_kernel",
    "kg_kernel_mellin",
    "kernel_mellin_identity",
    "mellin_barnes_kernel",
    "MellinBarnesResult",
    "default_contour_abscissa",
    "levy_subordination_check",
    "levy_subordination_modewise",
    "QuadratureError",
]
