"""Exact asymptotic-density tooling for computably enumerable sets."""

from .core import (
    CEStream,
    DensityProfile,
    NEVER,
    SetOracle,
    ceil_div,
    ceil_sqrt,
    density_profile,
    dyadic_class,
    dyadic_union,
    dyadic_union_from_binary,
    prefix_count,
    profile_from_bits,
    residue_union_density,
    rho,
    stage_profile,
    trailing_zeros,
)
from . import errors

__all__ = [
    "CEStream", "DensityProfile", "NEVER", "SetOracle", "ceil_div",
    "ceil_sqrt", "density_profile", "dyadic_class", "dyadic_union",
    "dyadic_union_from_binary", "prefix_count", "profile_from_bits",
    "residue_union_density", "rho", "stage_profile", "trailing_zeros",
    "errors",
]

__version__ = "0.1.0"
