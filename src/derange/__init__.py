"""Exact computation of the derangement polynomial families, their Hankel
determinants, and the Erlang moment representation."""

from .exact import binomial, factorial, rising_factorial
from .polys import (
    classic_derangement,
    cyclic_derangement,
    eval_poly,
    generalized_D_poly,
    generate_D_by_convolution,
    generate_d_by_convolution,
    order_d_poly,
)
from .series import Family, FamilySpec, egf_values

__all__ = [
    "binomial", "factorial", "rising_factorial",
    "classic_derangement", "cyclic_derangement", "eval_poly",
    "generalized_D_poly", "generate_D_by_convolution",
    "generate_d_by_convolution", "order_d_poly",
    "Family", "FamilySpec", "egf_values",
]

__version__ = "0.1.0"
