"""Exact arithmetic substrate: integer matrices and Smith form, row
reduction over Q and Z/l, finitely generated abelian groups, cyclotomic
numbers, the finite fields F_q for odd q <= 16, primes, element orders and generators, and
`cached`, the one caching rule."""

from .intmat import (
    IntMatrix,
    smith_normal_form,
    cokernel_group,
    CokernelPresentation,
    FinAbGroup,
    solve_integer,
    solve_rational,
    inverse_rational,
    rref_mod,
    kernel_basis,
    abelian_subgroup_type,
)
from .cyclo import (
    Cyclotomic,
    cyclotomic_polynomial,
    smallest_conductor,
)
from .ffield import FiniteField
from .primes import is_prime, prime_factors
from .orders import element_order, power, primitive_element
from .cache import cached

__all__ = [
    "IntMatrix",
    "smith_normal_form",
    "cokernel_group",
    "CokernelPresentation",
    "FinAbGroup",
    "solve_integer",
    "solve_rational",
    "inverse_rational",
    "rref_mod",
    "kernel_basis",
    "abelian_subgroup_type",
    "Cyclotomic",
    "cyclotomic_polynomial",
    "smallest_conductor",
    "FiniteField",
    "is_prime",
    "prime_factors",
    "element_order",
    "power",
    "primitive_element",
    "cached",
]
