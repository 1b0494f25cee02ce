"""Exact arithmetic substrate: integer matrices and Smith form, row
reduction over Q and Z/l, finitely generated abelian groups, cyclotomic
numbers, the finite fields F_q for odd q <= 16, primes, an element's
cyclic group and its order, generators and the CRT split of an order,
and `cached`, the one caching rule. Integer kernels and integer
solutions of a matrix are not here: no library code needs them, and the
tests' oracle builds them from `smith_normal_form`
(tests/reference_lattice.py)."""

from .intmat import (
    IntMatrix,
    smith_normal_form,
    cokernel_group,
    CokernelPresentation,
    FinAbGroup,
    inverse_rational,
    rref_mod,
    abelian_subgroup_type,
)
from .cyclo import (
    Cyclotomic,
    smallest_conductor,
)
from .ffield import FiniteField
from .primes import is_prime, prime_factors
from .orders import check_order_limit, jordan_exponent, order_from_multiple, power, powers, primitive_element
from .cache import cached

__all__ = [
    "IntMatrix",
    "smith_normal_form",
    "cokernel_group",
    "CokernelPresentation",
    "FinAbGroup",
    "inverse_rational",
    "rref_mod",
    "abelian_subgroup_type",
    "Cyclotomic",
    "smallest_conductor",
    "FiniteField",
    "is_prime",
    "prime_factors",
    "check_order_limit",
    "jordan_exponent",
    "order_from_multiple",
    "power",
    "powers",
    "primitive_element",
    "cached",
]
