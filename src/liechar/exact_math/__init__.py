"""Exact arithmetic substrate: integer matrices and Smith form, row
reduction over Q and F_l, finitely generated abelian groups, cyclotomic
numbers, the finite fields F_q for odd q <= 16, primes, an element's
cyclic group and its order, generators and the CRT split of an order,
`cached`, the one caching rule, and the refusals of an input: `Refusal`, a
ValueError that carries its subject (the input it refuses, which the CLI
maps to a flag), and `over_budget`, the one writer of a budget's refusal,
"{what} {value} exceeds the budget {name} = {limit}", with a value of 10^64
or more written by its digit count (`int_text`, which the other refusals
that write an unbounded int use as well). Integer kernels and integer
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
from .orders import jordan_exponent, order_from_multiple, power, powers, primitive_element
from .cache import cached
from .refusal import Refusal, int_text, over_budget
