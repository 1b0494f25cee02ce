"""Orders, powers and generators in a finite group given by its product,
and the CRT split of a cyclic group's order into its prime-to-p and
p-power parts. An element's cyclic group is enumerated by one budgeted walk
(`powers`), whose length is its order; an order is otherwise found by prime
descent from a known multiple of it."""

from __future__ import annotations

from .primes import prime_factors
from .refusal import over_budget

# largest order bound admitted: it caps an order search, or the size of an
# input whose orders are read off a multiple (p^n - 1 for an n x n matrix
# mod p, refused by `padic.topological_jordan`)
ORDER_BUDGET = 10**6


def powers(mul, identity, x, limit):
    """The cyclic group of x under mul, [identity, x, ..., x^(m - 1)] for m
    the order of x: its length is the order, x^k is entry k mod m, and the
    last entry is x's inverse. limit bounds the order (a group order, or the
    largest element order); a limit above ORDER_BUDGET is refused before
    any product, and an order past limit raises. The walk takes m - 1
    products; the finite-group layers read every order, power and
    logarithm they step to off it."""
    if limit > ORDER_BUDGET:
        raise over_budget("order", "order bound", limit, "ORDER_BUDGET", ORDER_BUDGET)
    walk, acc = [identity], x
    while acc != identity:
        if len(walk) >= limit:
            raise AssertionError("element order exceeds the group order")
        walk.append(acc)
        acc = mul(acc, x)
    return walk


def order_from_multiple(mul, identity, x, multiple, primes):
    """Order of x given a multiple of it and the primes dividing that
    multiple, by prime descent (Celler and Leedham-Green): each prime l is
    divided out while x^(order / l) is still the identity. That is one power
    per prime factor of the multiple, counted with multiplicity, and one
    more per distinct prime, where the walk of `powers` takes one product
    per power of x and keeps them all. x^multiple must be the identity; if
    it is not, that is a bug in the caller, and raises."""
    if power(mul, identity, x, multiple) != identity:
        raise AssertionError("the order multiple is not a multiple of the order")
    order = multiple
    for ell in primes:
        while order % ell == 0 and power(mul, identity, x, order // ell) == identity:
            order //= ell
    return order


def power(mul, identity, x, k):
    """x^k under mul, k >= 0, by square-and-multiply from the low bit. The
    identity is returned only for k = 0 and is never multiplied, and no
    square is taken past the top bit: k costs bit_length(k) - 1 squares and
    popcount(k) - 1 products. A negative k, on which the loop would never
    end, is refused."""
    if k < 0:
        raise ValueError("nonnegative exponents only; invert first")
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return identity if out is None else out


def primitive_element(mul, identity, candidates, order):
    """The first candidate x of a cyclic group of the given order with
    x^(order / l) != identity for every prime l dividing the order, i.e. the
    first generator."""
    exps = [order // ell for ell in prime_factors(order)]
    for x in candidates:
        if all(power(mul, identity, x, e) != identity for e in exps):
            return x
    raise AssertionError(f"no candidate generates the cyclic group of order {order}")


def jordan_exponent(order, p):
    """(r, e) for an element x of the given finite order (or any multiple
    of it): r is the prime-to-p part of order and e = 1 mod r, e = 0 mod
    order / r, 0 <= e < order. Then x^e has order dividing r and x^(1 - e)
    has p-power order: the CRT split of the cyclic group generated by x."""
    r, pa = order, 1
    while r % p == 0:
        r //= p
        pa *= p
    return r, pa * pow(pa, -1, r) % order
