"""Orders, powers and generators in a finite group given by its product."""

from __future__ import annotations

from .primes import prime_factors

ORDER_BUDGET = 10**6  # most steps an order search may take


def check_order_limit(limit):
    """Refuse an order search up to limit, a bound on the order, when limit
    is above ORDER_BUDGET: the one place that raises the budget's error."""
    if limit > ORDER_BUDGET:
        raise ValueError(f"order search up to {limit} exceeds the budget ORDER_BUDGET = {ORDER_BUDGET}")


def element_order(mul, identity, x, limit):
    """Order of x under mul, stepping its powers. limit bounds the order (a
    group order, or the largest element order); a limit above ORDER_BUDGET
    is refused before any step, and an order past limit raises."""
    check_order_limit(limit)
    acc, k = x, 1
    while acc != identity:
        acc = mul(acc, x)
        k += 1
        if k > limit:
            raise AssertionError("element order exceeds the group order")
    return k


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
