"""Finite fields F_q for odd q = p^f <= MAX_Q, f = 1 or 2.

Elements are the integers 0 .. q-1: the code a0 + a1 p stands for
a0 + a1 x in F_p[x]/(x^2 - r), r the smallest non-square mod p (a1 = 0 when
f = 1; F_9 = F_3[x]/(x^2 + 1)). Addition and negation are digit-wise, read
off one q x q addition table and one negation table. Products, inverses,
powers and logarithms go through exp/log tables for a fixed multiplicative
generator, the smallest code of full order, so the generator is
reproducible: the exp table is the generator's cyclic group as
`orders.powers` walks it under the digit-wise product, and the log table
its inverse. All four tables are built once, from the digit-wise
definitions, when the field is made.
"""

from __future__ import annotations

from .orders import powers, primitive_element
from .primes import is_prime
from .refusal import int_text, over_budget

# largest q: `_kernels` keeps the row and column codes of a 2 x 2 matrix,
# each below q^2 <= 256, in single bytes
MAX_Q = 16


class FiniteField:
    def __init__(self, p, f=1):
        for name, x in (("p", p), ("f", f)):
            if type(x) is not int:  # int() would read 3.9 as 3 and True as 1
                raise ValueError(f"no field F_q: {name} = {x!r} is not an int")
        # every refusal writes p, f and q by int_text, so an int past 4300
        # digits is refused like any other
        if not 0 < f <= MAX_Q:  # so that p^f is cheap to compute
            raise ValueError(f"no field F_q with q = {int_text(p)}^{int_text(f)}: f = {int_text(f)} is not 1 or 2")
        q = p**f
        # the refusal names the first check that fails, and q is bounded
        # before p's primality is tested
        if q > MAX_Q:
            raise over_budget(None, "no field F_q with q = {value}: q exceeds {budget}", q, "MAX_Q", MAX_Q)
        reason = (
            f"f = {f} is not 1 or 2" if f not in (1, 2)
            else f"p = {int_text(p)} is even" if p % 2 == 0
            else f"p = {int_text(p)} is not prime" if not is_prime(p)
            else None
        )
        if reason:
            raise ValueError(f"no field F_q with q = {int_text(q)}: {reason}")
        self.p, self.f, self.q = p, f, q
        # x^2 = r in F_p[x]/(x^2 - r)
        self._r = next(x for x in range(p) if pow(x, (p - 1) // 2, p) == p - 1)
        digits = [divmod(a, p) for a in range(q)]  # (a1, a0)
        self.add_table = bytes(
            (x0 + y0) % p + p * ((x1 + y1) % p) for x1, x0 in digits for y1, y0 in digits
        )
        self.neg_table = bytes(-x0 % p + p * (-x1 % p) for x1, x0 in digits)
        self.gen = gen = primitive_element(self._mul_raw, 1, range(1, q), q - 1)
        self.exp_table = powers(self._mul_raw, 1, gen, q - 1)
        if len(self.exp_table) != q - 1:
            raise AssertionError("generator does not have full order")
        self.log_table = {x: i for i, x in enumerate(self.exp_table)}

    def _mul_raw(self, a, b):
        """a b by the digits: (a0 + a1 x)(b0 + b1 x) = a0 b0 + r a1 b1 +
        (a0 b1 + a1 b0) x."""
        p = self.p
        a1, a0 = divmod(a, p)
        b1, b0 = divmod(b, p)
        return (a0 * b0 + self._r * a1 * b1) % p + p * ((a0 * b1 + a1 * b0) % p)

    # -- field operations

    def add(self, a, b):
        return self.add_table[a * self.q + b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def pow(self, a, n):
        if a == 0:
            if n <= 0:
                raise ZeroDivisionError("0**nonpositive")
            return 0
        return self.exp_table[(self.log_table[a] * n) % (self.q - 1)]

    def log(self, a):
        """Discrete log base the fixed generator."""
        if a == 0:
            raise ValueError("log of 0")
        return self.log_table[a]

    def trace(self, a):
        """Absolute trace down to F_p, a + a^p for f = 2, returned as an int
        mod p."""
        if self.f == 1:
            return a % self.p
        t = self.add(a, self.pow(a, self.p) if a else 0)
        # t lies in the prime subfield, i.e. its code is a single digit
        if t >= self.p:
            raise AssertionError("trace left the prime field")
        return t

    def is_square(self, a):
        return a == 0 or self.log_table[a] % 2 == 0

    @property
    def non_residue(self):
        """Smallest non-square in the integer encoding."""
        for x in range(2, self.q):
            if not self.is_square(x):
                return x
        raise AssertionError("no non-residue found")

    def __repr__(self):
        return f"F_{self.q}" + (f" (p={self.p}, f={self.f})" if self.f > 1 else "")
