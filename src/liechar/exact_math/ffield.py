"""Small finite fields F_q, q = p^f with f <= 3 and q <= 2**14.

Elements are integers 0 .. q-1 encoding polynomial coordinates base p
(constant digit least significant). Multiplication goes through exp/log
tables for a fixed multiplicative generator, chosen as the smallest element
(in this integer encoding) of full order, so the generator is reproducible.
For f > 1, addition goes through the same tables by Zech logarithms,
g^a + g^b = g^(a + Z(b - a)) with 1 + g^n = g^Z(n), and negation through a
table; both tables are built once from the digit-wise arithmetic.
"""

from __future__ import annotations

from .orders import primitive_element
from .primes import is_prime

MAX_Q = 2**14


class FiniteField:
    def __init__(self, p, f=1):
        p, f = int(p), int(f)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= f <= 3:
            raise ValueError("extension degree must be 1, 2 or 3")
        q = p**f
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds {MAX_Q}")
        self.p, self.f, self.q = p, f, q
        self.modulus = self._find_modulus() if f > 1 else None
        self._build_tables()
        self.derived = {}  # its cache (see `cached`)

    # -- element encoding

    def _digits(self, a):
        return [(a // self.p**i) % self.p for i in range(self.f)]

    def _encode(self, digits):
        return sum(d % self.p * self.p**i for i, d in enumerate(digits))

    def _find_modulus(self):
        # monic irreducible of degree f over F_p; degree 2,3 irreducible iff
        # no root in F_p. Coefficients scanned in lexicographic order.
        p, f = self.p, self.f
        for tail in range(p**f):
            coeffs = [(tail // p**i) % p for i in range(f)] + [1]
            if all(
                sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p != 0
                for x in range(p)
            ):
                return tuple(coeffs)
        raise AssertionError("no irreducible polynomial found")

    def _mul_raw(self, a, b):
        if self.f == 1:
            return (a * b) % self.p
        p = self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.f - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        # reduce by the monic modulus
        for i in range(len(prod) - 1, self.f - 1, -1):
            c = prod[i] % p
            prod[i] = 0
            if c:
                for j in range(self.f):
                    prod[i - self.f + j] -= c * self.modulus[j]
        return self._encode([x % p for x in prod[: self.f]])

    def _build_tables(self):
        q = self.q
        # smallest element of multiplicative order q-1 (1 when q = 2)
        self.gen = gen = primitive_element(self._mul_raw, 1, range(1, q), q - 1)
        self.exp_table = [1] * (q - 1)
        for i in range(1, q - 1):
            self.exp_table[i] = self._mul_raw(self.exp_table[i - 1], gen)
        self.log_table = {x: i for i, x in enumerate(self.exp_table)}
        if len(self.log_table) != q - 1:
            raise AssertionError("generator does not have full order")
        if self.f > 1:
            self._neg_table = [self._neg_raw(a) for a in range(q)]
            # Zech logarithms: _zech[n] = log(1 + g^n), None where 1 + g^n = 0
            self._zech = [
                self.log_table.get(self._add_raw(1, x)) for x in self.exp_table
            ]

    def _add_raw(self, a, b):
        return self._encode([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def _neg_raw(self, a):
        return self._encode([-x for x in self._digits(a)])

    # -- field operations

    def add(self, a, b):
        if self.f == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        log = self.log_table
        la = log[a]
        z = self._zech[(log[b] - la) % (self.q - 1)]
        if z is None:
            return 0
        return self.exp_table[(la + z) % (self.q - 1)]

    def neg(self, a):
        if self.f == 1:
            return (-a) % self.p
        return self._neg_table[a]

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
        """Absolute trace down to F_p, returned as an int mod p."""
        if self.f == 1:
            return a % self.p
        t = a
        x = a
        for _ in range(self.f - 1):
            x = self.pow(x, self.p) if x else 0
            t = self.add(t, x)
        # t lies in the prime subfield, i.e. its encoding is a single digit
        digits = self._digits(t)
        if any(digits[1:]):
            raise AssertionError("trace left the prime field")
        return digits[0]

    def is_square(self, a):
        if a == 0:
            return True
        return self.log_table[a] % 2 == 0 if self.q % 2 == 1 else True

    @property
    def non_residue(self):
        """Smallest non-square in the integer encoding (odd q only)."""
        if self.q % 2 == 0:
            raise ValueError("every element is a square in characteristic 2")
        for x in range(2, self.q):
            if not self.is_square(x):
                return x
        raise AssertionError("no non-residue found")

    def __repr__(self):
        return f"F_{self.q}" + (f" (p={self.p}, f={self.f})" if self.f > 1 else "")

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash((self.p, self.f))

