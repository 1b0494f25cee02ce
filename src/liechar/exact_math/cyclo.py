"""Exact cyclotomic numbers.

A value is stored as integer numerators over one positive denominator, in
the full power basis 1, zeta, ..., zeta^(N-1) with exponents mod N; the
denominator and the numerators share no common factor. Sums and products
stay in this representation and on plain integers. Reduction into the Phi_N
quotient happens only when equality, rationality or the printed form is
decided, at most once per value: the value memoises its reduction. Phi_N is
monic, so the reduction stays integral too. Fractions appear only at the
edges: `rational` reads one into a numerator and a denominator, a Fraction
scalar multiplies the denominator, and a Fraction is made only where a
caller asks for a rational: `rational_value`, or `reduced` of a value whose
reduced coefficients are not all integers.

Equality crosses conductors. Q(zeta_a) and Q(zeta_b) meet in Q(zeta_g), g =
gcd(a, b), which is Q when g <= 2: two values whose conductors share at
most 2 are equal only as equal rationals, decided from their memoised
reductions. Other pairs are compared in Q(zeta_lcm(a, b)). A value has no
hash: `Cyclotomic.rational(5) == 5`, so its hash would have to be hash(5),
which the hash of its text "5" is not.

A value has one text, its `repr`: a rational as a plain number, any other
value as cycD[c_0,...], its coefficients at its smallest conductor D, so
two texts are equal exactly when the values are. Many values are compared
through their texts: the CLI prints them, `dl_spectra.tables_match` keys
each row by them and `dl_spectra.springer_grid` decides each cell by them.
`smallest_conductor` finds D by descent, one prime of the conductor at a
time: each step reads a relative trace off the numerators and makes one
equality test. A table repeats few stored forms in many cells, so each
stored form's text is made once (`_text`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .primes import prime_factors
from .refusal import over_budget

# largest conductor reduced modulo Phi_n. The characters of GL2 and SL2 over
# F_q, q <= 13, have conductors up to 168. A sum, product or equality test
# of two values works at the lcm of their two conductors; two tables are
# compared cell by cell through their values' texts, so no value is lifted
# to the lcm of a whole table's conductors
CONDUCTOR_BUDGET = 5000


def _poly_divide_exact(num, den):
    # exact division of integer polynomials, num = q * den
    num = list(num)
    deg_d = len(den) - 1
    q = [0] * (len(num) - deg_d)
    for i in range(len(q) - 1, -1, -1):
        coef = num[i + deg_d]
        if coef % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = coef // den[-1]
        if q[i]:
            for j, dj in enumerate(den):
                num[i + j] -= q[i] * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(q)


def _at_power(poly, k):
    """Coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_terms(n):
    """(Phi_n, deg Phi_n, the nonzero (j - deg, c_j) below its leading
    term), built once per n, prime by prime from Phi_1 = x - 1: for a prime
    p not dividing m, Phi_mp(x) = Phi_m(x^p) / Phi_m(x), one exact division
    per prime of n; then Phi_n(x) = Phi_r(x^(n/r)), r the product of the
    primes of n, as Phi_mp(x) = Phi_m(x^p) when p divides m."""
    phi, r = (-1, 1), 1
    for p in prime_factors(n):
        phi = _poly_divide_exact(_at_power(phi, p), phi)
        r *= p
    phi = _at_power(phi, n // r)
    deg = len(phi) - 1
    return phi, deg, tuple((j - deg, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(coeffs, n):
    """Remainder of a sparse {exp: coefficient} polynomial modulo Phi_n, as
    a dense list of length deg Phi_n. Phi_n is monic, so integer
    coefficients give integer remainders. A conductor above
    CONDUCTOR_BUDGET is refused before Phi_n or the list is built."""
    if n > CONDUCTOR_BUDGET:
        raise over_budget(None, "conductor", n, "CONDUCTOR_BUDGET", CONDUCTOR_BUDGET)
    _, deg, low = _phi_terms(n)
    dense = [0] * max(n, deg)
    for e, c in coeffs.items():
        dense[e % n] += c
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = 0
            for j, pj in low:
                dense[i + j] -= c * pj
    return dense[:deg]


class Cyclotomic:
    """Element of Q(zeta_n), n the conductor of the representation (not
    necessarily minimal for the value).

    The value is sum(num[e] * zeta_n^e for e in num) / den: integer
    numerators keyed by exponents mod n, over one positive denominator den
    that shares no factor with all of them. The constructor takes int
    coefficients keyed by int exponents, all divided by den, and refuses
    anything else with a ValueError: den is the value's one rational, and
    `rational` reads an int or a Fraction into it (a float has no exact
    value here). `_red` memoises the numerators reduced modulo Phi_n, built
    on first use."""

    __slots__ = ("n", "num", "den", "_red")

    def __init__(self, n=1, coeffs=None, den=1):
        if type(n) is not int or n < 1:
            raise ValueError("conductor must be a positive integer")
        if type(den) is not int or den < 1:
            raise ValueError("denominator must be a positive integer")
        num = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(e) is not int:
                    raise ValueError(f"exponents must be integers, got {e!r}")
                if type(v) is not int:
                    raise ValueError(f"coefficients must be ints, got {v!r}")
                if v:
                    e %= n
                    num[e] = num.get(e, 0) + v
            if not all(num.values()):
                num = {e: v for e, v in num.items() if v}
        if not num:
            den = 1
        elif den > 1:
            g = gcd(den, *num.values())
            if g > 1:
                den //= g
                num = {e: v // g for e, v in num.items()}
        self.n = n
        self.num = num
        self.den = den
        self._red = None

    # -- constructors

    @classmethod
    def zero(cls):
        return cls(1, {})

    @classmethod
    def rational(cls, v):
        """v, an int or a Fraction, as numerator over denominator; a bool or
        any other type is refused."""
        if type(v) is not int and not isinstance(v, Fraction):
            raise ValueError(f"a rational must be an int or a Fraction, got {v!r}")
        return cls(1, {0: v.numerator}, v.denominator)

    @classmethod
    def zeta(cls, n, k=1):
        return cls(n, {k % n: 1})

    # -- representation changes

    def _terms_at(self, m):
        """The numerators rewritten at conductor m, where n | m."""
        s = m // self.n
        if s == 1:
            return self.num
        return {e * s: v for e, v in self.num.items()}

    @staticmethod
    def _as_cyclotomic(x):
        return x if isinstance(x, Cyclotomic) else Cyclotomic.rational(x)

    # -- arithmetic

    def _add(self, other, sign):
        """self + sign * other over the common conductor and denominator."""
        other = Cyclotomic._as_cyclotomic(other)
        m, den = lcm(self.n, other.n), lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        out = {e: v * sa for e, v in self._terms_at(m).items()}
        for e, v in other._terms_at(m).items():
            out[e] = out.get(e, 0) + v * sb
        return Cyclotomic(m, out, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, {e: -v for e, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a = other.numerator
            return Cyclotomic(
                self.n, {e: v * a for e, v in self.num.items()}, self.den * other.denominator
            )
        other = Cyclotomic._as_cyclotomic(other)
        m = lcm(self.n, other.n)
        b = other._terms_at(m).items()
        out = {}
        # exponents run up to 2m - 2 here; the constructor reduces them mod m
        for e1, v1 in self._terms_at(m).items():
            for e2, v2 in b:
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return Cyclotomic(m, out, self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def hermitian_sum(weights, xs, ys):
        """The sum of w x conj(y) over int weights w and values x, y, conj
        the complex conjugation zeta -> zeta^(-1), added into one numerator
        dict over the common conductor and the common denominator of the
        products: one value is made, not three per term."""
        terms = list(zip(weights, xs, ys))
        m = lcm(*(v.n for _, x, y in terms for v in (x, y)))
        den = lcm(*(x.den * y.den for _, x, y in terms))
        out = {}
        # exponents run from 1 - m to m - 1 here; the constructor reduces them
        for w, x, y in terms:
            s = w * (den // (x.den * y.den))
            sx, sy = m // x.n, m // y.n
            b = [(e2 * sy, v2) for e2, v2 in y.num.items()]
            for e1, v1 in x.num.items():
                e1, v1 = e1 * sx, v1 * s
                for e2, v2 in b:
                    e = e1 - e2
                    out[e] = out.get(e, 0) + v1 * v2
        return Cyclotomic(m, out, den)

    # -- predicates, canonical forms

    def _reduction(self):
        """The numerators reduced modulo Phi_n, computed once per value;
        shared, so never handed out."""
        red = self._red
        if red is None:
            red = self._red = _reduce_mod_phi(self.num, self.n)
        return red

    def reduced(self):
        """Canonical coefficient list modulo Phi_n (length deg Phi_n): ints
        when every coefficient is an integer, Fractions otherwise. A fresh
        list on every call."""
        red = self._reduction()
        den = self.den
        if den == 1:
            return list(red)
        if gcd(den, *red) == den:
            return [c // den for c in red]
        return [Fraction(c, den) for c in red]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            red = self._reduction()
            return not any(red[1:]) and red[0] * other.denominator == other.numerator * self.den
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.n == other.n:
            a, b = self._reduction(), other._reduction()
        elif gcd(self.n, other.n) <= 2:
            # the two fields meet in Q: equal only as equal rationals
            a, b = self._reduction(), other._reduction()
            if any(a[1:]) or any(b[1:]):
                return False
            a, b = a[:1], b[:1]
        else:
            # an operand already at the common conductor has its reduction
            m = lcm(self.n, other.n)
            a, b = (x._reduction() if x.n == m else _reduce_mod_phi(x._terms_at(m), m) for x in (self, other))
        if self.den == other.den:
            return a == b
        return [x * other.den for x in a] == [y * self.den for y in b]

    __hash__ = None  # equality crosses conductors; not hashable

    def rational_value(self):
        red = self._reduction()
        if any(red[1:]):
            raise ValueError("not a rational value")
        return Fraction(red[0], self.den)

    def __repr__(self):
        return _text(self.n, self.den, tuple(sorted(self.num.items())))


def smallest_conductor(v):
    """The Cyclotomic v at its smallest conductor: (d, coefficients modulo
    Phi_d), d the least divisor of v.n with v in Q(zeta_d); d is never 2
    mod 4.

    The descent goes prime by prime. For a prime p of n and m = n / p, the
    trace from Q(zeta_n) to Q(zeta_m) over its degree, w, fixes Q(zeta_m),
    so v is in Q(zeta_m) exactly when w == v; then v = w and p is tried
    again. w is read term by term: zeta_n^e goes to zeta_m^(e / p) when p
    divides e; otherwise to 0 when p divides m (degree p), and to
    -zeta_m^(e p^-1 mod m) / (p - 1) when it does not (degree p - 1). The
    fields Q(zeta_d) holding v are closed under gcd, and a step at p keeps
    the exponents of the other primes, so the greedy descent is exact. At
    n = 2m, m odd, w = v always, so no conductor 2 mod 4 is left."""
    for p in prime_factors(v.n):
        while v.n % p == 0:
            m = v.n // p
            if m % p == 0:
                w = Cyclotomic(m, {e // p: c for e, c in v.num.items() if e % p == 0}, v.den)
            else:
                # e p^-1 = e / p mod m when p divides e
                r, num = pow(p, -1, m), {}
                for e, c in v.num.items():
                    k = e * r % m
                    num[k] = num.get(k, 0) + (c * (p - 1) if e % p == 0 else -c)
                w = Cyclotomic(m, num, v.den * (p - 1))
            if w != v:
                break
            v = w
    return v.n, v.reduced()


@lru_cache(maxsize=None)
def _text(n, den, numerators):
    """The text of the value with this stored form: numerators, a sorted
    tuple of (exponent, numerator) pairs, over den at conductor n. A
    rational prints as a plain number: its smallest conductor is 1."""
    v = Cyclotomic(n, dict(numerators), den)
    red = v.reduced()
    if not any(red[1:]):
        return str(red[0])
    d, coeffs = smallest_conductor(v)
    return f"cyc{d}[" + ",".join(str(c) for c in coeffs) + "]"
