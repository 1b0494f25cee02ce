"""Exact cyclotomic numbers.

A value is stored as integer numerators over one positive denominator, in
the full power basis 1, zeta, ..., zeta^(N-1) with exponents mod N; the
denominator and the numerators share no common factor. Sums and products
stay in this representation and on plain integers. Reduction into the Phi_N
quotient happens only when equality, rationality or the printed form is
decided, at most once per value: the value memoises its reduction. Phi_N is
monic, so the reduction stays integral too. A Fraction is made only where a
caller asks for a rational: `rational_value`, or `reduced` of a value whose
reduced coefficients are not all integers.

Equality crosses conductors. Q(zeta_a) and Q(zeta_b) meet in Q(zeta_g), g =
gcd(a, b), which is Q when g <= 2: two values whose conductors share at
most 2 are equal only as equal rationals, decided from their memoised
reductions. Other pairs are compared in Q(zeta_lcm(a, b)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intmat import solve_rational
from .primes import prime_factors

# largest conductor reduced modulo Phi_n. The characters of GL2 and SL2 over
# F_q, q <= 13, have conductors up to 168, and two tables are compared at
# the lcm of theirs, up to 2184
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


def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, constant term first."""
    return _phi_terms(n)[0]


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
        raise ValueError(f"conductor {n} exceeds the budget CONDUCTOR_BUDGET = {CONDUCTOR_BUDGET}")
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
    that shares no factor with all of them. The constructor takes int or
    Fraction coefficients keyed by int exponents, all divided by den, and
    refuses anything else (a float has no exact value here). `_red` memoises
    the numerators reduced modulo Phi_n, built on first use."""

    __slots__ = ("n", "num", "den", "_red")

    def __init__(self, n=1, coeffs=None, den=1):
        if type(n) is not int or n < 1:
            raise ValueError("conductor must be a positive integer")
        if type(den) is not int or den < 1:
            raise ValueError("denominator must be a positive integer")
        num = {}
        if coeffs:
            unit = 1  # what an int coefficient is scaled by: den / (den given)
            for e, v in coeffs.items():
                if type(e) is not int:
                    raise ValueError(f"exponents must be integers, got {e!r}")
                if type(v) is not int:
                    if not isinstance(v, Fraction):
                        raise ValueError(f"coefficients must be ints or Fractions, got {v!r}")
                    b = v.denominator
                    s = b // gcd(unit, b)
                    if s > 1:
                        unit *= s
                        den *= s
                        for x in num:
                            num[x] *= s
                    v = v.numerator * (unit // b)
                elif unit > 1:
                    v *= unit
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
        return cls(1, {0: v})

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

    def lift(self, m):
        """Rewrite in conductor m, where n | m."""
        if m % self.n != 0:
            raise ValueError("conductor must be a multiple")
        return Cyclotomic(m, self._terms_at(m), self.den)

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

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(-1)."""
        return Cyclotomic(self.n, {-e: v for e, v in self.num.items()}, self.den)

    @staticmethod
    def hermitian_sum(weights, xs, ys):
        """sum(w * x * y.conjugate()) over int weights w and values x, y,
        added into one numerator dict over the common conductor and the
        common denominator of the products: one value is made, not three per
        term."""
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
            m = lcm(self.n, other.n)
            a = _reduce_mod_phi(self._terms_at(m), m)
            b = _reduce_mod_phi(other._terms_at(m), m)
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
        red = self.reduced()
        if not any(red):
            return "0"
        terms = []
        for e, v in enumerate(red):
            if not v:
                continue
            if e == 0:
                terms.append(str(v))
            else:
                mon = f"z{self.n}" if e == 1 else f"z{self.n}^{e}"
                if v == 1:
                    terms.append(mon)
                elif v == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{v}*{mon}")
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


def smallest_conductor(n, red):
    """The value sum_k red[k] zeta_n^k (red reduced modulo Phi_n) at its
    smallest conductor: (d, coefficients modulo Phi_d), d the least divisor
    of n with d != 2 mod 4 and the value in Q(zeta_d).

    Q(zeta_d) is the fixed field of the units k = 1 mod d of Z/n, so
    membership is invariance under those sigma_k: zeta_n -> zeta_n^k; the
    coefficients then come from one exact solve in the power basis of
    zeta_d = zeta_n^(n/d)."""
    red = list(red)
    for d in range(1, n + 1):
        if n % d or d % 4 == 2:
            continue
        if all(
            _reduce_mod_phi({e * k % n: c for e, c in enumerate(red) if c}, n) == red
            for k in range(1 + d, n, d)
            if gcd(k, n) == 1
        ):
            s = n // d
            deg = len(cyclotomic_polynomial(d)) - 1
            cols = [_reduce_mod_phi({s * j: 1}, n) for j in range(deg)]
            return d, list(solve_rational(list(zip(*cols)), red))
    raise AssertionError("no conductor found")
