"""Two oracles for tests/test_cyclo.py.

The dict-of-Fractions Cyclotomic that liechar used before its values moved
to integer numerators over one denominator: every coefficient a Fraction,
every value reduced modulo Phi_n in Fractions. And the search for the
smallest conductor that liechar used before its descent by relative
traces: every divisor d of n, every unit k = 1 mod d, and one rational
solve for the coefficients."""

from fractions import Fraction
from math import gcd, lcm

from liechar.exact_math.cyclo import _phi_terms, _reduce_mod_phi as _reduce_int
from reference_lattice import solve_rational


def smallest_conductor_by_search(n, red):
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
            _reduce_int({e * k % n: c for e, c in enumerate(red) if c}, n) == red
            for k in range(1 + d, n, d)
            if gcd(k, n) == 1
        ):
            s = n // d
            deg = len(_phi_terms(d)[0]) - 1
            cols = [_reduce_int({s * j: 1}, n) for j in range(deg)]
            return d, list(solve_rational(list(zip(*cols)), red))
    raise AssertionError("no conductor found")


def _reduce_mod_phi(coeffs, n):
    """Remainder of a sparse {exp: Fraction} polynomial modulo Phi_n.
    Returns a dense list of Fractions of length deg Phi_n."""
    phi = _phi_terms(n)[0]
    deg = len(phi) - 1
    dense = [Fraction(0)] * max(n, deg)
    for e, c in coeffs.items():
        dense[e % n] += c
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = Fraction(0)
            for j in range(deg):
                dense[i - deg + j] -= c * phi[j]
    return dense[:deg]


class Cyclotomic:
    """Element of Q(zeta_n), n the conductor of the representation (not
    necessarily minimal for the value)."""

    __slots__ = ("n", "c")

    def __init__(self, n=1, coeffs=None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("conductor must be positive")
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v:
                    e %= self.n
                    c[e] = c.get(e, Fraction(0)) + v
        self.c = {e: v for e, v in c.items() if v}

    # -- constructors

    @classmethod
    def zero(cls):
        return cls(1, {})

    @classmethod
    def rational(cls, v):
        return cls(1, {0: Fraction(v)})

    @classmethod
    def zeta(cls, n, k=1):
        return cls(n, {k % n: Fraction(1)})

    # -- representation changes

    def lift(self, m):
        """Rewrite in conductor m, where n | m."""
        if m % self.n != 0:
            raise ValueError("conductor must be a multiple")
        s = m // self.n
        return Cyclotomic(m, {e * s: v for e, v in self.c.items()})

    @staticmethod
    def _common(a, b):
        if not isinstance(b, Cyclotomic):
            b = Cyclotomic.rational(b)
        m = lcm(a.n, b.n)
        return a.lift(m), b.lift(m)

    # -- arithmetic

    def __add__(self, other):
        a, b = Cyclotomic._common(self, other)
        out = dict(a.c)
        for e, v in b.c.items():
            out[e] = out.get(e, Fraction(0)) + v
        return Cyclotomic(a.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, {e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic) else Cyclotomic.rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, {e: v * other for e, v in self.c.items()})
        a, b = Cyclotomic._common(self, other)
        out = {}
        for e1, v1 in a.c.items():
            for e2, v2 in b.c.items():
                e = (e1 + e2) % a.n
                out[e] = out.get(e, Fraction(0)) + v1 * v2
        return Cyclotomic(a.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("nonnegative powers only")
        result = Cyclotomic.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(-1)."""
        return Cyclotomic(self.n, {(-e) % self.n: v for e, v in self.c.items()})

    # -- predicates, canonical forms

    def reduced(self):
        """Canonical coefficient list modulo Phi_n (length deg Phi_n)."""
        return _reduce_mod_phi(self.c, self.n)

    def is_zero(self):
        return not any(self.reduced())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.reduced() == b.reduced()

    __hash__ = None  # equality crosses conductors; not hashable

    def is_rational(self):
        red = self.reduced()
        return not any(red[1:])

    def rational_value(self):
        red = self.reduced()
        if any(red[1:]):
            raise ValueError("not a rational value")
        return red[0] if red else Fraction(0)

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
