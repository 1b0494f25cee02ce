"""Truncated p-adic arithmetic and local quadratic-form invariants.

Matrices over Z/p^k with one product on bare row tuples (`_mul_rows`),
invertibility read off the rank of the reduction over F_p (`rref_mod`, no
determinant), and powers by `exact_math.power` on the bare rows, so that no
matrix object is built per step of a power; the topological Jordan
decomposition of an invertible element into a finite-order part prime to p
times a topologically unipotent part; an exhaustive finite-precision
bijectivity check for the quasi-logarithm; and the Hilbert symbol with its
diagonal-form product invariant.

The product writes the 2 x 2 case out, eight products and four reductions:
every split the query service and selftest ask for is 2 x 2, and products
are most of a split's time. The CLI's n x n inputs take the general sum of
products per entry.

The Jordan decomposition searches for no order. N = `order_multiple(n, p,
k)` = lcm(p^d - 1, d <= n) * p^(c + k - 1), with p^c >= n, is a multiple of
the order of every element of GL_n(Z/p^k): the semisimple part of the
reduction mod p has its eigenvalues in fields F_(p^d), d <= n, its unipotent
part has order at most p^c, and the kernel of reduction has exponent
p^(k-1). So the finite-order part is one power of gamma, its inverse one
more, and each is checked.

The quasi-logarithm check's two sets, the unipotent-reduction group
elements and the nilpotent-reduction Lie algebra elements mod p^k, are built
from their reductions mod p: each set but SL2's group side is its
reductions lifted freely to Z/p^k (`_lifts`), and SL2's group side lifts
the unit one of a and d with b and c, then solves the other from
ad - bc = 1 (p is odd, so a + d = 2 mod p makes a or d a unit).

The Hilbert symbol works on the numerators and denominators of its
arguments as ints: valuations by division, the residue symbol of a unit
num / den by Euler's criterion on num * den, and signs off the numerators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul as _mul

from .exact_math import Refusal, int_text, is_prime, jordan_exponent, over_budget, power, prime_factors, rref_mod
from .exact_math.orders import ORDER_BUDGET

PRECISION_BUDGET = 64  # largest precision k of a TruncatedMatrix


def _mul_rows(a, b, mod):
    """The product of two n x n matrices over Z/p^k, given as tuples of rows
    reduced mod p^k, as the same. The 2 x 2 case, every matrix the service
    and selftest split, is written out: eight products and four reductions,
    no column transpose and no generator; any other n takes one sum of
    products per entry."""
    if len(a) == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return (
            ((a00 * b00 + a01 * b10) % mod, (a00 * b01 + a01 * b11) % mod),
            ((a10 * b00 + a11 * b10) % mod, (a10 * b01 + a11 * b11) % mod),
        )
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(_mul, row, col)) % mod for col in cols]) for row in a])


class TruncatedMatrix:
    """A square matrix with entries in Z/p^k.

    The constructor is the one place that checks its input: p prime, k a
    positive int, an n x n shape with n >= 1 and int entries (bool
    refused), reduced mod p^k. The precision is capped at k <=
    PRECISION_BUDGET = 64, checked before p^k is formed, so a huge k is
    refused at once. Arithmetic results are built from rows already reduced
    mod p^k and skip those checks."""

    __slots__ = ("n", "p", "k", "mod", "rows")

    def __init__(self, n, p, k, rows):
        if type(p) is not int or not is_prime(p):
            raise Refusal("p", "p must be prime")
        if type(k) is not int or k < 1:
            raise Refusal("precision", "precision must be a positive integer")
        rows = tuple(tuple(r) for r in rows)
        if type(n) is not int or len(rows) != n or any(len(r) != n for r in rows):
            raise Refusal("rows", "rows must form an n x n matrix")
        if n < 1:
            raise Refusal("rows", "rows must form an n x n matrix with n >= 1")
        if any(type(x) is not int for r in rows for x in r):
            raise ValueError("entries must be integers")
        if k > PRECISION_BUDGET:
            raise over_budget("precision", "precision k =", k, "PRECISION_BUDGET", PRECISION_BUDGET)
        self.n = n
        self.p = p
        self.k = k
        self.mod = mod = p**k
        self.rows = tuple(tuple(x % mod for x in r) for r in rows)

    def _like(self, rows):
        """A matrix in the same ring from rows already reduced mod p^k."""
        out = TruncatedMatrix.__new__(TruncatedMatrix)
        out.n, out.p, out.k, out.mod, out.rows = self.n, self.p, self.k, self.mod, rows
        return out

    @classmethod
    def identity(cls, n, p, k):
        return cls(n, p, k, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def _identity_like(self):
        n = self.n
        return self._like(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def mul(self, other):
        """self * other, after the ring check: the product itself is
        `_mul_rows` on the bare rows, which checks nothing."""
        if (self.n, self.mod) != (other.n, other.mod):
            raise ValueError("matrices live in different rings")
        return self._like(_mul_rows(self.rows, other.rows, self.mod))

    def pow(self, e):
        """self^e by `exact_math.power` on the bare rows with `_mul_rows`:
        only the result is wrapped, no matrix object per step."""
        if e == 0:
            return self._identity_like()
        mod = self.mod
        # power returns its identity argument only for e = 0
        return self._like(power(lambda a, b: _mul_rows(a, b, mod), None, self.rows, e))

    def is_invertible(self):
        """Whether the reduction mod p has full rank, by `rref_mod` over
        F_p: no integer is formed past the entries mod p."""
        return len(rref_mod(self.rows, self.p, self.n)[1]) == self.n

    def __eq__(self, other):
        if not isinstance(other, TruncatedMatrix):
            return NotImplemented
        return (self.n, self.p, self.k, self.rows) == (
            other.n,
            other.p,
            other.k,
            other.rows,
        )

    def __hash__(self):
        return hash((self.n, self.p, self.k, self.rows))

    def __repr__(self):
        return f"TruncatedMatrix({self.n}, {self.p}, {self.k}, {list(map(list, self.rows))})"


def order_multiple(n, p, k):
    """N = L * p^(c + k - 1), with L = lcm(p^d - 1, d <= n) and c the least
    exponent with p^c >= n: a multiple of the order of every element of
    GL_n(Z/p^k).

    The reduction mod p of such an element is s * v with s semisimple and v
    unipotent, commuting. The eigenvalues of s lie in fields F_(p^d), d <= n,
    so s^L = 1; (v - 1)^n = 0 and p^c >= n give v^(p^c) = 1 + (v - 1)^(p^c)
    = 1. So gamma^(L p^c) = 1 + pX, whose p^(k-1)-th power is 1 mod p^k.
    L is prime to p, so it is the prime-to-p part of N.
    """
    pc, c = 1, 0
    while pc < n:
        pc, c = pc * p, c + 1
    return lcm(*[p**d - 1 for d in range(1, n + 1)]) * p ** (c + k - 1)


def topological_jordan(gamma: TruncatedMatrix):
    """Split an invertible truncated matrix as delta * u where delta has
    finite order prime to p and u is topologically unipotent; the two parts
    commute and are unique at this precision.

    N = `order_multiple(n, p, k)` is a multiple of the order of gamma. With
    r the prime-to-p part of N, the CRT split gives delta = gamma^e, e = 1
    mod r and e = 0 mod N / r, in one power, and delta^(r-1) is its inverse:
    the one product delta * delta^(r-1) = 1 checks both delta^r = 1 and the
    inverse. The checks delta * u = u * delta = gamma with u = delta^(r-1) *
    gamma, and u^(p^m) = 1 for the p-part p^m = N / r of N, checked one
    p-th power at a time, guard the result (a miss is a bug, not an input
    error). Returns (delta, u).

    A matrix whose order bound p^n - 1 passes ORDER_BUDGET is refused first,
    before the rank over F_p that decides invertibility. The budget keeps
    each p^d - 1, d <= n, small enough to factor by trial division, which
    the CLI's order of delta relies on.
    """
    p, n, k = gamma.p, gamma.n, gamma.k
    if p**n - 1 > ORDER_BUDGET:
        raise over_budget("order", "order bound", p**n - 1, "ORDER_BUDGET", ORDER_BUDGET)
    if not gamma.is_invertible():
        raise Refusal("gamma", "gamma is not invertible modulo p")
    multiple = order_multiple(n, p, k)
    r, e = jordan_exponent(multiple, p)
    delta = gamma.pow(e)
    delta_inv = delta.pow(r - 1)
    ident = gamma._identity_like()
    if delta.mul(delta_inv) != ident:
        raise AssertionError("finite-order part has the wrong order")
    u = delta_inv.mul(gamma)
    if delta.mul(u) != gamma or u.mul(delta) != gamma:
        raise AssertionError("parts do not commute back to gamma")
    # the order of u divides the p-part N / r = p^(c + k - 1) of N: its
    # p-th powers reach 1 by then
    acc, pa = u, multiple // r
    while acc != ident:
        if pa == 1:
            raise AssertionError("unipotent part does not converge to 1")
        acc, pa = acc.pow(p), pa // p
    return delta, u


# ---------------------------------------------------------------------------
# quasi-logarithm bijectivity at finite precision

_QL_DIMS = {"SL2": 3, "GL2": 4}
_QL_BUDGET = 10**7


def _lifts(residues, p, k):
    """Every tuple mod p^k whose reduction mod p is in residues, tuples with
    entries in [0, p): each entry x lifts to x, x + p, ..., below p^k."""
    mod = p**k
    out = []
    for r in residues:
        out.extend(product(*[range(x, mod, p) for x in r]))
    return out


def _sl2_unipotent_set(units, p, k):
    """All (a, b, c, d) mod p^k with ad - bc = 1 mod p^k and a + d = 2 mod p,
    from units, the reductions (u, b, c) with u a unit that extend to one.
    p is odd, so a + d = 2 mod p makes a or d a unit u, and the determinant
    gives the other entry as (1 + bc) / u."""
    mod = p**k
    # each unit lift u recurs p^(2k) times: invert it once
    inverse = {u: pow(u, -1, mod) for u in range(1, mod) if u % p}
    out = []
    for u, b, c in _lifts(units, p, k):
        v = (1 + b * c) * inverse[u] % mod
        out.append((u, b, c, v))
        if v % p == 0:
            # a = v is not a unit and d = u is
            out.append((v, b, c, u))
    return out


def _qlog_sets(kind, p, k):
    """(unipotents, nilpotents): the group elements mod p^k with unipotent
    reduction, as (a, b, c, d) for [[a, b], [c, d]], and the Lie algebra
    elements mod p^k with nilpotent reduction, as (x, y, z) for SL2's
    [[x, y], [z, -x]] and (x, y, z, w) for GL2's [[x, y], [z, w]]."""
    # the reductions mod p, from the p^3 triples: [[x, y], [z, -x]] is
    # nilpotent when x^2 + yz = 0, and then [[1 + x, y], [z, 1 - x]] is
    # unipotent
    nil_res = [(x, y, z) for x, y, z in product(range(p), repeat=3) if (x * x + y * z) % p == 0]
    if kind == "SL2":
        units = [((1 + x) % p, y, z) for x, y, z in nil_res if (1 + x) % p]
        return _sl2_unipotent_set(units, p, k), _lifts(nil_res, p, k)
    uni_res = [((1 + x) % p, y, z, (1 - x) % p) for x, y, z in nil_res]
    return _lifts(uni_res, p, k), _lifts([(x, y, z, -x % p) for x, y, z in nil_res], p, k)


def quasi_log_bijection_check(kind, p, k):
    """Exhaustively verify that the closed-form quasi-logarithm is a
    bijection from unipotent-reduction group elements mod p^k onto
    nilpotent-reduction Lie algebra elements mod p^k.

    p must be an odd prime and k a positive int; the enumeration of the
    p^(k*dim) points is capped at _QL_BUDGET = 10^7. Returns a report dict
    with the two cardinalities and the verdict.
    """
    if kind not in _QL_DIMS:
        raise ValueError(f"unsupported kind {kind!r}")
    if type(p) is not int or not is_prime(p):
        raise Refusal("p", "p must be prime")
    if p == 2:
        raise Refusal("p", "p = 2 is excluded")
    if type(k) is not int or k < 1:
        raise Refusal("precision", "precision must be a positive integer")
    e = k * _QL_DIMS[kind]
    # p > 2, so p^e > 2^e > _QL_BUDGET once e reaches the budget's bit
    # length: the power is formed only below that
    if e >= _QL_BUDGET.bit_length() or p**e > _QL_BUDGET:
        raise over_budget(None, f"enumeration {p}^{int_text(e)}", None, "_QL_BUDGET", _QL_BUDGET)
    mod = p**k
    inv2 = pow(2, -1, mod)
    uni, nil = _qlog_sets(kind, p, k)
    if kind == "SL2":
        def phi(g):
            a, b, c, d = g
            s = (a - 1 + d - 1) * inv2 % mod
            return ((a - 1 - s) % mod, b, c)
    else:
        def phi(g):
            a, b, c, d = g
            return ((a - 1) % mod, b, c, (d - 1) % mod)
    nil_set = set(nil)
    image = [phi(g) for g in uni]
    image_set = set(image)
    report = {
        "kind": kind,
        "p": p,
        "k": k,
        "unipotent_count": len(uni),
        "nilpotent_count": len(nil),
        "counts_equal": len(uni) == len(nil),
        "injective": len(image_set) == len(image),
        "image_in_nilpotents": image_set <= nil_set,
        "identity_to_zero": phi((1, 0, 0, 1)) == (0,) * _QL_DIMS[kind],
    }
    report["pass"] = (
        report["counts_equal"]
        and report["injective"]
        and report["image_in_nilpotents"]
        and report["identity_to_zero"]
    )
    return report


# ---------------------------------------------------------------------------
# Hilbert symbol and the diagonal-form invariant


def _split_valuation(num, den, p):
    """num / den = p^alpha * num' / den' with num' and den' prime to p;
    returns the ints (alpha, num', den')."""
    alpha = 0
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    return alpha, num, den


def _rational(x):
    """x as a Fraction. A float or a bool is refused: Fraction(0.1) is the
    binary value 3602879701896397/36028797018963968, not 1/10."""
    if isinstance(x, (float, bool)):
        raise Refusal("arguments", f"{x!r} is not an exact rational")
    return Fraction(x)


def hilbert_symbol(a, b, v):
    """The local Hilbert symbol (a, b)_v in {+1, -1}.

    a and b are exact rationals; a float or a bool is refused. v is an int
    or the string "inf": a prime, or "inf" for the real place; any other v
    is refused as no place, and a v at or above PRIME_BOUND by `is_prime`,
    which decides primality only below it. Computed from the
    standard valuation and residue formulas on the numerators and
    denominators; bimultiplicative and symmetric. A unit num / den is a
    square mod an odd v when num * den is, which Euler's criterion decides;
    mod 8, an odd den is its own inverse.
    """
    if not isinstance(a, Fraction):
        a = _rational(a)
    if not isinstance(b, Fraction):
        b = _rational(b)
    an, bn = a.numerator, b.numerator
    if an == 0 or bn == 0:
        raise Refusal("arguments", "arguments must be nonzero")
    if v == "inf":
        return -1 if an < 0 and bn < 0 else 1
    if not isinstance(v, int) or not is_prime(v):
        raise Refusal("place", "place must be a prime or 'inf'")
    alpha, un, ud = _split_valuation(an, a.denominator, v)
    beta, wn, wd = _split_valuation(bn, b.denominator, v)
    if v == 2:
        um, wm = un * ud % 8, wn * wd % 8
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        expo = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if expo % 2 else 1
    eps = (v - 1) // 2
    out = 1
    if alpha * beta * eps % 2:
        out = -out
    if beta % 2 and pow(un * ud, eps, v) != 1:
        out = -out
    if alpha % 2 and pow(wn * wd, eps, v) != 1:
        out = -out
    return out


class DiagQuadForm:
    """A diagonal quadratic form, kept as its nonzero coefficients."""

    def __init__(self, coeffs):
        coeffs = tuple(map(_rational, coeffs))
        if any(c == 0 for c in coeffs):
            raise ValueError("coefficients must be nonzero")
        self.coeffs = coeffs

    def __repr__(self):
        return f"DiagQuadForm({[str(c) for c in self.coeffs]})"


def hasse_invariant(form: DiagQuadForm, v):
    """Product of the pairwise Hilbert symbols of the diagonal
    coefficients at the place v."""
    out = 1
    cs = form.coeffs
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            out *= hilbert_symbol(cs[i], cs[j], v)
    return out


def relevant_places(*values):
    """The places where a Hilbert symbol of these rationals can be
    nontrivial: infinity, 2, and the odd primes dividing a numerator or
    denominator. A float or a bool is refused."""
    places = {"inf", 2}
    for x in values:
        if not isinstance(x, Fraction):
            x = _rational(x)
        places.update(prime_factors(abs(x.numerator)), prime_factors(x.denominator))
    return places
