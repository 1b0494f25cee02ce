"""Truncated p-adic arithmetic and local quadratic-form invariants.

Matrices over Z/p^k with one-pass inversion, invertibility read off the
rank of the reduction over F_p (`rref_mod`, no determinant), and powers by
`exact_math.power`; the topological Jordan decomposition of an invertible
element into a finite-order part prime to p times a topologically unipotent
part; an exhaustive finite-precision bijectivity check for the
quasi-logarithm; and the Hilbert symbol with its diagonal-form product
invariant.

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
from .exact_math.primes import PRIME_BOUND

__all__ = [
    "TruncatedMatrix",
    "DiagQuadForm",
    "order_multiple",
    "topological_jordan",
    "quasi_log_bijection_check",
    "hilbert_symbol",
    "hasse_invariant",
    "relevant_places",
]

PRECISION_BUDGET = 64  # largest precision k of a TruncatedMatrix


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
        if (self.n, self.mod) != (other.n, other.mod):
            raise ValueError("matrices live in different rings")
        mod = self.mod
        cols = tuple(zip(*other.rows))
        out = TruncatedMatrix.__new__(TruncatedMatrix)
        out.n, out.p, out.k, out.mod = self.n, self.p, self.k, mod
        out.rows = tuple([tuple([sum(map(_mul, row, col)) % mod for col in cols]) for row in self.rows])
        return out

    def pow(self, e):
        if e == 0:
            return self._identity_like()
        # power returns its identity argument only for e = 0
        return power(TruncatedMatrix.mul, None, self, e)

    def is_invertible(self):
        """Whether the reduction mod p has full rank, by `rref_mod` over
        F_p: no integer is formed past the entries mod p."""
        return len(rref_mod(self.rows, self.p, self.n)[1]) == self.n

    def inverse(self):
        """One Gauss-Jordan pass on [A | I] over Z/p^k, pivoting on units:
        A is invertible exactly when every column finds one, that is when its
        reduction mod p is. The result is checked: A * A^-1 = I."""
        n = self.n
        a, pivots = rref_mod(
            [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)], self.mod, n
        )
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is not invertible modulo p")
        x = self._like(tuple(tuple(r[n:]) for r in a))
        if self.mul(x) != self._identity_like():
            raise AssertionError("inverse fails to verify")
        return x

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
    gamma, and u^(p^m) = 1 within k + 8 steps guard the result (a miss is a
    bug, not an input error). Returns (delta, u).

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
    r, e = jordan_exponent(order_multiple(n, p, k), p)
    delta = gamma.pow(e)
    delta_inv = delta.pow(r - 1)
    ident = gamma._identity_like()
    if delta.mul(delta_inv) != ident:
        raise AssertionError("finite-order part has the wrong order")
    u = delta_inv.mul(gamma)
    if delta.mul(u) != gamma or u.mul(delta) != gamma:
        raise AssertionError("parts do not commute back to gamma")
    acc = u
    for _ in range(k + 8):
        if acc == ident:
            break
        acc = acc.pow(p)
    else:
        raise AssertionError("unipotent part does not converge to 1")
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


def hilbert_symbol(a, b, v):
    """The local Hilbert symbol (a, b)_v in {+1, -1}.

    v is an odd prime, 2, or the string "inf"; a prime may also be given as
    a string of decimal digits, and any other string is refused here. No
    prime at or above PRIME_BOUND is admitted (`is_prime` refuses it), so a
    string with more significant digits than PRIME_BOUND is refused before
    it is converted. Computed from the standard valuation and residue
    formulas on the numerators and denominators; bimultiplicative and
    symmetric. A unit num / den is a square mod an odd v when num * den is,
    which Euler's criterion decides; mod 8, an odd den is its own inverse.
    """
    if not isinstance(a, Fraction):
        a = Fraction(a)
    if not isinstance(b, Fraction):
        b = Fraction(b)
    an, bn = a.numerator, b.numerator
    if an == 0 or bn == 0:
        raise Refusal("arguments", "arguments must be nonzero")
    if v == "inf":
        return -1 if an < 0 and bn < 0 else 1
    if isinstance(v, str):
        # any script's decimal digits, written as ASCII without leading
        # zeros; any other text reads as 0, which is no place
        v = ("".join(str(int(c)) for c in v).lstrip("0") if v.isdecimal() else "") or "0"
        if len(v) > len(str(PRIME_BOUND)):
            undecided = "primality of a {value}-digit place is decided only below {budget}"
            raise over_budget("primality", undecided, len(v), "PRIME_BOUND", PRIME_BOUND)
    v = int(v)
    if not is_prime(v):
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
        coeffs = tuple(Fraction(c) for c in coeffs)
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
    denominator."""
    places = {"inf", 2}
    for x in values:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        places.update(prime_factors(abs(x.numerator)), prime_factors(x.denominator))
    return places
