"""The p-adic routes that liechar took before it knew a multiple of a
matrix's order and before it read Hilbert symbols off integers, kept as an
oracle for tests/test_padic.py: the topological Jordan split from the order
of the reduction mod p, found by a linear search, with delta inverted by row
reduction; the CLI's order of delta, found by a second linear search; and
the Hilbert symbol on Fractions, with the Legendre symbol of a unit."""

from fractions import Fraction

from liechar.exact_math import jordan_exponent, powers
from liechar.padic import TruncatedMatrix


def reduction_order(gamma):
    """The multiplicative order of gamma mod p, stepped one product at a
    time; an element of GL_n(F_p) has order at most p^n - 1."""
    red = TruncatedMatrix(gamma.n, gamma.p, 1, gamma.rows)
    return len(powers(TruncatedMatrix.mul, TruncatedMatrix.identity(gamma.n, gamma.p, 1), red, gamma.p**gamma.n - 1))


def topological_jordan(gamma):
    """(delta, u): N = ord(gamma mod p) * p^(k-1) is a multiple of the order
    of gamma, delta = gamma^e is the CRT split of it, and u = delta^-1 gamma
    with delta^-1 from `TruncatedMatrix.inverse`, one row reduction."""
    if not gamma.is_invertible():
        raise ValueError("gamma is not invertible modulo p")
    r, e = jordan_exponent(reduction_order(gamma) * gamma.p ** (gamma.k - 1), gamma.p)
    delta = gamma.pow(e)
    if delta.pow(r) != TruncatedMatrix.identity(gamma.n, gamma.p, gamma.k):
        raise AssertionError("finite-order part has the wrong order")
    return delta, delta.inverse().mul(gamma)


def delta_order(delta):
    """The order of delta at its precision, stepped one product at a time."""
    ident = TruncatedMatrix.identity(delta.n, delta.p, delta.k)
    return len(powers(TruncatedMatrix.mul, ident, delta, delta.p**delta.n - 1))


def _split_valuation(x, p):
    """x = p^alpha * u with u a p-unit; returns (alpha, u)."""
    alpha = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    return alpha, Fraction(num, den)


def _unit_mod(u, m):
    return u.numerator * pow(u.denominator, -1, m) % m


def _legendre(u, p):
    return 1 if pow(_unit_mod(u, p), (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, v):
    """(a, b)_v for nonzero rationals a, b and v an int prime or "inf"."""
    a, b = Fraction(a), Fraction(b)
    if v == "inf":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split_valuation(a, v)
    beta, w = _split_valuation(b, v)
    if v == 2:
        um, wm = _unit_mod(u, 8), _unit_mod(w, 8)
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        return -1 if (eps_u * eps_w + alpha * om_w + beta * om_u) % 2 else 1
    out = 1
    if alpha * beta * ((v - 1) // 2) % 2:
        out = -out
    if beta % 2 and _legendre(u, v) == -1:
        out = -out
    if alpha % 2 and _legendre(w, v) == -1:
        out = -out
    return out
