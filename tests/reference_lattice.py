"""Lattice routines the library no longer needs, kept as oracles.

Integer kernels and integer solutions of an integer matrix, read off its
Smith normal form, build the kernel-of-norm route to H^1 of a twisted torus
in tests/test_galois_tori.py, the oracle that the coinvariant route is
checked against. The rank of an integer span, by its own echelon
elimination, checks `RootDatum.is_semisimple`, which reads the rank off the
simple system. The invariant factors of a finite abelian group by a search
over divisibility chains check `abelian_subgroup_type`, which reads them off
prime-power counts. Rational solutions of an integer system, read off
the library's one Bareiss elimination, are the per-root and per-column
solves that root heights and inverse Cartan matrices are checked against
(tests/test_rootdata.py, tests/test_exact_algorithms.py). Coordinates of
vectors mod a prime in an independent basis, by the library's one
elimination over Z/l, read the eigenlines that Dixon's split carries in
each share (tests/test_dl_spectra.py)."""

from fractions import Fraction
from math import gcd, lcm

from liechar.exact_math import FinAbGroup, IntMatrix, element_order, rref_mod, smith_normal_form
from liechar.exact_math.intmat import _gauss_jordan


def kernel_basis(m: IntMatrix):
    """Basis of the integer kernel {x : m x = 0}, as a list of column tuples.
    The basis spans a saturated sublattice since V is unimodular."""
    r, c = m.shape
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(r, c)) if d.at(i, i) != 0)
    return [v.column(j) for j in range(rank, c)]


def solve_integer(m: IntMatrix, b):
    """One integer solution x of m x = b, or None if none exists."""
    r, c = m.shape
    u, d, v = smith_normal_form(m)
    w = u.apply(tuple(b))
    y = [0] * c
    for i in range(min(r, c)):
        di = d.at(i, i)
        if di != 0:
            if w[i] % di != 0:
                return None
            y[i] = w[i] // di
    for i in range(min(r, c), r):
        if w[i] != 0:
            return None
    # also: rows i < min(r,c) with d_i == 0 must have w_i == 0
    for i in range(min(r, c)):
        if d.at(i, i) == 0 and w[i] != 0:
            return None
    return v.apply(tuple(y))


def rank_of_span(vectors, dim):
    """Rank of the span of integer vectors of length dim. Each vector is
    reduced against an integer echelon basis, kept sorted by pivot column,
    by cross-multiplying with the pivot rows and dividing out the content;
    what is left, if nonzero, joins the basis. The search stops once the
    rank reaches dim."""
    basis = []  # (pivot column, row); pivot columns are distinct, rows zero left of them
    for v in vectors:
        if len(basis) == dim:
            break
        row = list(v)
        for col, p in basis:
            x = row[col]
            if x:
                row = [p[col] * a - x * b for a, b in zip(row, p)]
                g = gcd(*row)
                if g:
                    row = [a // g for a in row]
        col = next((i for i, a in enumerate(row) if a), None)
        if col is not None:
            basis.append((col, row))
            basis.sort()
    return len(basis)


def abelian_type_by_chains(elements, add, zero):
    """Invariant factors of a finite abelian group given as an explicit set
    of elements, by matching order statistics: every divisibility chain with
    product n and last factor the exponent is tried, and the one whose
    counts prod gcd(d_i, m) of x with m x = 0 match the group's at every m
    dividing the exponent is kept."""
    elems = list(elements)
    n = len(elems)
    if n == 1:
        return FinAbGroup()

    orders = [element_order(add, zero, x, n) for x in elems]
    exponent = lcm(*orders)

    def count_killed(m):
        return sum(1 for o in orders if m % o == 0)

    # enumerate divisibility chains with product n, factors largest-first
    results = []

    def rec(remaining, cap, acc):
        if remaining == 1:
            results.append(tuple(reversed(acc)))
            return
        for d in range(2, cap + 1):
            if cap % d == 0 and remaining % d == 0:
                rec(remaining // d, d, acc + [d])

    rec(n, exponent, [])
    matches = []
    for chain in results:
        if not chain or chain[-1] != exponent:
            continue
        ok = True
        for m in range(1, exponent + 1):
            if exponent % m != 0:
                continue
            prod = 1
            for d in chain:
                prod *= gcd(d, m)
            if prod != count_killed(m):
                ok = False
                break
        if ok:
            matches.append(chain)
    if len(matches) != 1:
        raise AssertionError(f"ambiguous or missing abelian type: {matches}")
    return FinAbGroup(torsion=matches[0])


def solve_rational(rows, b):
    """Solve rows * x = b exactly over Q, as a tuple of Fractions: integer
    rows, at least as many as unknowns, with linearly independent columns
    (ValueError otherwise), and b (ints or Fractions) in their span
    (ValueError otherwise). b is scaled by the common denominator d of its
    entries, so the elimination runs on integers; x = a[:, n] / (p d)."""
    n = len(rows[0]) if rows else 0
    d = lcm(1, *(v.denominator for v in b))
    a = [list(row) + [v.numerator * (d // v.denominator)] for row, v in zip(rows, b)]
    p, _ = _gauss_jordan(a, n)
    if any(a[r][n] for r in range(n, len(a))):
        raise ValueError("inconsistent system")
    return tuple(Fraction(a[r][n], p * d) for r in range(n))


def coords_in_basis(basis, vecs, l):
    """Coordinates mod the prime l of each vec in the span of an independent
    basis; AssertionError if the basis is dependent or a vec lies outside
    its span."""
    d = len(basis)
    a, pivots = rref_mod([list(col) for col in zip(*basis, *vecs)], l, d)
    if len(pivots) < d:
        raise AssertionError("basis is dependent")
    for r in range(d, len(a)):
        if any(a[r][d:]):
            raise AssertionError("vector outside the span")
    return [[a[i][d + j] for i in range(d)] for j in range(len(vecs))]
