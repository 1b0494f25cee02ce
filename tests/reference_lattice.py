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
each share (tests/test_dl_spectra.py). The Smith normal form by mirrored
row and column eliminations, which the library's one row routine on the
transposes replaced, is the reference that the library's transforms U, D
and V must equal (tests/test_intmat.py)."""

from fractions import Fraction
from math import gcd, lcm

from liechar.exact_math import FinAbGroup, IntMatrix, powers, rref_mod, smith_normal_form
from liechar.exact_math.intmat import _gauss_jordan, _mix, _xgcd


def kernel_basis(m: IntMatrix):
    """Basis of the integer kernel {x : m x = 0}, as a list of column tuples.
    The basis spans a saturated sublattice since V is unimodular."""
    r, c = m.shape
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(r, c)) if d.at(i, i) != 0)
    return v.columns()[rank:]


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

    orders = [len(powers(add, zero, x, n)) for x in elems]
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


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, q):
    # row_dst += q * row_src
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]


def _add_col(a, v, dst, src, q):
    for row in a:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def _eliminate_row(a, u, t, i):
    """Zero a[i][t] against the pivot a[t][t] by a unimodular row operation.
    Unless the pivot divides a[i][t], the pivot becomes a proper divisor."""
    p, x = a[t][t], a[i][t]
    if x % p == 0:
        _add_row(a, u, i, t, -(x // p))
        return
    g, s, w = _xgcd(p, x)
    # [[s, w], [-x/g, p/g]] has determinant (s*p + w*x)/g = 1
    a[t], a[i] = _mix(a[t], a[i], s, w, -x // g, p // g)
    u[t], u[i] = _mix(u[t], u[i], s, w, -x // g, p // g)


def _eliminate_col(a, v, t, j):
    """Column counterpart of _eliminate_row for a[t][j]; True when the
    pivot changed."""
    p, x = a[t][t], a[t][j]
    if x % p == 0:
        _add_col(a, v, j, t, -(x // p))
        return False
    g, s, w = _xgcd(p, x)
    for m in (a, v):
        for row in m:
            row[t], row[j] = s * row[t] + w * row[j], (-x // g) * row[t] + (p // g) * row[j]
    return True


def smith_normal_form_reference(m: IntMatrix):
    """Return (U, D, V) with U*m*V = D, U and V unimodular, D diagonal with
    nonnegative entries d_1 | d_2 | ... .

    A least-magnitude nonzero entry of the trailing block takes the pivot
    seat. Exact multiples of the pivot are cleared by subtraction, the other
    entries by a 2x2 extended-gcd transform that replaces the pivot with the
    gcd, a proper divisor of the pivot. Each stage therefore makes at most
    log2(|pivot|) gcd transforms and ends.
    """
    r, c = m.shape
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    t = 0
    while t < min(r, c):
        # locate least |entry| != 0 in the trailing block
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(a, u, t, pi)
        if pj != t:
            _swap_cols(a, v, t, pj)

        while True:
            # clear column t below the pivot, then row t right of it; a
            # column transform that moved the pivot may refill column t
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    _eliminate_row(a, u, t, i)
            dirty = False
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    dirty |= _eliminate_col(a, v, t, j)
            if dirty:
                continue
            # pivot must divide the whole trailing block, else absorb a bad row
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _add_row(a, u, t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    U, D, V = IntMatrix(u), IntMatrix(a), IntMatrix(v)
    if U * m * V != D:
        raise AssertionError("SNF transform identity failed")
    return U, D, V
