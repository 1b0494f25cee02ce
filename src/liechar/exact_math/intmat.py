"""Arbitrary-precision integer matrices, Smith normal form with transforms,
row reduction over Q and over Z/l (l prime), and finitely generated abelian
groups presented by invariant factors.

All matrices are immutable, row-major tuples of tuples of Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .orders import element_order


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, cols):
        cols = [tuple(c) for c in cols]
        if not cols:
            return cls(())
        return cls(tuple(tuple(col[i] for col in cols) for i in range(len(cols[0]))))

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def at(self, i, j):
        return self.rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        r, c = self.shape
        return [self.column(j) for j in range(c)]

    def transpose(self):
        r, c = self.shape
        return IntMatrix(tuple(tuple(self.rows[i][j] for i in range(r)) for j in range(c)))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.rows))})"

    def __neg__(self):
        return IntMatrix(tuple(tuple(-x for x in r) for r in self.rows))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(x * other for x in r) for r in self.rows))
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        ocols = other.columns()
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ocols) for row in self.rows)
        )

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        r, c = self.shape
        if r != c:
            raise ValueError("square matrix required")
        if r == 0:
            return 1
        a = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(r - 1):
            if a[k][k] == 0:
                for i in range(k + 1, r):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, r):
                for j in range(k + 1, r):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[r - 1][r - 1]


# ---------------------------------------------------------------------------
# Smith normal form


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


def _xgcd(x, y):
    """(g, s, t) with s*x + t*y = g = gcd(x, y) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if x < 0:
        return -x, -s0, -t0
    return x, s0, t0


def _mix(x, y, s, t, p, q):
    # (x, y) -> (s*x + t*y, p*x + q*y), elementwise
    return [s * a + t * b for a, b in zip(x, y)], [p * a + q * b for a, b in zip(x, y)]


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


def smith_normal_form(m: IntMatrix):
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


def kernel_basis(m: IntMatrix):
    """Basis of the integer kernel {x : m x = 0}, as a list of column tuples.
    The basis spans a saturated sublattice since V is unimodular."""
    r, c = m.shape
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(r, c)) if d.at(i, i) != 0)
    return [v.column(j) for j in range(rank, c)]


def _gauss_jordan(a, n):
    """Reduce the Fraction rows a in place until their first n columns are
    the identity on top of zero rows; ValueError if those columns are
    linearly dependent."""
    for col in range(n):
        piv = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(len(a)):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return a


def solve_rational(rows, b):
    """Solve rows * x = b exactly over Q: at least as many rows as unknowns,
    linearly independent columns (ValueError otherwise), and b in their span
    (ValueError otherwise)."""
    n = len(rows[0]) if rows else 0
    a = _gauss_jordan([[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(rows, b)], n)
    if any(a[r][n] for r in range(n, len(a))):
        raise ValueError("inconsistent system")
    return tuple(a[r][n] for r in range(n))


def inverse_rational(rows):
    """(den, inv) with rows^-1 = inv / den over Q: inv integer rows, den > 0
    the least common denominator. One Gauss-Jordan pass on [rows | I];
    ValueError for a singular matrix."""
    n = len(rows)
    a = _gauss_jordan(
        [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)], n
    )
    den = lcm(1, *(x.denominator for row in a for x in row[n:]))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row[n:]) for row in a)


def rref_mod(rows, l, ncols):
    """Gauss-Jordan over Z/l on the first ncols columns of rows, pivoting
    on units: for l prime every nonzero entry, for l = p^k the entries prime
    to p. Returns (a, pivots): a is a reduced copy, entries in [0, l), and
    row i of a has a 1 in column pivots[i], the only nonzero entry of that
    column; the rows from len(pivots) on hold no unit in the first ncols
    columns (they vanish there when l is prime)."""
    a = [[x % l for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        row = len(pivots)
        pr = next((r for r in range(row, len(a)) if gcd(a[r][c], l) == 1), None)
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        inv = pow(a[row][c], -1, l)
        prow = a[row] = [x * inv % l for x in a[row]]
        for r in range(len(a)):
            f = a[r][c]
            if f and r != row:
                a[r] = [(x - f * y) % l for x, y in zip(a[r], prow)]
        pivots.append(c)
    return a, pivots


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


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


class FinAbGroup:
    """Z^free_rank + Z/d_1 + ... + Z/d_k with 2 <= d_1 | d_2 | ... | d_k.

    Elements are coordinate tuples over the torsion factors (free part only
    enters through free_rank bookkeeping; iteration requires free_rank 0).
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        torsion = tuple(int(d) for d in torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        self.free_rank = int(free_rank)
        self.torsion = torsion

    @property
    def order(self):
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def zero(self):
        return (0,) * len(self.torsion)

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.torsion))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.torsion))

    def scale(self, k, a):
        return tuple((k * x) % d for x, d in zip(a, self.torsion))

    def serialize(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __eq__(self, other):
        return (
            isinstance(other, FinAbGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


class CokernelPresentation:
    """Cokernel Z^r / im(m) of an integer matrix m: Z^c -> Z^r, with explicit
    coordinates coming from the Smith transform U."""

    def __init__(self, m: IntMatrix):
        r, c = m.shape
        u, d, _ = smith_normal_form(m)
        self.U, self.D = u, d
        diag = [d.at(i, i) for i in range(min(r, c))]
        self.torsion_indices = [i for i, di in enumerate(diag) if di >= 2]
        self.free_indices = [i for i, di in enumerate(diag) if di == 0] + list(range(min(r, c), r))
        self.group = FinAbGroup(
            free_rank=len(self.free_indices),
            torsion=tuple(diag[i] for i in self.torsion_indices),
        )

    def torsion_coords(self, y):
        """Torsion coordinates of the class of y in Z^r."""
        w = self.U.apply(tuple(y))
        return tuple(w[i] % self.D.at(i, i) for i in self.torsion_indices)

    def free_coords(self, y):
        w = self.U.apply(tuple(y))
        return tuple(w[i] for i in self.free_indices)

    def class_of(self, y):
        return self.torsion_coords(y) + self.free_coords(y)


def cokernel_group(m: IntMatrix) -> CokernelPresentation:
    """Cokernel of m as a presented finitely generated abelian group."""
    return CokernelPresentation(m)


def abelian_subgroup_type(elements, add, zero):
    """Invariant factors of a finite abelian group given as an explicit set of
    elements with an addition law. Works by matching order statistics: for a
    group of type (d_1, ..., d_k) the count of x with m*x = 0 is the product
    of gcd(d_i, m)."""
    elems = list(elements)
    n = len(elems)
    if n == 1:
        return FinAbGroup()

    orders = [element_order(add, zero, x, n) for x in elems]
    exponent = 1
    for o in orders:
        exponent = lcm(exponent, o)

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
