"""Arbitrary-precision integer matrices, Smith normal form with transforms,
row reduction over Q and over Z/l (l prime), and finitely generated abelian
groups presented by invariant factors.

All matrices are immutable, row-major tuples of tuples of Python ints.
Elimination over Z is one routine, Bareiss's fraction-free Gauss-Jordan on
integer rows (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968), in which
every entry is a minor of the input and every division is exact. The one
pass serves `IntMatrix.det` (its last pivot, signed by its row swaps) and
`inverse_rational`, which forms no Fraction: it returns integer rows over
one denominator. The Smith normal form clears rows with one unimodular
routine, `_clear`, and clears columns with the same routine on the
transposes of the matrix and of V.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul

from .orders import powers
from .primes import prime_factors
from .refusal import Refusal


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if any(type(x) is not int for r in rows for x in r):
            raise ValueError("entries must be integers")
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise Refusal("ragged", "ragged rows")
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

    def columns(self):
        return list(zip(*self.rows))

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
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        ocols = other.columns()
        return IntMatrix(
            tuple(tuple(sum(map(mul, row, col)) for col in ocols) for row in self.rows)
        )

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def det(self):
        """Exact determinant, read off the one Bareiss pass
        `_gauss_jordan`: its last pivot times the sign of its row swaps, and
        0 when it finds the columns dependent."""
        r, c = self.shape
        if r != c:
            raise ValueError("square matrix required")
        try:
            p, sign = _gauss_jordan([list(row) for row in self.rows], r)
        except ValueError:
            return 0
        return sign * p


# ---------------------------------------------------------------------------
# Smith normal form


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


def _clear(a, u, t):
    """Zero column t of a below the pivot a[t][t] by unimodular row
    operations on a and u, rows in order. A multiple of the pivot is cleared
    by subtracting a multiple of row t; any other entry x by a 2x2
    extended-gcd transform, which makes the pivot gcd(pivot, x), a proper
    divisor of it. True when it made such a transform."""
    moved = False
    for i in range(t + 1, len(a)):
        p, x = a[t][t], a[i][t]
        if x % p:
            g, s, w = _xgcd(p, x)
            # [[s, w], [-x/g, p/g]] has determinant (s*p + w*x)/g = 1
            a[t], a[i] = _mix(a[t], a[i], s, w, -x // g, p // g)
            u[t], u[i] = _mix(u[t], u[i], s, w, -x // g, p // g)
            moved = True
        elif x:
            q = x // p
            a[i] = [y - q * z for y, z in zip(a[i], a[t])]
            u[i] = [y - q * z for y, z in zip(u[i], u[t])]
    return moved


def smith_normal_form(m: IntMatrix):
    """Return (U, D, V) with U*m*V = D, U and V unimodular, D diagonal with
    nonnegative entries d_1 | d_2 | ... .

    Stage t seats the least-magnitude nonzero entry of the trailing block,
    the first in row order, as the pivot. `_clear` zeroes column t below it
    by row operations on m and U; the same routine on the transposes of m
    and of V, which is kept transposed, zeroes row t right of it by column
    operations. Exact multiples of the pivot are cleared by subtraction, the
    other entries by a 2x2 extended-gcd transform that replaces the pivot
    with the gcd, a proper divisor of the pivot. A transform in the row-t
    phase may refill column t and restarts the stage; once both are clear,
    the first row of the trailing block that the pivot does not divide is
    added to row t. Each stage therefore makes at most log2(|pivot|) gcd
    transforms and ends.
    """
    r, c = m.shape
    a = [list(row) for row in m.rows]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    vt = [[int(i == j) for j in range(c)] for i in range(c)]
    for t in range(min(r, c)):
        block = [(abs(x), i, j) for i in range(t, r) for j, x in enumerate(a[i][t:], t) if x]
        if not block:
            break
        _, pi, pj = min(block)
        a[t], a[pi], u[t], u[pi] = a[pi], a[t], u[pi], u[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        vt[t], vt[pj] = vt[pj], vt[t]
        while True:
            _clear(a, u, t)
            if any(a[t][t + 1 :]):
                at = [list(col) for col in zip(*a)]
                moved = _clear(at, vt, t)
                a = [list(row) for row in zip(*at)]
                if moved:  # the new pivot may have refilled column t
                    continue
            # the pivot must divide the trailing block, else the first bad row joins row t
            bad = next((i for i in range(t + 1, r) if any(x % a[t][t] for x in a[i][t + 1 :])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    U, D, V = IntMatrix(u), IntMatrix(a), IntMatrix(zip(*vt))
    if U * m * V != D:
        raise AssertionError("SNF transform identity failed")
    diag = [a[i][i] for i in range(min(r, c))]
    if (
        any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)
        or any(x < 0 for x in diag)
        or any(y % x if x else y for x, y in zip(diag, diag[1:]))
    ):
        raise AssertionError("SNF shape check failed: D is not diagonal with 0 <= d_1 | d_2 | ...")
    return U, D, V


def _gauss_jordan(a, n):
    """Fraction-free (Bareiss) Gauss-Jordan on the integer rows a, in place,
    over their first n columns; returns (p, sign), p the last pivot and sign
    = (-1)^(number of row swaps).

    Step c takes the pivot p from row c (after a swap) and replaces every
    other row r by (a[r] * p - a[r][c] * a[c]) // prev, prev the pivot of
    step c - 1 (1 before the first). By Sylvester's identity every entry is
    then a minor of the input, so each division is exact, and the integers
    grow only as minors do. At the end the first n columns of a[:n] are
    p times the identity, p = +-det of those rows, and sign * p is their
    determinant; columns past n, such as the identity that
    `inverse_rational` appends, are carried along, and rows past n, which
    an overdetermined system would add, end zero in the first n columns.
    ValueError if the first n columns are linearly dependent."""
    prev, sign = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, len(a)) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        prow = a[col]
        p = prow[col]
        for r, row in enumerate(a):
            if r == col:
                continue
            f = row[col]
            if f:
                a[r] = [(x * p - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                a[r] = [x * p // prev for x in row]
        prev = p
    return prev, sign


def inverse_rational(rows):
    """(den, inv) with rows^-1 = inv / den over Q: inv integer rows, den > 0
    the least common denominator. One fraction-free Gauss-Jordan pass on
    [rows | I] leaves [p I | adj] with rows^-1 = adj / p, reduced by one gcd;
    ValueError for a singular matrix."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    p, _ = _gauss_jordan(a, n)
    g = gcd(p, *(x for row in a for x in row[n:]))
    if p < 0:
        g = -g
    return p // g, tuple(tuple(x // g for x in row[n:]) for row in a)


def rref_mod(rows, l, ncols):
    """Gauss-Jordan over the prime field F_l on the first ncols columns of
    rows, each column pivoting on its first nonzero entry below the pivots
    already found. Returns (a, pivots): a is a reduced copy, entries in [0,
    l), and row i of a has a 1 in column pivots[i], the only nonzero entry
    of that column; the rows from len(pivots) on vanish in the first ncols
    columns."""
    a = [[x % l for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        row = len(pivots)
        pr = next((r for r in range(row, len(a)) if a[r][c]), None)
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
    elements with an addition law, read off its order statistics. For a
    group of type (d_1, ..., d_k), a prime p and j >= 1, the number of x with
    p^j x = 0 is the product of gcd(d_i, p^j), so its ratio to the number at
    p^(j - 1) is p^e_j, e_j the number of d_i divisible by p^j. The i-th
    largest factor (from i = 0) thus has p-part p^#{j : e_j > i}. A ratio
    that is not a power of p, or factors whose product is not the number of
    elements, raise AssertionError."""
    elems = list(elements)
    n = len(elems)
    orders = [len(powers(add, zero, x, n)) for x in elems]
    factors = []  # largest first
    for p in prime_factors(n):
        ranks, killed, pj = [], 1, p  # killed = #{x : p^(j - 1) x = 0}, pj = p^j
        while True:
            count = sum(1 for o in orders if pj % o == 0)
            e, pe = 0, killed
            while pe < count:
                pe, e = pe * p, e + 1
            if pe != count:
                raise AssertionError(f"{count} / {killed} elements is not a power of {p}")
            if not e:
                break
            ranks.append(e)
            killed, pj = count, pj * p
        top = max(ranks, default=0)  # e_1, the number of d_i divisible by p
        factors += [1] * (top - len(factors))
        for i in range(top):
            factors[i] *= p ** sum(1 for k in ranks if k > i)
    if prod(factors) != n:
        raise AssertionError(f"invariant factors {factors} do not multiply to {n} elements")
    return FinAbGroup(torsion=factors[::-1])
