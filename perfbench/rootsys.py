"""Root systems computed from first principles, for inputs and checks.

Nothing here imports liechar. Cartan matrices come from explicit Euclidean
simple roots (Bourbaki numbering), positive roots from root strings, and
lattice coordinates follow the conventions of liechar's constructed data:
for the simply connected isogeny X is the weight lattice and the simple
coroots are unit vectors of Y; for the adjoint isogeny X is the root lattice
and simple coroot j has coordinates row j of the Cartan matrix.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

_TYPE_RE = re.compile(r"([A-G])(\d+)$")
_EXCEPTIONAL_ROOTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}


def _unit(i, dim, scale=1):
    v = [Fraction(0)] * dim
    v[i] = Fraction(scale)
    return v


def _diff(i, j, dim):
    v = _unit(i, dim)
    v[j] -= 1
    return v


def euclidean_simple_roots(series, rank):
    """Simple roots as vectors in R^m, in Bourbaki order."""
    n = rank
    chain = lambda dim: [_diff(i, i + 1, dim) for i in range(n - 1)]  # noqa: E731
    if series == "A":
        return [_diff(i, i + 1, n + 1) for i in range(n)]
    if series == "B":
        return chain(n) + [_unit(n - 1, n)]
    if series == "C":
        return chain(n) + [_unit(n - 1, n, 2)]
    if series == "D":
        last = _unit(n - 2, n)
        last[n - 1] = Fraction(1)
        return chain(n) + [last]
    if series == "G" and n == 2:
        return [[1, -1, 0], [-2, 1, 1]]
    if series == "F" and n == 4:
        h = Fraction(1, 2)
        return [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [h, -h, -h, -h]]
    if series == "E" and n in (6, 7, 8):
        h = Fraction(1, 2)
        e8 = [[h, -h, -h, -h, -h, -h, -h, h], _unit(0, 8)]
        e8[1][1] = Fraction(1)
        e8 += [_diff(k - 1, k - 2, 8) for k in range(2, 8)]
        return e8[:n]
    raise ValueError(f"no simple type {series}{rank}")


def _ip(x, y):
    return sum(Fraction(a) * b for a, b in zip(x, y))


@lru_cache(maxsize=None)
def cartan(series, rank):
    """C[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)."""
    s = euclidean_simple_roots(series, rank)
    out = []
    for ai in s:
        row = []
        for aj in s:
            v = 2 * _ip(aj, ai) / _ip(ai, ai)
            if v.denominator != 1:
                raise AssertionError("non-integral Cartan entry")
            row.append(int(v))
        out.append(tuple(row))
    return tuple(out)


def transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m)))


def det(m):
    """Exact determinant by fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(d)


def rank_of(vectors, dim):
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def solve(m, b):
    """x with m x = b, m square and invertible, exact."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(m, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


@lru_cache(maxsize=None)
def positive_roots(cmat):
    """Positive roots, as simple-root coefficient tuples, of the system with
    Cartan matrix cmat, built height by height from alpha-strings:
    beta + alpha_i is a root iff r - <beta, alpha_i^vee> > 0, where r is the
    largest r with beta - r alpha_i a root."""
    n = len(cmat)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    layer = simple
    while layer:
        nxt = []
        for b in layer:
            for i in range(n):
                pairing = sum(b[j] * cmat[i][j] for j in range(n))
                r = 0
                while True:
                    down = list(b)
                    down[i] -= r + 1
                    if tuple(down) in roots:
                        r += 1
                    else:
                        break
                if r - pairing > 0:
                    up = list(b)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def dual_marks(series, rank):
    """Marks of the extended diagram of the dual system: 1 for the affine
    node, then the coefficients of the highest root of the system with
    Cartan matrix C^T (the coroots)."""
    pos = positive_roots(transpose(cartan(series, rank)))
    return (1,) + pos[-1]


def closed_form(type_str):
    """(root count, rank) of a type string such as 'A1+A1' or 'E7'; '0' is empty."""
    if type_str == "0":
        return 0, 0
    roots = rank = 0
    for comp in type_str.split("+"):
        m = _TYPE_RE.match(comp)
        if not m:
            raise ValueError(f"unparseable type {type_str!r}")
        s, n = m.group(1), int(m.group(2))
        if (s, n) in _EXCEPTIONAL_ROOTS:
            roots += _EXCEPTIONAL_ROOTS[(s, n)]
        elif s == "A":
            roots += n * (n + 1)
        elif s in "BC":
            roots += 2 * n * n
        elif s == "D":
            roots += 2 * n * (n - 1)
        else:
            raise ValueError(f"no closed form for {comp!r}")
        rank += n
    return roots, rank


def dual_roots_in_y(series, rank, isogeny):
    """All coroots of the datum, in the coordinates of Y (the lattice that
    kappa pairs against)."""
    c = cartan(series, rank)
    pos = positive_roots(transpose(c))
    if isogeny == "sc":
        coords = [tuple(v) for v in pos]
    else:
        coords = [tuple(sum(v[j] * c[j][k] for j in range(rank)) for k in range(rank)) for v in pos]
    return coords + [tuple(-x for x in v) for v in coords]


def integral_roots(series, rank, isogeny, kappa):
    """Coroots pairing integrally with kappa, and the lcm of all pairing
    denominators (the order of exp(2 pi i kappa) in the adjoint dual torus)."""
    out = []
    order = 1
    for v in dual_roots_in_y(series, rank, isogeny):
        p = sum(Fraction(a) * b for a, b in zip(v, kappa))
        order = lcm(order, p.denominator)
        if p.denominator == 1:
            out.append(v)
    return out, order


def alcove_vertex(series, rank, isogeny, node):
    """The alcove vertex of the dual attached to extended-diagram node
    (node >= 1): omega_node / mark, in X tensor Q coordinates."""
    c = cartan(series, rank)
    e = [1 if k == node - 1 else 0 for k in range(rank)]
    w = e if isogeny == "sc" else solve(c, e)
    mark = dual_marks(series, rank)[node]
    return [Fraction(x) / mark for x in w]
