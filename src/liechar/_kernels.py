"""Packed 2 x 2 matrix arithmetic over any FiniteField, by table lookup.

A matrix [[a, b], [c, d]] over F_q is packed into the int
a + b q + c q^2 + d q^3 of its field codes (the encoding of FiniteField).
Its first row is the two-digit code m % q^2, its second row m // q^2, and
its columns the two-digit codes a + c q and b + d q. This module is the one
place that knows the layout: every code is built and read here, by `pack`
and `unpack` (which refuse an entry that is not a field code and a code
outside 0 .. q^4 - 1), `shear`, `is_scalar`, the element and Lie point
lists (`matrices`, `lie_points`) and the kernels below, so `finite_lie` and
`dl_spectra` handle codes without reading their digits. `Tables` holds, for
one field:

- dot[r q^2 + c], the field code of r0 c0 + r1 c1 for the two-digit codes
  r = r0 + r1 q and c = c0 + c1 q (q^4 bytes), built one block of q
  entries per `bytes.translate` (q^3 calls);
- col0[m] and col1[m], the codes of the first and second column of m
  (q^4 bytes each);
- add[x q + y], neg[x] and inv[x] on single field codes.

add and neg are the field's own tables, and the rest is built from them and
the field's mul (q^2 calls), so every result is the exact field arithmetic;
a product is then one divmod and six lookups. Many products by one right
factor y are one row map (`right_products`): y sends each row code r to the
row code of r y, q^2 dot lookups, and every first row and every second row
of the left factors is then mapped by one `bytes.translate`. An orbit under
conjugation is one closure (`_conjugates`): it reads the rows of each
generator g and the columns of g^-1 once, so a conjugate g x g^-1 costs
two column lookups and eight dot lookups. A partition into orbits, the
conjugacy classes or the adjoint orbits, is one `orbit_of` per orbit
(`conjugacy_partition`). The field bounds q by its MAX_Q = 16, so a row or
column code, below q^2 <= 256, fits one byte. Each group builds its own
Tables once, over its own field.
"""
from itertools import compress
from operator import add

BACKEND = "python"  # recorded with every benchmark run


class Tables:
    """Lookup tables of 2 x 2 matrix arithmetic over one field (see the
    module docstring)."""

    __slots__ = ("q", "q2", "q3", "dot", "col0", "col1", "add", "neg", "inv")

    def __init__(self, field):
        q = field.q
        q2 = q * q
        codes = range(q)
        add = field.add_table
        prod = [bytes(field.mul(x, y) for y in codes) for x in codes]
        # column y of add, x -> x + y, as a translate table
        plus = [add[y::q] + bytes(256 - q) for y in codes]
        # the block c1 of row (r0, r1) is r0 c0 + r1 c1 over c0, one translate
        self.dot = b"".join(
            prod[r0].translate(plus[prod[r1][c1]]) for r1 in codes for r0 in codes for c1 in codes
        )
        self.q, self.q2, self.q3 = q, q2, q2 * q
        # m = m00 + m01 q + m10 q^2 + m11 q^3: col0 m00 + m10 q, col1 m01 + m11 q
        self.col0 = b"".join(bytes(range(m10 * q, m10 * q + q)) * q for m10 in codes) * q
        self.col1 = b"".join(
            b"".join(bytes([c]) * q for c in range(m11 * q, m11 * q + q)) * q for m11 in codes
        )
        self.add = add
        self.neg = field.neg_table
        self.inv = bytes([0] + [field.inv(x) for x in range(1, q)])


def pack(rows, t):
    """The code of [[a, b], [c, d]], rows of field codes. An entry that is
    not an int in 0 .. q - 1 (a bool included) is refused, as no reduction
    of it is the field's arithmetic when q is not prime."""
    q = t.q
    (a, b), (c, d) = rows
    for x in (a, b, c, d):
        if type(x) is not int or not 0 <= x < q:
            raise ValueError(f"{x!r} is not a field code of F_{q}")
    return a + q * b + t.q2 * c + t.q3 * d


def unpack(m, t):
    """The rows [[a, b], [c, d]] of a code; anything but an int in 0 ..
    q^4 - 1 is refused."""
    q, q2 = t.q, t.q2
    if type(m) is not int or not 0 <= m < q2 * q2:
        raise ValueError(f"{m!r} is not a matrix code over F_{q}")
    r1, r0 = divmod(m, q2)
    (b, a), (d, c) = divmod(r0, q), divmod(r1, q)
    return [[a, b], [c, d]]


def shear(c, t):
    """The code of [[1, c], [0, 1]], c a field code."""
    return 1 + c * t.q + t.q3


def is_scalar(m, t):
    """Whether m is x I for a field code x, the code x (1 + q^3)."""
    return m == m % t.q * (1 + t.q3)


def matrices(t, det_one):
    """Every invertible matrix, or with det_one every one of determinant 1,
    in ascending code order. For the second row r1 = m10 + q m11, det is the
    first row r0 dotted with (m11, -m10), so the determinants of all q^2
    first rows are one slice of dot."""
    q, q2 = t.q, t.q2
    out = []
    for r1 in range(q2):
        m11, m10 = divmod(r1, q)
        dets = t.dot[m11 + t.neg[m10] * q :: q2]
        out.extend(compress(range(r1 * q2, r1 * q2 + q2), (d == 1 for d in dets) if det_one else dets))
    return tuple(out)


def lie_points(t, traceless):
    """Every matrix in ascending code order, or with traceless the q^3
    matrices [[a, b], [c, -a]]."""
    q, q2, q3 = t.q, t.q2, t.q3
    if not traceless:
        return list(range(q2 * q2))
    codes = range(q)
    return sorted(a + b * q + c * q2 + t.neg[a] * q3 for a in codes for b in codes for c in codes)


def mat_mul(a, b, t):
    """Packed product ab."""
    q2, dot = t.q2, t.dot
    r1, r0 = divmod(a, q2)
    c0, c1 = t.col0[b], t.col1[b]
    r0 *= q2
    r1 *= q2
    return dot[r0 + c0] + t.q * dot[r0 + c1] + q2 * (dot[r1 + c0] + t.q * dot[r1 + c1])


def det_code(m, t):
    """Field code of det m = m00 m11 - m01 m10: the first row dotted with
    the column (m11, -m10)."""
    q = t.q
    r1, r0 = divmod(m, t.q2)
    m11, m10 = divmod(r1, q)
    return t.dot[r0 * t.q2 + m11 + t.neg[m10] * q]


def trace_code(m, t):
    """Field code of m00 + m11."""
    return t.add[m % t.q * t.q + m // t.q3]


def pairing_code(a, b, t):
    """Field code of the trace form Tr(ab): the first row of a dotted with
    the first column of b, plus the second row with the second column."""
    q2, dot = t.q2, t.dot
    r1, r0 = divmod(a, q2)
    return t.add[dot[r0 * q2 + t.col0[b]] * t.q + dot[r1 * q2 + t.col1[b]]]


def sub_scalar(m, c, t):
    """Packed m - c I, c a field code: only the diagonal digits change."""
    q, q3 = t.q, t.q3
    d, rest = divmod(m, q3)
    a = rest % q
    nc = t.neg[c]
    return rest - a + t.add[a * q + nc] + q3 * t.add[d * q + nc]


def traceless_part(m, t):
    """m - (Tr m / 2) I, the traceless projection (SL2's quasi-logarithm)."""
    half = t.inv[t.add[t.q + 1]]  # 1/(1 + 1)
    # dot[x q^2 + y] is the product x y
    return sub_scalar(m, t.dot[half * t.q2 + trace_code(m, t)], t)


def mat_inv(m, t):
    """Packed inverse, det(m)^-1 times the adjugate [[d, -b], [-c, a]].
    Raises ZeroDivisionError if det m = 0."""
    q, q2, dot, neg = t.q, t.q2, t.dot, t.neg
    r1, r0 = divmod(m, q2)
    b, a = divmod(r0, q)
    d, c = divmod(r1, q)
    det = dot[r0 * q2 + d + neg[c] * q]
    if det == 0:
        raise ZeroDivisionError("matrix not invertible")
    s = t.inv[det] * q2  # dot[s + x] is det^-1 x
    return dot[s + d] + q * dot[s + neg[b]] + q2 * (dot[s + neg[c]] + q * dot[s + a])


def right_products(xs, ys, t):
    """For each packed y in ys, the list of the packed products x y, x in
    xs. Row r of x goes to the row r y, a map of the q^2 row codes (a
    permutation when y is invertible) kept as one 256-byte table, so the
    first rows of all x are one `bytes.translate`, the second rows another."""
    q, q2, dot, col0, col1 = t.q, t.q2, t.dot, t.col0, t.col1
    pad = bytes(256 - q2)
    high = [r * q2 for r in range(q2)]
    first = bytes(x % q2 for x in xs)
    second = bytes(x // q2 for x in xs)
    for y in ys:
        c0, c1 = col0[y], col1[y]
        # dot[c::q2][r] is row r dotted with the column c of y
        row = bytes(map(add, dot[c0::q2], map(q.__mul__, dot[c1::q2]))) + pad
        yield list(map(add, first.translate(row), map(high.__getitem__, second.translate(row))))


def _conjugates(seed, gens, t):
    """The set of conjugates g x g^-1 of a packed matrix x, g in <gens>
    (packed, invertible). Each step is (g x) g^-1: the rows of g dotted with
    the columns of x, then those rows with the columns h0, h1 of g^-1."""
    q, q2, dot, col0, col1 = t.q, t.q2, t.dot, t.col0, t.col1
    steps = []
    for g in gens:
        g1, g0 = divmod(g, q2)
        h = mat_inv(g, t)
        steps.append((g0 * q2, g1 * q2, col0[h], col1[h]))
    seen = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        c0, c1 = col0[x], col1[x]
        for g0, g1, h0, h1 in steps:
            r0 = (dot[g0 + c0] + q * dot[g0 + c1]) * q2
            r1 = (dot[g1 + c0] + q * dot[g1 + c1]) * q2
            y = dot[r0 + h0] + q * dot[r0 + h1] + q2 * (dot[r1 + h0] + q * dot[r1 + h1])
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def orbit_of(seed, gens, t):
    """Sorted tuple of the orbit of a packed matrix under conjugation by the
    group generated by gens (packed, invertible)."""
    return tuple(sorted(_conjugates(seed, gens, t)))


def conjugacy_partition(points, gens, t):
    """The orbits of conjugation by <gens> on points, each a sorted tuple
    (`orbit_of`), in order of their first point: one orbit per point not in
    an earlier one. The point list must be closed under conjugation."""
    members = set(points)
    seen = set()
    orbits = []
    for x in points:
        if x in seen:
            continue
        orbit = orbit_of(x, gens, t)
        if not members.issuperset(orbit):
            raise ValueError("element set not closed under conjugation")
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def pair_histogram(fixed, space, t):
    """counts[c] = the number of packed y in space with Tr(fixed y) = c, c a
    field code."""
    q, q2, dot, add, col0, col1 = t.q, t.q2, t.dot, t.add, t.col0, t.col1
    r1, r0 = divmod(fixed, q2)
    r0 *= q2
    r1 *= q2
    counts = [0] * q
    for y in space:
        counts[add[dot[r0 + col0[y]] * q + dot[r1 + col1[y]]]] += 1
    return counts
