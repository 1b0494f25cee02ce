"""Packed 2 x 2 matrix arithmetic over any FiniteField, by table lookup.

A matrix [[a, b], [c, d]] over F_q is packed into the int
a + b q + c q^2 + d q^3 of its field codes (the encoding of FiniteField).
Its first row is the two-digit code m % q^2, its second row m // q^2, and
the columns are the rows of the transpose. `Tables` holds, for one field:

- dot[r q^2 + c], the field code of r0 c0 + r1 c1 for the two-digit codes
  r = r0 + r1 q and c = c0 + c1 q (q^4 bytes);
- transpose[m], the packed transpose of m (q^4 unsigned shorts);
- add[x q + y], neg[x] and inv[x] on single field codes.

add and neg are the field's own tables, and the rest is built from them and
the field's mul (q^2 calls), so every result is the exact field arithmetic;
a product is then two divmods and five lookups. Many products by one right
factor y are one row map (`right_products`): y sends each row code r to the
row code of r y, q^2 dot lookups, and every first row and every second row
of the left factors is then mapped by one `bytes.translate`. An orbit under
conjugation is one closure (`_conjugates`): it reads the rows of each
generator g and the columns of g^-1 once, so a conjugate g x g^-1 costs
one transpose lookup, one divmod and eight dot lookups. A partition into
orbits, the conjugacy classes or the adjoint orbits, is one `orbit_of` per
orbit (`conjugacy_partition`). The field bounds q by its MAX_Q = 16, so a
packed matrix fits the unsigned shorts of the transpose table and a row
code, below q^2 <= 256, one byte. `tables` keeps them on the field (see
`exact_math.cached`), so the groups over one field share them.
"""

from array import array
from operator import add

from .exact_math import cached

BACKEND = "python"  # recorded with every benchmark run


class Tables:
    """Lookup tables of 2 x 2 matrix arithmetic over one field (see the
    module docstring)."""

    __slots__ = ("q", "q2", "q3", "dot", "transpose", "add", "neg", "inv")

    def __init__(self, field):
        q = field.q
        q2 = q * q
        codes = range(q)
        prod = [field.mul(x, y) for x in codes for y in codes]
        add = field.add_table
        dot = bytearray()
        for r1 in codes:
            for r0 in codes:
                a, b = prod[r0 * q : r0 * q + q], prod[r1 * q : r1 * q + q]
                dot += bytes(add[a[c0] * q + b[c1]] for c1 in codes for c0 in codes)
        self.q, self.q2, self.q3 = q, q2, q2 * q
        self.dot = bytes(dot)
        self.transpose = array(
            "H",
            (
                x00 + x10 * q + x01 * q2 + x11 * self.q3
                for x11 in codes
                for x10 in codes
                for x01 in codes
                for x00 in codes
            ),
        )
        self.add = add
        self.neg = field.neg_table
        self.inv = bytes([0] + [field.inv(x) for x in range(1, q)])


def tables(field):
    """The field's Tables."""
    return cached(field, "mat2", Tables)


def mat_mul(a, b, t):
    """Packed product ab."""
    q2, dot = t.q2, t.dot
    r1, r0 = divmod(a, q2)
    c1, c0 = divmod(t.transpose[b], q2)
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
    c1, c0 = divmod(t.transpose[b], q2)
    return t.add[dot[r0 * q2 + c0] * t.q + dot[r1 * q2 + c1]]


def sub_scalar(m, c, t):
    """Packed m - c I, c a field code: only the diagonal digits change."""
    q, q3 = t.q, t.q3
    d, rest = divmod(m, q3)
    a = rest % q
    nc = t.neg[c]
    return rest - a + t.add[a * q + nc] + q3 * t.add[d * q + nc]


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
    q, q2, dot, tr = t.q, t.q2, t.dot, t.transpose
    pad = bytes(256 - q2)
    high = [r * q2 for r in range(q2)]
    first = bytes(x % q2 for x in xs)
    second = bytes(x // q2 for x in xs)
    for y in ys:
        c1, c0 = divmod(tr[y], q2)
        # dot[c::q2][r] is row r dotted with the column c of y
        row = bytes(map(add, dot[c0::q2], map(q.__mul__, dot[c1::q2]))) + pad
        yield list(map(add, first.translate(row), map(high.__getitem__, second.translate(row))))


def _conjugates(seed, gens, t):
    """The set of conjugates g x g^-1 of a packed matrix x, g in <gens>
    (packed, invertible). Each step is (g x) g^-1: the rows of g dotted with
    the columns of x, then those rows with the columns h0, h1 of g^-1."""
    q, q2, dot, tr = t.q, t.q2, t.dot, t.transpose
    steps = []
    for g in gens:
        g1, g0 = divmod(g, q2)
        h1, h0 = divmod(tr[mat_inv(g, t)], q2)
        steps.append((g0 * q2, g1 * q2, h0, h1))
    seen = {seed}
    stack = [seed]
    while stack:
        c1, c0 = divmod(tr[stack.pop()], q2)
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
    q, q2, dot, add, tr = t.q, t.q2, t.dot, t.add, t.transpose
    r1, r0 = divmod(fixed, q2)
    r0 *= q2
    r1 *= q2
    counts = [0] * q
    for y in space:
        c1, c0 = divmod(tr[y], q2)
        counts[add[dot[r0 + c0] * q + dot[r1 + c1]]] += 1
    return counts
