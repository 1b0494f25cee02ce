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
a product is then two divmods and five lookups. The field bounds q by its
MAX_Q, so a packed matrix fits the unsigned shorts of the transpose table.
`tables` keeps them on the field (see `exact_math.cached`), so the groups
over one field share them.
"""

from array import array

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


def orbit_of(seed, gens, t):
    """Sorted tuple of the orbit of a packed matrix under conjugation by the
    group generated by gens (packed, invertible)."""
    pairs = [(g, mat_inv(g, t)) for g in gens]
    seen = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        for g, gi in pairs:
            y = mat_mul(mat_mul(g, x, t), gi, t)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return tuple(sorted(seen))


def conjugacy_partition(elements, gens, t):
    """Class labels, aligned with elements, for conjugation by <gens>.
    Labels count up in order of the first element of each class. The element
    list must be closed under conjugation."""
    index = {e: i for i, e in enumerate(elements)}
    labels = [-1] * len(elements)
    pairs = [(g, mat_inv(g, t)) for g in gens]
    next_label = 0
    for i, e in enumerate(elements):
        if labels[i] >= 0:
            continue
        labels[i] = next_label
        stack = [e]
        while stack:
            x = stack.pop()
            for g, gi in pairs:
                y = mat_mul(mat_mul(g, x, t), gi, t)
                j = index.get(y)
                if j is None:
                    raise ValueError("element set not closed under conjugation")
                if labels[j] < 0:
                    labels[j] = next_label
                    stack.append(y)
        next_label += 1
    return labels


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
