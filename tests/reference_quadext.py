"""The entry-wise finite-side arithmetic that liechar used before the
quadratic extension and the quasi-logarithm moved onto the packed 2 x 2
tables, kept as an oracle for tests/test_quadext.py: the extension F_q^2
coded x + q y with its own products through FiniteField, the quasi-logarithm
subtracting entry by entry, and the class shapes found from the
discriminant and a search for the elliptic eigenvalue."""


class QuadExt:
    """The quadratic extension F_q(sqrt(eps)), eps the canonical non-residue.

    Elements are coded as x + q*y for x + y*sqrt(eps).  The class records
    discrete logarithms for the full multiplicative group and for its
    norm-one subgroup; both are cyclic, of orders q^2 - 1 and q + 1.
    """

    def __init__(self, field):
        self.field = field
        self.q = field.q
        self.eps = field.non_residue
        self.order = self.q * self.q - 1
        gen = None
        for cand in range(2, self.q * self.q):
            if self._order_of(cand) == self.order:
                gen = cand
                break
        if gen is None:
            raise AssertionError("no generator of the quadratic extension")
        self.gen = gen
        self.log = {}
        acc = 1
        for k in range(self.order):
            self.log[acc] = k
            acc = self.mul(acc, gen)
        if acc != 1 or len(self.log) != self.order:
            raise AssertionError("generator order is wrong")
        self.norm_one_gen = self.pow(gen, self.q - 1)
        self.norm_one_log = {}
        acc = 1
        for k in range(self.q + 1):
            self.norm_one_log[acc] = k
            acc = self.mul(acc, self.norm_one_gen)
        if acc != 1:
            raise AssertionError("norm-one generator order is wrong")

    def split(self, a):
        return a % self.q, a // self.q

    def mul(self, a, b):
        fld = self.field
        x1, y1 = self.split(a)
        x2, y2 = self.split(b)
        x = fld.add(fld.mul(x1, x2), fld.mul(self.eps, fld.mul(y1, y2)))
        y = fld.add(fld.mul(x1, y2), fld.mul(y1, x2))
        return x + self.q * y

    def pow(self, a, k):
        out, base = 1, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def norm(self, a):
        """x^2 - eps*y^2 as a base field code."""
        fld = self.field
        x, y = self.split(a)
        return fld.sub(fld.mul(x, x), fld.mul(self.eps, fld.mul(y, y)))

    def _order_of(self, a):
        acc, k = a, 1
        while acc != 1:
            acc = self.mul(acc, a)
            k += 1
            if k > self.order:
                raise AssertionError("element order exceeds the group order")
        return k


def quasi_logarithm(g_group, g):
    """g - 1 for GL2, (g - 1) - (Tr(g - 1)/2) Id for SL2, entry by entry."""
    if g not in g_group._members:
        raise ValueError("not a group element")
    fld = g_group.field
    m = g_group.unpack(g)
    n = 2
    y = [[fld.sub(m[i][j], 1 if i == j else 0) for j in range(n)] for i in range(n)]
    if g_group.kind == "GL2":
        return g_group.pack(y)
    tr = 0
    for i in range(n):
        tr = fld.add(tr, y[i][i])
    c = fld.mul(tr, fld.inv(n % fld.p))
    for i in range(n):
        y[i][i] = fld.sub(y[i][i], c)
    return g_group.pack(y)


def _field_sqrt(field, a):
    for c in range(field.q):
        if field.mul(c, c) == a:
            return c
    return None


def class_shapes(g, cd, ext):
    """Shapes of the classes cd of g, in class order; elliptic eigenvalues
    are codes of ext, a QuadExt over g's field."""
    fld = g.field
    q = g.q
    four = 4 % fld.p
    inv2 = fld.inv(2 % fld.p)
    shapes = []
    for rep, mem in zip(cd.reps, cd.members):
        m = g.unpack(rep)
        tr = fld.add(m[0][0], m[1][1])
        det = g.det_code(rep)
        if m[0][1] == 0 and m[1][0] == 0 and m[0][0] == m[1][1]:
            shapes.append({"family": "central", "x": m[0][0]})
            continue
        disc = fld.sub(fld.mul(tr, tr), fld.mul(four, det))
        if disc == 0:
            x = fld.mul(tr, inv2)
            usq = None
            if g.kind == "SL2":
                for y in mem:
                    my = g.unpack(y)
                    if my[1][0] == 0 and my[0][1] != 0:
                        usq = fld.is_square(fld.mul(fld.inv(x), my[0][1]))
                        break
            shapes.append({"family": "jordan", "x": x, "unit_square": usq})
            continue
        root = _field_sqrt(fld, disc)
        if root is not None:
            x = fld.mul(fld.add(tr, root), inv2)
            y = fld.mul(fld.sub(tr, root), inv2)
            shapes.append({"family": "split", "x": min(x, y), "y": max(x, y)})
            continue
        z = None
        for cand in range(q, q * q):
            lhs = ext.mul(cand, cand)
            val_x = fld.add(fld.sub(lhs % q, fld.mul(tr, cand % q)), det)
            val_y = fld.sub(lhs // q, fld.mul(tr, cand // q))
            if val_x == 0 and val_y == 0:
                z = cand
                break
        shapes.append(
            {
                "family": "elliptic",
                "z": z,
                "norm_one_log": ext.norm_one_log.get(z),
            }
        )
    return shapes
