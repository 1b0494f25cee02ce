"""Concrete matrix groups over finite fields: GL2 and SL2 over F_q, odd
q <= 13 (F_3, F_5, F_7, F_11, F_13 and F_9 = F_3[x]/(x^2 + 1)), with Lie
algebras, the trace pairing, quasi-logarithms, adjoint orbits, maximal tori,
regularity tests, and a dense finite Fourier transform. The quadratic
extension F_q^2 is built here as the elliptic-torus matrices, with its
discrete logarithms; the elliptic torus of GL2 is its multiplicative group
and that of SL2 its norm-one subgroup, both read off it.

Matrices are packed row-major into ints, digit (i, j) = field code of the
entry, base q. All matrix arithmetic (products, inverses, determinants,
traces, the trace pairing, the scalar shift of the quasi-logarithm,
conjugation orbits and classes) goes through `_kernels`, whose lookup tables
are built once per field; the same code serves prime q and F_9.

What is derived from a group, a torus or a field is cached on it (see
`exact_math.cached`), apart from the adjoint orbits, the one exception,
each kept under every one of its points. `build_finite_group` keeps one
object per (kind, q) and `_field_for` one field per q = p^f, so GL2 and SL2
over one q share the field and what is cached on it, F_q^2 included.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels
from .exact_math import Cyclotomic, FiniteField, cached, power, prime_factors, primitive_element

_KIND_DATA = {
    # kind: (n, lie_dim, absolute rank, f_q-rank, |Z(G^sc)|, q budget)
    "GL2": (2, 4, 2, 2, 2, 13),
    "SL2": (2, 3, 1, 1, 2, 13),
}

FOURIER_BUDGET = 6561  # largest dense LieFunction domain


@lru_cache(maxsize=None)
def _field_for(p, f):
    return FiniteField(p, f)


def _kind_data(kind, p, q):
    """The row of _KIND_DATA for kind, once q = p^f passed the kind's
    checks: the kind, the center, the budget. No field is needed, so a
    refused q builds none."""
    if kind not in _KIND_DATA:
        raise ValueError(f"unknown kind {kind!r}")
    data = _KIND_DATA[kind]
    zsc, budget = data[4:]
    if zsc % p == 0:
        raise ValueError(
            f"p = {p} divides the order {zsc} of the simply "
            f"connected center for {kind}"
        )
    if q > budget:
        raise ValueError(f"{kind} budget is q <= {budget}")
    return data


class FiniteLieGroup:
    """One of the supported matrix groups with its Lie algebra data, and
    `derived`, its cache (see `exact_math.cached`)."""

    def __init__(self, kind, field: FiniteField):
        q = field.q
        n, dim, rank, fq_rank, _, _ = _kind_data(kind, field.p, q)
        self.kind = kind
        self.field = field
        self.q = q
        self.n = n
        self.dim = dim
        self.rank = rank
        self.fq_rank = fq_rank
        self.tables = _kernels.tables(field)
        self.identity = self.pack(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )
        self.elements = self._enumerate()
        self.order = len(self.elements)
        self._members = frozenset(self.elements)
        expected = (q * q - 1) * (q * q - q) if kind == "GL2" else q * (q * q - 1)
        if self.order != expected:
            raise AssertionError("group order does not match the closed form")
        self.gens = self._generators()
        self._check_generation()
        self.lie_basis = self._lie_basis()
        self._check_gram()
        self.derived = {}

    # -- packing and matrix arithmetic over the field codes

    def pack(self, rows):
        q = self.q
        out, w = 0, 1
        for row in rows:
            for x in row:
                out += (x % q) * w
                w *= q
        return out

    def unpack(self, a):
        q, n = self.q, self.n
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                row.append(a % q)
                a //= q
            rows.append(row)
        return rows

    def mul(self, a, b):
        return _kernels.mat_mul(a, b, self.tables)

    def inv(self, a):
        return _kernels.mat_inv(a, self.tables)

    def conj(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))

    def det_code(self, a):
        return _kernels.det_code(a, self.tables)

    def pairing_code(self, a, b):
        """Trace form <a, b> = Tr(ab) as a field code."""
        return _kernels.pairing_code(a, b, self.tables)

    # -- construction helpers

    def _enumerate(self):
        det, t = _kernels.det_code, self.tables
        codes = range(self.q ** (self.n * self.n))
        if self.kind == "GL2":
            return tuple(a for a in codes if det(a, t) != 0)
        return tuple(a for a in codes if det(a, t) == 1)

    def _generators(self):
        fld = self.field
        shears = []
        for c in {1, fld.gen}:
            shears.append(self.pack([[1, c], [0, 1]]))
            shears.append(self.pack([[1, 0], [c, 1]]))
        gens = sorted(set(shears))
        if self.kind == "GL2":
            gens.append(self.pack([[fld.gen, 0], [0, 1]]))
        return tuple(gens)

    def _check_generation(self):
        seen = {self.identity}
        stack = [self.identity]
        while stack:
            x = stack.pop()
            for g in self.gens:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != self.order:
            raise AssertionError("generators do not generate the group")

    def _lie_basis(self):
        if self.kind == "GL2":
            return (
                self.pack([[1, 0], [0, 0]]),
                self.pack([[0, 1], [0, 0]]),
                self.pack([[0, 0], [1, 0]]),
                self.pack([[0, 0], [0, 1]]),
            )
        return (
            self.pack([[1, 0], [0, self.field.neg(1)]]),
            self.pack([[0, 1], [0, 0]]),
            self.pack([[0, 0], [1, 0]]),
        )

    def _check_gram(self):
        """The trace pairing is nondegenerate on lie_basis: its Gram matrix
        has one nonzero entry in every row and every column, so it is
        invertible."""
        basis = self.lie_basis
        support = [[self.pairing_code(a, b) != 0 for b in basis] for a in basis]
        if any(sum(line) != 1 for line in support + list(zip(*support))):
            raise AssertionError("trace pairing is degenerate")

    # -- Lie algebra coordinates

    def lie_coeffs(self, t):
        """Coefficients of a packed Lie element over lie_basis.
        Raises ValueError if the matrix is not in the Lie algebra."""
        m = self.unpack(t)
        if self.kind == "GL2":
            return (m[0][0], m[0][1], m[1][0], m[1][1])
        if m[1][1] != self.field.neg(m[0][0]):
            raise ValueError("matrix is not traceless")
        return (m[0][0], m[0][1], m[1][0])

    def lie_from_coeffs(self, coeffs):
        if len(coeffs) != self.dim:
            raise ValueError("coefficient length mismatch")
        if self.kind == "GL2":
            a, b, c, d = coeffs
            return self.pack([[a, b], [c, d]])
        a, b, c = coeffs
        return self.pack([[a, b], [c, self.field.neg(a)]])

    def lie_points(self):
        """All packed Lie algebra points, in coefficient-lex order: index i
        has coefficients (i mod q, i//q mod q, ...) over lie_basis."""
        q = self.q
        out = []
        for i in range(q**self.dim):
            coeffs = []
            r = i
            for _ in range(self.dim):
                coeffs.append(r % q)
                r //= q
            out.append(self.lie_from_coeffs(coeffs))
        return out

    def lie_index(self, t):
        coeffs = self.lie_coeffs(t)
        i = 0
        for c in reversed(coeffs):
            i = i * self.q + c
        return i

    # -- orbits and classes

    def adjoint_orbit_of(self, t):
        """Sorted tuple of the orbit of a Lie point under conjugation. Each
        orbit is built once and stored under every one of its points, the
        one exception to `exact_math.cached`."""
        self.lie_coeffs(t)  # membership check
        orbits = self.derived.setdefault("adjoint_orbits", {})
        orbit = orbits.get(t)
        if orbit is not None:
            return orbit
        orbit = _kernels.orbit_of(t, self.gens, self.tables)
        if self.order % len(orbit):
            raise AssertionError("orbit size does not divide the group order")
        for y in orbit:
            orbits[y] = orbit
        return orbit

    def conjugacy_labels(self):
        """Class labels aligned with `elements`, counting up in order of the
        first element of each class."""
        return _kernels.conjugacy_partition(self.elements, self.gens, self.tables)

    # -- unipotent classes

    def unipotent_class_reps(self):
        """One representative per unipotent conjugacy class: [1, J] for GL2,
        [1, J, J_eps] for SL2 (the two regular classes)."""
        if self.kind == "GL2":
            return (self.identity, self.pack([[1, 1], [0, 1]]))
        eps = self.field.non_residue
        return (
            self.identity,
            self.pack([[1, 1], [0, 1]]),
            self.pack([[1, eps], [0, 1]]),
        )

    def __repr__(self):
        return f"{self.kind}(F_{self.q})"


@lru_cache(maxsize=None)
def build_finite_group(kind, q) -> FiniteLieGroup:
    """The group GL2 or SL2 over F_q, for an odd prime power q <= 13; one
    object per (kind, q). Any other kind or q raises ValueError, before a
    field is built."""
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, f = primes[0], 1
    while p**f < q:
        f += 1
    _kind_data(kind, p, q)
    return FiniteLieGroup(kind, _field_for(p, f))


def quasi_logarithm(g_group: FiniteLieGroup, g):
    """The equivariant group-to-algebra map: g - 1 for GL2, the traceless
    projection (g - 1) - (Tr(g - 1)/2) Id = g - (Tr(g)/2) Id for SL2."""
    if g not in g_group._members:
        raise ValueError("not a group element")
    t = g_group.tables
    if g_group.kind == "GL2":
        return _kernels.sub_scalar(g, 1, t)
    half = t.inv[t.add[t.q + 1]]  # 1/(1 + 1)
    # dot[x q^2 + y] is the product x y
    return _kernels.sub_scalar(g, t.dot[half * t.q2 + _kernels.trace_code(g, t)], t)


class LieFunction:
    """Dense exact function on the Lie algebra points. values[i] is the value
    at the point with basis coefficients (i mod q, i//q mod q, ...)."""

    def __init__(self, group: FiniteLieGroup, values):
        if group.q**group.dim > FOURIER_BUDGET:
            raise ValueError("dense Lie function domain exceeds the budget")
        vals = []
        for v in values:
            vals.append(v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v))
        if len(vals) != group.q**group.dim:
            raise ValueError("value array length must be q**dim")
        self.group = group
        self.values = tuple(vals)

    @classmethod
    def indicator(cls, group, point_set):
        idxs = {group.lie_index(t) for t in point_set}
        return cls(group, [1 if i in idxs else 0 for i in range(group.q**group.dim)])

    def value_at(self, t):
        return self.values[self.group.lie_index(t)]


def finite_fourier(g_group: FiniteLieGroup, f: LieFunction) -> LieFunction:
    """F(f)(x) = sum_y psibar(<x, y>) f(y), counting measure, exact."""
    if f.group is not g_group:
        raise ValueError("function belongs to a different group")
    fld = g_group.field
    q = g_group.q
    pts = g_group.lie_points()
    psibar = [Cyclotomic.zeta(fld.p, (-fld.trace(c)) % fld.p) for c in range(q)]
    out = []
    for x in pts:
        buckets = [None] * q
        for i, y in enumerate(pts):
            v = f.values[i]
            c = g_group.pairing_code(x, y)
            buckets[c] = v if buckets[c] is None else buckets[c] + v
        acc = Cyclotomic.zero()
        for c in range(q):
            if buckets[c] is not None:
                acc = acc + psibar[c] * buckets[c]
        out.append(acc)
    return LieFunction(g_group, out)


class _QuadExt:
    """The quadratic extension F_q(sqrt(eps)), eps the canonical non-residue,
    as the elliptic-torus matrices: x + y sqrt(eps) is the packed matrix
    [[x, eps y], [y, x]].

    Products are `_kernels.mat_mul` and the norm x^2 - eps y^2 is the
    determinant. The generator is the first element of full order q^2 - 1
    in the order of the code x + q y (`primitive_element`); `log` and
    `norm_one_log` hold the discrete logarithms in the full multiplicative
    group and in its norm-one subgroup, cyclic of orders q^2 - 1 and q + 1,
    keyed by packed point. Their keys are the points of the elliptic tori of
    GL2 and SL2.
    """

    def __init__(self, field):
        t = _kernels.tables(field)
        q = field.q
        eps = field.non_residue
        one = 1 + t.q3  # the packed identity
        self.order = order = q * q - 1

        def mul(a, b):
            return _kernels.mat_mul(a, b, t)

        # dot[eps q^2 + y] is eps y; the codes x + q y from 2 on
        points = [
            x + t.dot[eps * t.q2 + y] * q + y * t.q2 + x * t.q3
            for y in range(q)
            for x in range(q)
        ][2:]
        self.gen = gen = primitive_element(mul, one, points, order)
        self.log = {}
        acc = one
        for k in range(order):
            self.log[acc] = k
            acc = mul(acc, gen)
        if acc != one or len(self.log) != order:
            raise AssertionError("generator order is wrong")
        self.norm_one_gen = power(mul, one, gen, q - 1)
        self.norm_one_log = {}
        acc = one
        for k in range(q + 1):
            self.norm_one_log[acc] = k
            acc = mul(acc, self.norm_one_gen)
        if acc != one:
            raise AssertionError("norm-one generator order is wrong")


def _quad_ext(field) -> _QuadExt:
    """The field's quadratic extension, shared by GL2 and SL2 over it."""
    return cached(field, "quad_ext", _QuadExt)


class TorusInG:
    """A maximal torus point group inside the finite group, with its Lie
    points, relative Weyl group action and sign data, and `derived`, its
    cache (see `exact_math.cached`)."""

    def __init__(self, parent, tag, points, lie_points, weyl, fq_rank):
        self.parent = parent
        self.tag = tag
        self.points = tuple(sorted(points))
        self.point_set = frozenset(self.points)
        self._lie_points = lie_points
        self.lie_point_set = frozenset(lie_points)
        self.order = len(self.points)
        self.weyl = weyl  # the nontrivial involution, as a dict on points
        self.fq_rank = fq_rank
        self.sign = (-1) ** (parent.fq_rank - fq_rank)
        self.derived = {}

    def lie_points(self):
        """Packed Lie algebra points of the torus, as a sorted tuple."""
        return self._lie_points

    def __repr__(self):
        return f"{self.tag} torus of {self.parent!r} (order {self.order})"


def _torus_lie_points(g: FiniteLieGroup, tag):
    q = g.q
    fld = g.field
    out = []
    if tag == "split":
        for a in range(q):
            for d in range(q):
                if g.kind == "SL2" and d != fld.neg(a):
                    continue
                out.append(g.pack([[a, 0], [0, d]]))
    else:
        eps = fld.non_residue
        for x in range(q):
            for y in range(q):
                if g.kind == "SL2" and x != 0:
                    continue
                out.append(g.pack([[x, fld.mul(eps, y)], [y, x]]))
    return tuple(sorted(set(out)))


def _find_weyl_witness(g: FiniteLieGroup, points, lie_points):
    """Smallest group element normalizing the torus and acting nontrivially
    on its Lie algebra.

    Nontriviality is detected on Lie points, never on the point group: the
    split torus of SL2(F_3) is {+1, -1}, central, so every candidate fixes
    its points, yet the swap on diag(t, -t) is still there to find.
    """
    pts = frozenset(points)
    lpts = frozenset(lie_points)
    probes = [p for p in lie_points if p != 0][:3]
    for cand in g.elements:
        if any(g.conj(cand, p) not in lpts for p in probes):
            continue
        if (
            all(g.conj(cand, p) in pts for p in points)
            and all(g.conj(cand, t) in lpts for t in lie_points)
            and any(g.conj(cand, t) != t for t in lie_points)
        ):
            return cand
    raise AssertionError("no Weyl witness found")


def tori_and_regularity(g: FiniteLieGroup):
    """One TorusInG per conjugacy class of maximal tori: split and elliptic,
    the same objects on every call."""
    return cached(g, "tori", _build_tori)


def _build_tori(g: FiniteLieGroup):
    fld = g.field
    q = g.q
    split_pts = []
    for a in range(1, q):
        if g.kind == "SL2":
            split_pts.append(g.pack([[a, 0], [0, fld.inv(a)]]))
        else:
            for d in range(1, q):
                split_pts.append(g.pack([[a, 0], [0, d]]))
    ext = _quad_ext(fld)
    ell_pts = sorted(ext.log if g.kind == "GL2" else ext.norm_one_log)

    tori = []
    for tag, pts in (("split", split_pts), ("elliptic", ell_pts)):
        lie_pts = _torus_lie_points(g, tag)
        witness = _find_weyl_witness(g, pts, lie_pts)
        weyl = {p: g.conj(witness, p) for p in pts}
        if sorted(weyl.values()) != sorted(pts):
            raise AssertionError("Weyl action is not a permutation")
        if sorted(g.conj(witness, t) for t in lie_pts) != list(lie_pts):
            raise AssertionError("Weyl action does not preserve Lie(T)")
        if all(g.conj(witness, t) == t for t in lie_pts):
            raise AssertionError("Weyl action fixes Lie(T) pointwise")
        if tag == "split":
            fq_rank = g.fq_rank
        else:
            fq_rank = g.fq_rank - 1
        tori.append(TorusInG(g, tag, pts, lie_pts, weyl, fq_rank))
    if {t.order for t in tori} != torus_orders(g):
        raise AssertionError("torus orders do not match the closed forms")
    return tuple(tori)


def torus_orders(g: FiniteLieGroup):
    q = g.q
    if g.kind == "GL2":
        return {(q - 1) ** 2, q * q - 1}
    return {q - 1, q + 1}


def is_strongly_regular(g: FiniteLieGroup, t):
    """Centralizer of the Lie point is a maximal torus, detected through the
    orbit-stabilizer count."""
    orbit = g.adjoint_orbit_of(t)
    return g.order // len(orbit) in torus_orders(g)
