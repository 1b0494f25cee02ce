"""Concrete matrix groups over finite fields: GL2 and SL2 over F_q, odd
q <= 13 (F_3, F_5, F_7, F_11, F_13 and F_9 = F_3[x]/(x^2 + 1)), with Lie
algebras, the trace pairing, quasi-logarithms, adjoint orbits, maximal tori
and regularity tests. Each maximal torus is read off its matrix shape,
diag(x, y) or [[x, eps y], [y, x]] (x + y sqrt(eps) in F_q^2): its points,
its Lie points and its Weyl witness. The elliptic torus of GL2 is F_q^2^*
and that of SL2 its norm-one subgroup, both read off one walk of F_q^2^*'s
generator. Each torus carries its own coordinates, the exponents of its
points against its unit points: the field's discrete logarithm on the
diagonal entries of the split torus, the logarithm of F_q^2 or of its
norm-one subgroup on the elliptic one.

Matrices are packed into int codes, and codes are built and read only in
`_kernels`: packing and unpacking, the shears, the element and Lie point
lists, and all matrix arithmetic (products, inverses, determinants, traces,
the trace pairing, the scalar shift and the traceless part of the
quasi-logarithm, conjugation orbits and classes), over lookup tables that
each group builds once, over its own field; the same code serves prime q
and F_9. This module never reads a code's digits. The generators are
the upper and lower shears by an F_p-basis of F_q (1, and gen for F_9), and
diag(gen, 1) for GL2; a closure over them, each layer multiplied by every
generator in one `_kernels.right_products` call, checks that they generate
exactly the element set.

What is derived from a group or a torus is cached on it (see
`exact_math.cached`). The adjoint orbits are one entry, a dict from every
Lie point to its orbit, read off one partition of the Lie points into
orbits (`_kernels.conjugacy_partition`), as `dl_spectra` reads the
conjugacy classes off one partition of the elements. `build_finite_group`
keeps one object per (kind, q); each group builds its own field and its
tables, and walks F_q^2^* once, for its own tori.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels
from .exact_math import FiniteField, cached, powers, prime_factors, primitive_element
from .exact_math.ffield import MAX_Q

_KIND_DATA = {"GL2": 2, "SL2": 1}  # kind: F_q-rank
_CENTER_ORDER = 2  # |Z(G^sc)|, the center of SL2


def _check_kind(kind, p):
    """The kind's checks on the characteristic p: the kind and the center.
    No field is needed, so a refused kind or p builds none; q itself is
    bounded by the field's MAX_Q."""
    if kind not in _KIND_DATA:
        raise ValueError(f"unknown kind {kind!r}")
    if _CENTER_ORDER % p == 0:
        raise ValueError(
            f"p = {p} divides the order {_CENTER_ORDER} of the simply "
            f"connected center for {kind}"
        )


class FiniteLieGroup:
    """One of the supported matrix groups with its Lie algebra data, and
    `derived`, its cache (see `exact_math.cached`)."""

    def __init__(self, kind, field: FiniteField):
        q = field.q
        self.kind = kind
        self.field = field
        self.q = q
        self.fq_rank = _KIND_DATA[kind]
        self.tables = _kernels.Tables(field)
        self.identity = self.pack([[1, 0], [0, 1]])
        self.elements = _kernels.matrices(self.tables, kind == "SL2")
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
        return _kernels.pack(rows, self.tables)

    def unpack(self, a):
        return _kernels.unpack(a, self.tables)

    def mul(self, a, b):
        return _kernels.mat_mul(a, b, self.tables)

    def inv(self, a):
        return _kernels.mat_inv(a, self.tables)

    def right_products(self, xs, ys):
        """For each y in ys, the list of the products x y, x in xs."""
        return _kernels.right_products(xs, ys, self.tables)

    def conj(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))

    def det_code(self, a):
        return _kernels.det_code(a, self.tables)

    def pairing_code(self, a, b):
        """Trace form <a, b> = Tr(ab) as a field code."""
        return _kernels.pairing_code(a, b, self.tables)

    # -- construction helpers

    def _generators(self):
        """The shears [[1, c], [0, 1]] and [[1, 0], [c, 1]] for c in an
        F_p-basis of F_q, (1,) or (1, gen), and diag(gen, 1) for GL2."""
        fld = self.field
        basis = (1,) if fld.f == 1 else (1, fld.gen)
        gens = sorted(self.pack(m) for c in basis for m in ([[1, c], [0, 1]], [[1, 0], [c, 1]]))
        if self.kind == "GL2":
            gens.append(self.pack([[fld.gen, 0], [0, 1]]))
        return tuple(gens)

    def _check_generation(self):
        """The closure of the identity under right multiplication by the
        generators, one layer at a time, is the element set."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            fresh = set().union(*self.right_products(frontier, self.gens)) - seen
            seen |= fresh
            frontier = list(fresh)
        if seen != self._members:
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

    # -- the Lie algebra

    def lie_points(self):
        """All packed Lie algebra points in ascending code order: every
        matrix for GL2, the q^3 traceless ones [[a, b], [c, -a]] for SL2."""
        return _kernels.lie_points(self.tables, self.kind == "SL2")

    # -- adjoint orbits

    def adjoint_orbit_of(self, t):
        """Sorted tuple of the orbit of a Lie point under conjugation, looked
        up in the partition of all Lie points (`_adjoint_orbits`)."""
        orbit = cached(self, "adjoint_orbits", _adjoint_orbits).get(t)
        if orbit is None:
            raise ValueError("matrix is not traceless" if self.kind == "SL2" else "not a Lie algebra point")
        return orbit

    # -- unipotent classes

    def unipotent_class_reps(self):
        """One representative per unipotent conjugacy class: [1, J] for GL2,
        [1, J, J_eps] for SL2 (the two regular classes)."""
        one, t = self.identity, self.tables
        if self.kind == "GL2":
            return (one, _kernels.shear(1, t))
        return (one, _kernels.shear(1, t), _kernels.shear(self.field.non_residue, t))

    def __repr__(self):
        return f"{self.kind}(F_{self.q})"


def _adjoint_orbits(g: FiniteLieGroup):
    """Every Lie point -> its orbit under conjugation, from one partition of
    `lie_points()`; each orbit size divides |G|."""
    orbits = _kernels.conjugacy_partition(g.lie_points(), g.gens, g.tables)
    if any(g.order % len(orbit) for orbit in orbits):
        raise AssertionError("orbit size does not divide the group order")
    return {x: orbit for orbit in orbits for x in orbit}


@lru_cache(maxsize=None, typed=True)
def build_finite_group(kind, q) -> FiniteLieGroup:
    """The group GL2 or SL2 over F_q, for an odd prime power q <= MAX_Q =
    16; one object per (kind, q), keyed by type too, so that a q that is not
    an int (a float or a bool) reaches the refusal and not an int's entry.
    Any other kind or q raises ValueError: a q past MAX_Q gets the field's
    refusal before q is factored, so every such q reads the same text; a
    kind or a characteristic is refused before a field is built."""
    if type(q) is not int:
        raise ValueError(f"q = {q!r} is not an int")
    if q > MAX_Q:
        FiniteField(q)  # raises the field's MAX_Q refusal
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, f = primes[0], 1
    while p**f < q:
        f += 1
    _check_kind(kind, p)
    return FiniteLieGroup(kind, FiniteField(p, f))


def quasi_logarithm(g_group: FiniteLieGroup, g):
    """The equivariant group-to-algebra map: g - 1 for GL2, the traceless
    projection (g - 1) - (Tr(g - 1)/2) Id = g - (Tr(g)/2) Id for SL2."""
    if g not in g_group._members:
        raise ValueError("not a group element")
    if g_group.kind == "GL2":
        return _kernels.sub_scalar(g, 1, g_group.tables)
    return _kernels.traceless_part(g, g_group.tables)


class TorusInG:
    """A maximal torus point group inside the finite group, with its Lie
    points, relative Weyl group action and sign data, and `derived`, its
    cache (see `exact_math.cached`).

    Its coordinates present the point group as (Z/char_order)^rank: `log`
    maps each point to its exponent tuple, and `unit_points` lists the
    points whose tuples are the unit vectors, so a point is the product of
    their powers by its coordinates.
    """

    def __init__(self, parent, tag, log, char_order, lie_points, weyl, fq_rank):
        self.parent = parent
        self.tag = tag
        self.log = log
        self.char_order = char_order
        self.points = tuple(sorted(log))
        by_coords = {c: p for p, c in log.items()}
        rank = len(log[self.points[0]])
        self.unit_points = tuple(
            by_coords[tuple(int(i == k) for i in range(rank))] for k in range(rank)
        )
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


def tori_and_regularity(g: FiniteLieGroup):
    """One TorusInG per conjugacy class of maximal tori: split and elliptic,
    the same objects on every call."""
    return cached(g, "tori", _build_tori)


def _build_tori(g: FiniteLieGroup):
    """The split and the elliptic torus, each read off its shape: the
    matrices diag(x, y) and x + y sqrt(eps) = [[x, eps y], [y, x]], eps the
    canonical non-residue, listed by the code x + q y of their entries. The
    elliptic shape is F_q^2, products `_kernels.mat_mul` and the norm
    x^2 - eps y^2 the determinant.

    The split torus has the coordinates of the field's discrete logarithm on
    each diagonal entry (the first only for SL2, the second being its
    inverse). The generator of F_q^2^* is the first elliptic point of full
    order q^2 - 1 from code 2 on (`primitive_element`), and one `powers`
    walk of it, which must have q^2 - 1 points, is the elliptic torus of
    GL2 in its logarithm. The norm x -> x^(q + 1) maps gen^k to 1 exactly
    when q - 1 divides k, so SL2's elliptic torus, the norm-one subgroup,
    is every (q - 1)-th step of the walk, with gen^(q - 1) as generator.
    Lie(T) is the shape's points that are Lie points of g: all of them for
    GL2, the traceless ones for SL2."""
    q, t = g.q, g.tables
    exp = g.field.exp_table
    eps = g.field.non_residue
    split = [g.pack([[x, 0], [0, y]]) for y in range(q) for x in range(q)]
    elliptic = [g.pack([[x, g.field.mul(eps, y)], [y, x]]) for y in range(q) for x in range(q)]
    gen = primitive_element(g.mul, g.identity, elliptic[2:], q * q - 1)
    walk = powers(g.mul, g.identity, gen, q * q - 1)
    if len(walk) != q * q - 1:
        raise AssertionError("generator order is wrong")
    # normalisers acting by the Weyl involution, of determinant 1: the swap
    # of the diagonal entries, and diag(1, -1) times the point gen^((q-1)/2)
    # of norm x^2 - eps y^2 = -1 (the norm of gen generates F_q^*), that is
    # [[x, eps y], [-y, -x]], which maps x + y sqrt(eps) to x - y sqrt(eps)
    minus = g.field.neg(1)
    witnesses = (g.pack([[0, 1], [minus, 0]]), g.mul(g.pack([[1, 0], [0, minus]]), walk[(q - 1) // 2]))
    if g.kind == "GL2":
        split_log = {
            g.pack([[exp[i], 0], [0, exp[j]]]): (i, j) for i in range(q - 1) for j in range(q - 1)
        }
    else:
        split_log = {g.pack([[exp[i], 0], [0, exp[-i]]]): (i,) for i in range(q - 1)}
        walk = walk[:: q - 1]
        split, elliptic = ([a for a in shape if _kernels.trace_code(a, t) == 0] for shape in (split, elliptic))
    coords = (
        ("split", split_log, q - 1, g.fq_rank, split),
        ("elliptic", {z: (k,) for k, z in enumerate(walk)}, len(walk), g.fq_rank - 1, elliptic),
    )
    tori = []
    for (tag, log, char_order, fq_rank, shape), witness in zip(coords, witnesses):
        pts = list(log)
        lie_pts = tuple(sorted(shape))
        if witness not in g._members:
            raise AssertionError("Weyl witness is not a group element")
        weyl = {p: g.conj(witness, p) for p in pts}
        if sorted(weyl.values()) != sorted(pts):
            raise AssertionError("Weyl action is not a permutation")
        if sorted(g.conj(witness, t) for t in lie_pts) != list(lie_pts):
            raise AssertionError("Weyl action does not preserve Lie(T)")
        if all(g.conj(witness, t) == t for t in lie_pts):
            raise AssertionError("Weyl action fixes Lie(T) pointwise")
        tori.append(TorusInG(g, tag, log, char_order, lie_pts, weyl, fq_rank))
    closed_forms = {(q - 1) ** 2, q * q - 1} if g.kind == "GL2" else {q - 1, q + 1}
    if {t.order for t in tori} != closed_forms:
        raise AssertionError("torus orders do not match the closed forms")
    return tuple(tori)


def is_strongly_regular(g: FiniteLieGroup, t):
    """Centralizer of the Lie point is a maximal torus, detected through the
    orbit-stabilizer count against the orders of the group's tori."""
    orbit = g.adjoint_orbit_of(t)
    return g.order // len(orbit) in {torus.order for torus in tori_and_regularity(g)}
