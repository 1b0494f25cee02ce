"""Split elliptic endoscopy at the diagram level.

Everything runs on the extended Dynkin diagram of the dual root system: the
center of the simply connected dual acts on alcove vertices by translate-and-
fold, orbits of that action classify the split elliptic triples, and deleting
a vertex yields the dual endoscopic root system (Borel-de Siebenthal).

All alcove geometry is exact. A rational point is scaled by the lcm N of its
denominators, so root pairings, wall tests and affine reflections are integer
operations (the affine wall <theta, x> = 1 becomes <theta, N x> = N).
Folding first translates by the coroot lattice, reading the coordinates over
the simple coroots off the datum's cached C^-1 (integer rows over one
denominator), which bounds its number of reflection steps independently of
the size of the point; the step budget stays as a safety check.

The elliptic triple of each center orbit is built once per datum and shared
by every caller (`enumerate_split_elliptic`, `endoscopic_from_kappa`), so
triples must not be mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact_math import FinAbGroup, IntMatrix, abelian_subgroup_type, cached, cokernel_group
from .root_datum import (
    RootDatum,
    _dot,
    dual_datum,
    extended_dynkin,
    reflection_closure,
    sub_datum_from_pairs,
)

FOLD_BUDGET = 10**4


def _require_simple(g: RootDatum):
    if not g.is_semisimple():
        raise ValueError("semisimple datum required")
    if "+" in g.cartan_type():
        raise ValueError("irreducible (simple) datum required")


# ---------------------------------------------------------------------------
# alcove folding


def fold_to_alcove(d: RootDatum, ext, x):
    """Affine-Weyl representative of x in the closed fundamental alcove of d.

    x lives in Y tensor Q of d. Walls: <alpha_i, x> >= 0 for the simple
    roots, <theta, x> <= 1 for the highest root. The fold runs on y = N x,
    N the lcm of the denominators of x, and only the result is converted
    back to Fractions.
    """
    x = tuple(Fraction(v) for v in x)
    n = lcm(1, *(v.denominator for v in x))
    y = [v.numerator * (n // v.denominator) for v in x]
    simple = list(zip(ext.node_vectors[1:], ext.node_coroots[1:]))
    # translate by the coroot lattice (part of the affine Weyl group): subtract
    # floor(c_i) alpha_i^vee, so every coordinate c_i lies in [0, 1). Since
    # <alpha_j, x> = sum_i c_i C[i][j], c_i is column i of C^-1 applied to
    # the pairings (rows would give other numbers unless C is symmetric)
    den, inv = d._cartan_inverse()
    pairings = [_dot(a, y) for a, _ in simple]
    for col, (_, av) in zip(zip(*inv), simple):
        k = _dot(col, pairings) // (den * n)
        if k:
            y = [yi - k * n * ci for yi, ci in zip(y, av)]
    # node 0 stores -theta: <theta, y> <= n reads <-theta, y> >= -n
    low, low_cov = ext.node_vectors[0], ext.node_coroots[0]
    for _ in range(FOLD_BUDGET):
        moved = False
        for a, av in simple:
            t = _dot(a, y)
            if t < 0:
                y = [yi - t * ci for yi, ci in zip(y, av)]
                moved = True
        t = _dot(low, y) + n
        if t < 0:
            y = [yi - t * ci for yi, ci in zip(y, low_cov)]
            moved = True
        if not moved:
            return tuple(Fraction(v, n) for v in y)
    raise RuntimeError("alcove folding exceeded its step budget")


# ---------------------------------------------------------------------------
# center action on the extended diagram


class CenterDiagramAction:
    """Z(dual sc) acting on the extended-diagram vertex set by translate-fold.

    group: the center as a FinAbGroup; elements are torsion-coordinate tuples.
    permutations: element -> tuple p with p[i] = image node of node i.
    vertex_index: alcove vertex -> its node.
    orbits: the orbits on the nodes, as frozensets, in the order of their
    smallest nodes; orbit_of: node -> its orbit.
    """

    def __init__(self, ambient, dual, ext, group, permutations, vertex_index):
        self.ambient = ambient
        self.dual = dual
        self.ext = ext
        self.group = group
        self.permutations = permutations
        self.vertex_index = vertex_index
        self.orbits = []
        self.orbit_of = {}
        for start in range(ext.n_nodes):
            if start in self.orbit_of:
                continue
            orb = {start}
            frontier = [start]
            while frontier:
                i = frontier.pop()
                for p in permutations.values():
                    j = p[i]
                    if j not in orb:
                        orb.add(j)
                        frontier.append(j)
            orb = frozenset(orb)
            self.orbits.append(orb)
            self.orbit_of.update(dict.fromkeys(orb, orb))

    def stabilizer(self, node) -> FinAbGroup:
        fixed = [z for z, p in self.permutations.items() if p[node] == node]
        return abelian_subgroup_type(fixed, self.group.add, self.group.zero())


def center_alcove_action(g: RootDatum) -> CenterDiagramAction:
    """Action of the center of the simply connected dual group on the
    extended diagram of the dual, by mu: x -> fold(x + mu) over a coweight
    transversal (the origin and the mark-1 alcove vertices). The same object
    on every call."""
    return cached(g, "center_alcove_action", _build_center_alcove_action)


def _build_center_alcove_action(g: RootDatum) -> CenterDiagramAction:
    _require_simple(g)
    d = dual_datum(g)
    ext = extended_dynkin(d)
    pres = cokernel_group(IntMatrix(d.cartan()).transpose())
    group = pres.group

    def coords(v):
        # omega-vee coordinates of a coweight point: pair against simple roots
        out = []
        for a in d.simple_roots:
            t = _dot(a, v)
            if Fraction(t).denominator != 1:
                raise AssertionError("transversal point is not a lattice coweight")
            out.append(int(t))
        return out

    transversal = {}
    for node, v in enumerate(ext.vertices):
        if ext.marks[node] != 1:
            continue
        cls = pres.torsion_coords(coords(v))
        if cls in transversal:
            raise AssertionError("two mark-1 vertices share a center class")
        transversal[cls] = v
    if len(transversal) != group.order:
        raise AssertionError("mark-1 vertices do not exhaust the center")

    vert_index = {v: i for i, v in enumerate(ext.vertices)}
    permutations = {}
    for cls, mu in transversal.items():
        images = []
        for v in ext.vertices:
            w = fold_to_alcove(d, ext, tuple(a + b for a, b in zip(v, mu)))
            if w not in vert_index:
                raise AssertionError("folded vertex is not a vertex")
            images.append(vert_index[w])
        p = tuple(images)
        if sorted(p) != list(range(ext.n_nodes)):
            raise AssertionError("center element does not permute the vertices")
        if any(ext.marks[i] != ext.marks[p[i]] for i in range(ext.n_nodes)):
            raise AssertionError("center action does not preserve marks")
        permutations[cls] = p

    # homomorphism: c_{mu+nu} = c_mu o c_nu
    for z1, p1 in permutations.items():
        for z2, p2 in permutations.items():
            z3 = group.add(z1, z2)
            comp = tuple(p1[p2[i]] for i in range(ext.n_nodes))
            if permutations[z3] != comp:
                raise AssertionError("center action is not a homomorphism")
    ident = permutations[group.zero()]
    if ident != tuple(range(ext.n_nodes)):
        raise AssertionError("identity element acts nontrivially")

    return CenterDiagramAction(g, d, ext, group, permutations, vert_index)


# ---------------------------------------------------------------------------
# pseudo-Levi subsystems


def pseudo_levi(g: RootDatum, vertex) -> RootDatum:
    """Full-rank subsystem of the dual generated by the extended-diagram
    nodes other than the given one (delete-a-vertex construction)."""
    _require_simple(g)
    d = dual_datum(g)
    ext = extended_dynkin(d)
    if not 0 <= vertex < ext.n_nodes:
        raise ValueError(f"vertex {vertex} out of range for {ext.n_nodes} nodes")
    gens = [
        (ext.node_vectors[i], ext.node_coroots[i])
        for i in range(ext.n_nodes)
        if i != vertex
    ]
    sub = sub_datum_from_pairs(d.rank, reflection_closure(gens))
    if not sub.is_semisimple():
        raise AssertionError("pseudo-Levi is not full rank")
    return sub


# ---------------------------------------------------------------------------
# endoscopic triples


class EndoscopicTriple:
    """Split endoscopic datum at the diagram level.

    s_point is an alcove point (rational cocharacter of the dual maximal
    torus) and ord_s its order; for the enumerated elliptic triples the point
    is an alcove vertex and ord_s equals the vertex mark. levi_datum is the
    dual-side subsystem (the connected centralizer of s); H_datum is its
    dual, the endoscopic group itself. lam is the stabilizer of the vertex
    under the center action, the symmetry group Lambda of the triple (for a
    split elliptic triple it is also the group Z); it is trivial for a
    triple that is not elliptic.
    """

    def __init__(self, ambient, levi_datum, h_datum, s_point, ord_s, vertex_orbit, elliptic, lam):
        self.ambient = ambient
        self.levi_datum = levi_datum
        self.H_datum = h_datum
        self.s_point = s_point
        self.ord_s = ord_s
        self.vertex_orbit = vertex_orbit
        self.elliptic = elliptic
        self.lam = lam

    @property
    def h_type(self):
        return self.H_datum.cartan_type()

    def serialize(self):
        return {
            "orbit": sorted(self.vertex_orbit),
            "ord_s": self.ord_s,
            "H_type": self.h_type,
            "lambda": self.lam.serialize(),
            "elliptic": self.elliptic,
        }

    def __repr__(self):
        return (
            f"EndoscopicTriple(H={self.h_type}, ord_s={self.ord_s}, "
            f"orbit={sorted(self.vertex_orbit)}, lambda={self.lam!r})"
        )


def _triple_from_orbit(action, orbit):
    g = action.ambient
    ext = action.ext
    marks = {ext.marks[i] for i in orbit}
    if len(marks) != 1:
        raise AssertionError("mark not constant on a center orbit")
    ord_s = marks.pop()
    rep = min(orbit)
    if 0 in orbit:
        rep = 0  # trivial triple: delete the affine node, H = G
    levi = pseudo_levi(g, rep)
    lam = action.stabilizer(rep)
    if lam.order * len(orbit) != action.group.order:
        raise AssertionError("orbit-stabilizer mismatch")
    return EndoscopicTriple(
        ambient=g,
        levi_datum=levi,
        h_datum=dual_datum(levi),
        s_point=ext.vertices[rep],
        ord_s=ord_s,
        vertex_orbit=frozenset(orbit),
        elliptic=True,
        lam=lam,
    )


def _elliptic_triple(action, node):
    """The elliptic triple of the center orbit of an extended-diagram node,
    cached on the datum under the orbit's smallest node."""
    orbit = action.orbit_of[node]
    return cached(
        action.ambient, ("elliptic_triple", min(orbit)), lambda _: _triple_from_orbit(action, orbit)
    )


def enumerate_split_elliptic(g: RootDatum) -> list:
    """One elliptic triple per center orbit of extended-diagram vertices."""
    _require_simple(g)
    action = center_alcove_action(g)
    orbits = action.orbits
    triples = [_elliptic_triple(action, min(orbit)) for orbit in orbits]
    triples.sort(key=lambda t: (t.ord_s, min(t.vertex_orbit)))
    if not any(0 in t.vertex_orbit for t in triples):
        raise AssertionError("trivial triple missing")
    if len(triples) != len(orbits):
        raise AssertionError("orbit count mismatch")
    return triples


def _kappa_pairings(d: RootDatum, kappa):
    """(pairs, ord_s) for a Fraction point kappa: the (root, coroot) pairs of
    d whose root pairs integrally with kappa, and the order of
    exp(2 pi i kappa) in the adjoint torus, the lcm of the denominators of
    the root pairings."""
    # clear denominators once: <r, kappa> = <r, v> / n with v = n kappa, so
    # r is integral iff n | <r, v>, and the lcm is n / gcd(n, all <r, v>)
    n = lcm(1, *(k.denominator for k in kappa))
    v = [k.numerator * (n // k.denominator) for k in kappa]
    pairings = [_dot(r, v) for r in d.roots]
    pairs = [(r, rv) for r, rv, p in zip(d.roots, d.coroots, pairings) if p % n == 0]
    return pairs, n // gcd(n, *pairings)


def endoscopic_from_kappa(g: RootDatum, kappa) -> EndoscopicTriple:
    """Endoscopic datum attached to a rational cocharacter point kappa of the
    dual torus: dual-H roots are exactly the roots pairing integrally with
    kappa. Elliptic when that system has full rank; then the triple is the
    enumerated one whose orbit contains the alcove reduction of kappa."""
    _require_simple(g)
    if any(isinstance(v, float) for v in kappa):
        raise TypeError("kappa needs exact rational coordinates, not floats")
    kappa = tuple(Fraction(v) for v in kappa)
    d = dual_datum(g)
    if len(kappa) != d.rank:
        raise ValueError("kappa has the wrong length")
    pairs, ord_s = _kappa_pairings(d, kappa)
    sub = sub_datum_from_pairs(d.rank, pairs)
    elliptic = bool(pairs) and sub.is_semisimple()

    if not elliptic:
        return EndoscopicTriple(
            ambient=g,
            levi_datum=sub,
            h_datum=dual_datum(sub),
            s_point=kappa,
            ord_s=ord_s,
            vertex_orbit=frozenset(),
            elliptic=False,
            lam=FinAbGroup(),
        )

    action = center_alcove_action(g)
    node = action.vertex_index.get(fold_to_alcove(d, action.ext, kappa))
    if node is None:
        raise AssertionError("elliptic kappa did not fold onto an alcove vertex")
    triple = _elliptic_triple(action, node)
    if triple.levi_datum.cartan_type() != sub.cartan_type():
        raise AssertionError("vertex subsystem disagrees with kappa subsystem")
    return triple


# ---------------------------------------------------------------------------
# diagram facts behind the case-by-case estimate


def estimate_diagram_check(g: RootDatum) -> dict:
    """Report every non-special center orbit (not the orbit of the affine
    node) of size > 2, with its mark and gcd against the center order. Type A
    is excluded."""
    _require_simple(g)
    if g.label and g.label[0] == "A":
        raise ValueError("type A is excluded from the estimate check")
    if not g.label and g.cartan_type().startswith("A") and "+" not in g.cartan_type():
        raise ValueError("type A is excluded from the estimate check")
    action = center_alcove_action(g)
    orbits = action.orbits
    special = next(o for o in orbits if 0 in o)
    z_order = action.group.order
    large = []
    for o in orbits:
        if o == special or len(o) <= 2:
            continue
        mark = action.ext.marks[min(o)]
        large.append(
            {
                "orbit": sorted(o),
                "size": len(o),
                "ord_s": mark,
                "gcd_with_center": gcd(mark, z_order),
            }
        )
    large.sort(key=lambda r: r["orbit"])
    return {
        "type": g.cartan_type(),
        "center_order": z_order,
        "special_orbit": sorted(special),
        "large_nonspecial_orbits": large,
    }
