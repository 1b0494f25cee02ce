"""Split elliptic endoscopy at the diagram level.

Everything runs on the extended Dynkin diagram of the dual root system: the
center of the simply connected dual acts on alcove vertices by translate-and-
fold, orbits of that action classify the split elliptic triples, and the dual
roots integral at an alcove vertex form the dual endoscopic root system, with
the other extended-diagram nodes as its simple roots (Borel-de Siebenthal).

All alcove geometry runs on integer Kac coordinates, the barycentric
coordinates of the fundamental alcove (Kac, Infinite-dimensional Lie
algebras, 8.6). At a scale n > 0 a point x of Y tensor Q has p_i =
n <alpha_i, x> for the simple roots (i >= 1) and p_0 = n (1 - <theta, x>);
then sum_i m_i p_i = n for the marks m_i, and the closed alcove is p >= 0.
The scale makes every p_i an integer: the lcm of the denominators of x for
kappa, lcm(marks) for the alcove vertices, where the vertex of node i is
p_i = n / m_i with every other coordinate 0. The reflection in node i,
affine node included, is p <- p - p_i A[:, i] for the extended Cartan
matrix A (`ExtDynkin.columns`), so a fold step is one integer column
update, and a vertex is read off the folded coordinates with no lookup.
Folding first translates by the coroot lattice, reading the coordinates
over the simple coroots off the datum's cached C^-1 (integer rows over one
denominator), which bounds its number of reflection steps independently of
the size of the point (at most 20 passes over the nodes, at E8, over 400
random points of each datum with coordinates up to 10^6); the step budget
FOLD_BUDGET stays as a safety check, so passing it is an AssertionError.

A triple records s by its vertex orbit and ord_s, the order of s, which is
the mark of the orbit's nodes; no alcove point is stored. The elliptic
triple of each center orbit is built once per datum and shared by every
caller (`enumerate_split_elliptic`, `endoscopic_from_kappa`), so triples
must not be mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact_math import FinAbGroup, IntMatrix, Refusal, abelian_subgroup_type, cached, cokernel_group
from .root_datum import (
    RootDatum,
    _dot,
    dual_datum,
    extended_dynkin,
    sub_datum_from_pairs,
)

FOLD_BUDGET = 10**4  # most passes of the fold over the nodes; never reached


def _require_simple(g: RootDatum):
    if not g.is_semisimple():
        raise ValueError("semisimple datum required")
    if "+" in g.cartan_type():
        raise ValueError("irreducible (simple) datum required")


# ---------------------------------------------------------------------------
# alcove folding


def fold_to_alcove(d: RootDatum, ext, p):
    """Affine-Weyl representative in the closed fundamental alcove of d of
    the point with integer Kac coordinates p (see the module docstring),
    returned as its Kac coordinates, a list with the same n = sum m_i p_i."""
    p = list(p)
    n = _dot(ext.marks, p)
    # translate by the coroot lattice (part of the affine Weyl group): subtract
    # floor(c_i) alpha_i^vee, which moves p by -floor(c_i) n A[:, i], so every
    # coordinate c_i lies in [0, 1). Since p_j = n <alpha_j, x> = n sum_i c_i
    # C[i][j], n c_i is column i of C^-1 applied to p_1..p_r (rows would give
    # other numbers unless C is symmetric)
    den, inv = d._cartan_inverse()
    pairings = p[1:]
    for col, entries in zip(zip(*inv), ext.columns[1:]):
        k = _dot(col, pairings) // (den * n)
        if k:
            for j, a in entries:
                p[j] -= k * n * a
    for _ in range(FOLD_BUDGET):
        moved = False
        for i, entries in enumerate(ext.columns):
            t = p[i]
            if t < 0:
                for j, a in entries:
                    p[j] -= t * a
                moved = True
        if not moved:
            return p
    raise AssertionError(f"alcove folding exceeded its step budget FOLD_BUDGET = {FOLD_BUDGET}")


def _vertex_node(ext, p, n):
    """The node whose alcove vertex has Kac coordinates p at scale n, or
    None: exactly one coordinate p_i is nonzero, and m_i p_i = n."""
    nonzero = [i for i, t in enumerate(p) if t]
    if len(nonzero) == 1 and ext.marks[nonzero[0]] * p[nonzero[0]] == n:
        return nonzero[0]
    return None


# ---------------------------------------------------------------------------
# center action on the extended diagram


class CenterDiagramAction:
    """Z(dual sc) acting on the extended-diagram vertex set by translate-fold.

    The element of the class of the mark-1 vertex omega_j^vee sends node i to
    the node of the folded vertex of i translated by omega_j^vee; in Kac
    coordinates at scale D = lcm(marks) that translation is p_j += D,
    p_0 -= D.

    group: the center as a FinAbGroup; elements are torsion-coordinate tuples.
    permutations: element -> tuple p with p[i] = image node of node i, one
    entry for every element of the center.
    orbits: the orbits on the nodes, as frozensets, in the order of their
    smallest nodes; orbit_of: node -> its orbit. The table holds every
    element of the center (the build checks that the mark-1 vertices
    exhaust it), so the orbit of i is read off it as {p[i]}, with no
    closure.
    """

    def __init__(self, ambient, ext, group, permutations):
        self.ambient = ambient
        self.ext = ext
        self.group = group
        self.permutations = permutations
        self.orbits = []
        self.orbit_of = {}
        for i in range(ext.n_nodes):
            if i not in self.orbit_of:
                orb = frozenset(p[i] for p in permutations.values())
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
    nodes = range(ext.n_nodes)

    # the mark-1 vertices are the origin and fundamental coweights omega_j^vee,
    # whose omega-vee coordinates are the unit vector e_j
    transversal = {}
    for node in nodes:
        if ext.marks[node] != 1:
            continue
        cls = pres.torsion_coords([int(k == node) for k in nodes[1:]])
        if cls in transversal:
            raise AssertionError("two mark-1 vertices share a center class")
        transversal[cls] = node
    if len(transversal) != group.order:
        raise AssertionError("mark-1 vertices do not exhaust the center")

    # Kac coordinates at scale D = lcm(marks): vertex i is (D / m_i) e_i
    scale = lcm(*ext.marks)
    permutations = {}
    for cls, j in transversal.items():
        images = []
        for i in nodes:
            kac = [0] * ext.n_nodes
            kac[i] = scale // ext.marks[i]
            # translate by omega_j^vee (by 0 for j = 0)
            kac[j] += scale
            kac[0] -= scale
            image = _vertex_node(ext, fold_to_alcove(d, ext, kac), scale)
            if image is None:
                raise AssertionError("folded vertex is not a vertex")
            images.append(image)
        p = tuple(images)
        if sorted(p) != list(nodes):
            raise AssertionError("center element does not permute the vertices")
        if any(ext.marks[i] != ext.marks[p[i]] for i in nodes):
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

    return CenterDiagramAction(g, ext, group, permutations)


# ---------------------------------------------------------------------------
# pseudo-Levi subsystems


def pseudo_levi(g: RootDatum, vertex) -> RootDatum:
    """Full-rank subsystem of the dual whose simple roots are the
    extended-diagram nodes other than the given one (Borel-de Siebenthal):
    the centralizer of the alcove vertex of that node, read off the dual's
    roots by the integrality rule of `_kappa_pairings`. The vertex of node
    i >= 1 is omega_i^vee / m_i = W / (den m_i), W the integer row i of
    C^-1 over the simple coroots, so a root r is kept iff den m_i divides
    <r, W>. The origin (node 0) keeps every root with the simple roots
    as its nodes, so its pseudo-Levi is the dual itself, H = G. Elsewhere
    the datum's validation proves the kept roots closed under the nodes'
    reflections and the nodes independent (a nonsingular Cartan matrix),
    so the rank many nodes give the datum full rank, and the root count of
    `cartan_type` proves the kept roots no more than the nodes generate."""
    _require_simple(g)
    d = dual_datum(g)
    ext = extended_dynkin(d)
    if type(vertex) is not int:
        raise ValueError(f"vertex {vertex!r} is not an int")
    if not 0 <= vertex < ext.n_nodes:
        raise ValueError(f"vertex {vertex} out of range for {ext.n_nodes} nodes")
    if not vertex:
        return d
    den, inv = d._cartan_inverse()
    w = [_dot(inv[vertex - 1], col) for col in zip(*d.simple_coroots)]
    pairs, _ = _kappa_pairings(d, den * ext.marks[vertex], w)
    position = {pair: k for k, pair in enumerate(sorted(pairs))}
    nodes = list(zip(ext.node_vectors, ext.node_coroots))
    del nodes[vertex]
    missing = [node for node in nodes if node not in position]
    if missing:
        raise AssertionError(f"nodes {missing} are not roots of the pseudo-Levi at vertex {vertex}")
    roots, coroots = zip(*position)  # the pairs in sorted order
    sub = RootDatum(d.rank, roots, coroots, [position[node] for node in nodes])
    sub.cartan_type()  # the root count check
    return sub


# ---------------------------------------------------------------------------
# endoscopic triples


class EndoscopicTriple:
    """Split endoscopic datum at the diagram level.

    s is recorded by vertex_orbit, the center orbit of the alcove vertices
    it reduces to (empty for a triple that is not elliptic), and ord_s, its
    order; for the enumerated elliptic triples ord_s equals the vertex
    mark. levi_datum is the dual-side subsystem (the connected centralizer
    of s); for an elliptic triple its simple roots are the extended-diagram
    nodes other than the orbit's smallest node, so -theta is one of them
    unless that node is 0. H_datum is its dual, the endoscopic group
    itself. lam is the stabilizer of the vertex under the center action,
    the symmetry group Lambda of the triple (for a split elliptic triple it
    is also the group Z); it is trivial for a triple that is not elliptic.
    """

    def __init__(self, levi_datum, h_datum, ord_s, vertex_orbit, elliptic, lam):
        self.levi_datum = levi_datum
        self.H_datum = h_datum
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
    rep = min(orbit)  # 0 for the trivial triple: delete the affine node, H = G
    levi = pseudo_levi(g, rep)
    lam = action.stabilizer(rep)
    if lam.order * len(orbit) != action.group.order:
        raise AssertionError("orbit-stabilizer mismatch")
    return EndoscopicTriple(
        levi_datum=levi,
        h_datum=dual_datum(levi),
        ord_s=ord_s,
        vertex_orbit=orbit,
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


def _clear_denominators(kappa):
    """(n, v) for a Fraction point kappa: n the lcm of its denominators and
    v = n kappa, an integer vector."""
    n = lcm(1, *(k.denominator for k in kappa))
    return n, [k.numerator * (n // k.denominator) for k in kappa]


def _kappa_pairings(d: RootDatum, n, v):
    """(pairs, ord_s) for the point kappa = v / n, v an integer vector: the
    (root, coroot) pairs of d whose root pairs integrally with kappa, and
    the order of exp(2 pi i kappa) in the adjoint torus, the lcm of the
    denominators of the root pairings. The one integrality rule, for kappa
    and for the alcove vertices of `pseudo_levi`."""
    # <r, kappa> = <r, v> / n, so r is integral iff n | <r, v>, and the lcm
    # is n / gcd(n, all <r, v>)
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
        raise Refusal("kappa", "kappa has the wrong length")
    n, v = _clear_denominators(kappa)
    pairs, ord_s = _kappa_pairings(d, n, v)
    sub = sub_datum_from_pairs(d.rank, pairs)
    elliptic = bool(pairs) and sub.is_semisimple()

    if not elliptic:
        return EndoscopicTriple(
            levi_datum=sub,
            h_datum=dual_datum(sub),
            ord_s=ord_s,
            vertex_orbit=frozenset(),
            elliptic=False,
            lam=FinAbGroup(),
        )

    action = center_alcove_action(g)
    ext = action.ext
    # Kac coordinates at scale n: p_i = <node_i, v>, plus n for the affine node
    p = [_dot(a, v) for a in ext.node_vectors]
    p[0] += n
    node = _vertex_node(ext, fold_to_alcove(d, ext, p), n)
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
    is excluded by the root system, so D3 = A3 is excluded too."""
    _require_simple(g)
    if g.cartan_type().startswith("A"):
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
