"""Root data for the simple series A-G at chosen isogeny, their duals, and
extended Dynkin diagrams with alcove vertex data.

Conventions. A root datum here is a lattice X = Z^rank together with aligned
tuples of roots (vectors in X) and coroots (vectors in the dual lattice Y),
pairing = the standard dot product between dual bases. Simple roots follow
Bourbaki numbering. The Cartan matrix is C[i][j] = <alpha_j, alpha_i^vee>,
rows indexed by coroots.

Isogeny choices:
  'sc'  X is spanned by fundamental weights (simply connected form)
  'ad'  X is spanned by the roots (adjoint form)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .exact_math import cached, inverse_rational

SERIES = ("A", "B", "C", "D", "E", "F", "G")


# ---------------------------------------------------------------------------
# linear algebra helpers over Q


def _dot(x, y):
    return sum(map(mul, x, y))


def _rank_of_span(vectors, dim):
    """Rank of the span of integer vectors of length dim. Each vector is
    reduced against an integer echelon basis, kept sorted by pivot column,
    by cross-multiplying with the pivot rows and dividing out the content;
    what is left, if nonzero, joins the basis. The search stops once the
    rank reaches dim."""
    basis = []  # (pivot column, row); pivot columns are distinct, rows zero left of them
    for v in vectors:
        if len(basis) == dim:
            break
        row = list(v)
        for col, p in basis:
            x = row[col]
            if x:
                row = [p[col] * a - x * b for a, b in zip(row, p)]
                g = gcd(*row)
                if g:
                    row = [a // g for a in row]
        col = next((i for i, a in enumerate(row) if a), None)
        if col is not None:
            basis.append((col, row))
            basis.sort()
    return len(basis)


# ---------------------------------------------------------------------------
# Cartan matrices, Bourbaki numbering


def cartan_matrix(series, rank):
    """C[i][j] = <alpha_j, alpha_i^vee> for the given simple series."""
    n = rank
    if series == "A":
        if n < 1:
            raise ValueError("A_n needs rank >= 1")
        pairs = [(i, i + 1) for i in range(n - 1)]
        special = {}
    elif series == "B":
        if n < 2:
            raise ValueError("B_n needs rank >= 2")
        pairs = [(i, i + 1) for i in range(n - 1)]
        special = {(n - 1, n - 2): -2}  # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
    elif series == "C":
        if n < 2:
            raise ValueError("C_n needs rank >= 2")
        pairs = [(i, i + 1) for i in range(n - 1)]
        special = {(n - 2, n - 1): -2}  # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -1 ... transpose of B
    elif series == "D":
        if n < 3:
            raise ValueError("D_n needs rank >= 3")
        pairs = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        special = {}
    elif series == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs rank 6, 7 or 8")
        # Bourbaki: node 2 hangs off node 4; chain 1-3-4-5-6(-7)(-8)
        chain = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
        pairs = chain + [(1, 3)]
        special = {}
    elif series == "F":
        if n != 4:
            raise ValueError("F_4 only")
        pairs = [(0, 1), (1, 2), (2, 3)]
        special = {(2, 1): -2}  # alpha_3 short: <alpha_2, alpha_3^vee> = -2
    elif series == "G":
        if n != 2:
            raise ValueError("G_2 only")
        pairs = [(0, 1)]
        special = {(0, 1): -3}  # alpha_1 short: <alpha_2, alpha_1^vee> = -3
    else:
        raise ValueError(f"unknown series {series!r}")

    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in pairs:
        c[i][j] = -1
        c[j][i] = -1
    for (i, j), v in special.items():
        c[i][j] = v
    return c


def _check_series_rank(series, rank):
    if series not in SERIES:
        raise ValueError(f"unknown series {series!r}")
    if rank > 8:
        raise ValueError("rank cap is 8")
    cartan_matrix(series, rank)  # validates the combination


# ---------------------------------------------------------------------------
# the datum


class RootDatum:
    """Lattice Z^rank with aligned root/coroot tuples.

    A datum is immutable once built. What is derived from it (its dual, the
    inverse Cartan matrix as integer rows over one denominator, the highest
    root, semisimplicity, the Cartan type, the extended diagram, and for
    endoscopy the center action and the elliptic triple of each center
    orbit) is cached in `derived` (see `exact_math.cached`), a number of
    entries fixed by the datum, never one per query point.
    """

    def __init__(self, rank, roots, coroots, simple_indices, label=None, validate=True):
        self.rank = int(rank)
        self.roots = tuple(tuple(v) for v in roots)
        self.coroots = tuple(tuple(v) for v in coroots)
        self.simple_indices = tuple(simple_indices)
        self.label = label  # (series, rank, isogeny) for constructed data
        self.derived = {}
        if validate:
            self._validate()

    def _validate(self):
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots misaligned")
        for b, bv in zip(self.roots, self.coroots):
            if _dot(b, bv) != 2:
                raise ValueError(f"<beta, beta^vee> != 2 for {b}")
        rootset = set(self.roots)
        for i in self.simple_indices:
            if not 0 <= i < len(self.roots):
                raise ValueError("bad simple index")
        # reflections through simple roots must permute the roots
        for i in self.simple_indices:
            a, av = self.roots[i], self.coroots[i]
            for b in self.roots:
                k = _dot(b, av)
                # k = 0: the reflection fixes b
                if k and tuple(x - k * y for x, y in zip(b, a)) not in rootset:
                    raise ValueError("root set not reflection-closed")

    # -- basic accessors

    @property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simple_indices)

    def is_semisimple(self):
        return cached(
            self, "semisimple", lambda d: _rank_of_span(d.roots, d.rank) == d.rank and len(d.roots) > 0
        )

    def coroot_of(self, root):
        return self.coroots[self.roots.index(tuple(root))]

    def cartan(self):
        s, sv = self.simple_roots, self.simple_coroots
        return [[_dot(a, bv) for a in s] for bv in sv]

    # -- expansion in the simple basis

    def _cartan_inverse(self):
        """(den, rows): the inverse of the simple Cartan matrix is rows / den,
        integer rows over their least common denominator. Row i gives the
        fundamental coweight omega_i^vee = sum_k rows[i][k] alpha_k^vee / den,
        column i the coordinate over alpha_i^vee of a point from its
        pairings with the simple roots."""
        return cached(self, "cartan_inverse", lambda d: inverse_rational(d.cartan()))

    def simple_coefficients(self, root):
        """Coefficients of a root over the simple roots, as Fractions."""
        # sum_j c_j <alpha_j, alpha_i^vee> = <root, alpha_i^vee>, so c = C^-1 b
        b = [_dot(root, av) for av in self.simple_coroots]
        den, rows = self._cartan_inverse()
        return tuple(Fraction(_dot(row, b), den) for row in rows)

    def highest_root(self):
        """Unique root of maximal height; requires an irreducible system."""
        return cached(self, "highest_root", RootDatum._find_highest_root)

    def _find_highest_root(self):
        # height(b) = sum_i (C^-1 <b, alpha^vee>)_i = <b, h> / den where h
        # sums the simple coroots weighted by the column sums of the integer
        # rows; each height is one integer dot product
        sums = [sum(col) for col in zip(*self._cartan_inverse()[1])]
        h = [_dot(sums, col) for col in zip(*self.simple_coroots)]
        heights = [_dot(b, h) for b in self.roots]
        best_h = max(heights, default=None)
        ties = [b for b, height in zip(self.roots, heights) if height == best_h]
        if len(ties) != 1:
            raise ValueError("highest root not unique: system is reducible")
        return ties[0]

    # -- classification

    def components(self):
        """Connected components of the simple diagram, as index lists."""
        n = len(self.simple_indices)
        c = self.cartan()
        seen, comps = set(), []
        for start in range(n):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if j not in seen and c[i][j] != 0 and i != j:
                        seen.add(j)
                        stack.append(j)
            comps.append(sorted(comp))
        return comps

    def cartan_type(self):
        """Canonical type string, e.g. 'B3', 'A1+A1', 'A2+A2+A2', '0'."""
        return cached(self, "cartan_type", RootDatum._classify)

    def _classify(self):
        if not self.simple_indices:
            return "0"
        c = self.cartan()
        names = [_classify_component(comp, c) for comp in self.components()]
        names.sort(key=lambda s: (-int(s[1:]), s[0]))
        return "+".join(names)

    def __repr__(self):
        if self.label:
            series, rank, isog = self.label
            return f"RootDatum({series}{rank}, {isog})"
        return f"RootDatum({self.cartan_type()}, rank {self.rank} lattice, derived)"


def _classify_component(comp, c):
    """Type of one connected component of a Cartan matrix."""
    k = len(comp)
    if k == 1:
        return "A1"
    edges = {}
    for a in comp:
        for b in comp:
            if a < b and c[a][b] != 0:
                edges[(a, b)] = c[a][b] * c[b][a]
    mults = sorted(edges.values())
    deg = {a: sum(1 for e in edges if a in e) for a in comp}
    maxdeg = max(deg.values())

    if mults == [1] * (k - 1):
        if maxdeg <= 2:
            return f"A{k}"
        if maxdeg == 3 and sum(1 for d in deg.values() if d == 3) == 1:
            branch = next(a for a, d in deg.items() if d == 3)
            legs = _leg_lengths(comp, edges, branch)
            legs.sort()
            if legs == [1, 1, k - 3]:
                return f"D{k}"
            if legs == [1, 2, 2] and k == 6:
                return "E6"
            if legs == [1, 2, 3] and k == 7:
                return "E7"
            if legs == [1, 2, 4] and k == 8:
                return "E8"
        raise ValueError("unrecognized simply-laced diagram")
    if sorted(mults)[-1] == 3 and k == 2:
        return "G2"
    if mults.count(2) == 1 and all(m in (1, 2) for m in mults) and maxdeg <= 2:
        (a, b), = [e for e, m in edges.items() if m == 2]
        if k == 2:
            return "B2"  # = C2 as an abstract type
        # path: the double edge sits at an end (B/C) or in the middle (F4)
        enda, endb = deg[a] == 1, deg[b] == 1
        if not (enda or endb):
            if k == 4:
                return "F4"
            raise ValueError("double edge strictly inside a long path")
        leaf = a if enda else b
        other = b if enda else a
        # leaf short <=> <alpha_other, alpha_leaf^vee> = -2 <=> longer 'other'
        leaf_is_short = c[leaf][other] == -2
        return f"B{k}" if leaf_is_short else f"C{k}"
    raise ValueError(f"unrecognized diagram with edge multiplicities {mults}")


def _leg_lengths(comp, edges, branch):
    adj = {a: [] for a in comp}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    legs = []
    for start in adj[branch]:
        length, prev, cur = 1, branch, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    return legs


# ---------------------------------------------------------------------------
# construction


def reflection_closure(gens):
    """Closure of the (root, coroot) pairs gens under their reflections, as
    (root, coroot) pairs sorted by root."""
    gens = [(tuple(a), tuple(av)) for a, av in gens]
    pairs = dict(gens)
    frontier = list(pairs)
    while frontier:
        nxt = []
        for b in frontier:
            bv = pairs[b]
            for a, av in gens:
                k = _dot(b, av)
                if not k:
                    continue  # the reflection fixes b
                rb = tuple(x - k * y for x, y in zip(b, a))
                if rb not in pairs:
                    k = _dot(a, bv)
                    pairs[rb] = tuple(x - k * y for x, y in zip(bv, av))
                    nxt.append(rb)
        frontier = nxt
    return sorted(pairs.items())


def build_root_datum(series, rank, isogeny="sc") -> RootDatum:
    """Construct the root datum of the given simple series and isogeny type."""
    _check_series_rank(series, rank)
    if isogeny not in ("sc", "ad"):
        raise ValueError(f"unknown isogeny {isogeny!r}")
    c = cartan_matrix(series, rank)
    n = rank
    if isogeny == "sc":
        # X = weight basis: alpha_j = column j of C; coroots are unit vectors
        simple = [tuple(c[i][j] for i in range(n)) for j in range(n)]
        simple_cov = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    else:
        # X = root basis: alpha_j = e_j; coroot j = row j of C
        simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
        simple_cov = [tuple(c[i][k] for k in range(n)) for i in range(n)]
    pairs = reflection_closure(zip(simple, simple_cov))
    roots = [a for a, _ in pairs]
    idx = [roots.index(s) for s in simple]
    return RootDatum(n, roots, [av for _, av in pairs], idx, label=(series, rank, isogeny))


_DUAL_SERIES = {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "F", "G": "G"}
_DUAL_ISOGENY = {"sc": "ad", "ad": "sc"}


def dual_datum(d: RootDatum) -> RootDatum:
    """Swap (X, roots) with (Y, coroots). Every call on d returns the same
    object, whose dual is d itself."""
    return cached(d, "dual", _build_dual)


def _build_dual(d: RootDatum) -> RootDatum:
    label = None
    if d.label:
        series, rank, isog = d.label
        label = (_DUAL_SERIES[series], rank, _DUAL_ISOGENY[isog])
    dual = RootDatum(d.rank, d.coroots, d.roots, d.simple_indices, label=label, validate=False)
    cached(dual, "dual", lambda _: d)  # the link back
    return dual


def sub_datum_from_pairs(rank, pairs) -> RootDatum:
    """Datum on the same lattice spanned by a reflection-closed set of
    (root, coroot) pairs. A simple system is extracted with a generic
    big-base linear functional."""
    pairs = [(tuple(a), tuple(b)) for a, b in pairs]
    if not pairs:
        return RootDatum(rank, (), (), (), validate=False)
    maxc = max(abs(x) for a, _ in pairs for x in a)
    base = maxc + 2
    weights = [base**k for k in range(rank)]

    def phi(v):
        return _dot(v, weights)

    positives = [a for a, _ in pairs if phi(a) > 0]
    posset = set(positives)
    # a positive root b is simple unless b - alpha is a positive root for a
    # simple alpha; such an alpha has smaller phi than b, so in phi order it
    # is found before b is reached
    found = set()
    for b in sorted(positives, key=phi):
        if not any(tuple(x - y for x, y in zip(b, a)) in posset for a in found):
            found.add(b)
    simple = [b for b in positives if b in found]
    roots = sorted(a for a, _ in pairs)
    co = dict(pairs)
    coroots = [co[a] for a in roots]
    idx = [roots.index(s) for s in simple]
    return RootDatum(rank, roots, coroots, idx)


# ---------------------------------------------------------------------------
# extended Dynkin diagram and the fundamental alcove


class ExtDynkin:
    """Extended diagram: node 0 is the affine node (lowest root -theta),
    nodes 1..n are the simple roots. marks[i] are the coefficients n_i with
    sum_i marks[i] * node_vector[i] = 0 and marks[0] = 1. vertices[i] is the
    alcove vertex attached to node i (origin for i = 0, else
    omega_i^vee / marks[i]) in Y tensor Q. The diagram is cached on its datum
    and shared by every caller, so its lists must not be mutated."""

    def __init__(self, node_vectors, node_coroots, marks, vertices):
        self.node_vectors = node_vectors
        self.node_coroots = node_coroots
        self.marks = marks
        self.vertices = vertices

    @property
    def n_nodes(self):
        return len(self.node_vectors)


def extended_dynkin(d: RootDatum) -> ExtDynkin:
    """Extended diagram of an irreducible semisimple datum, the same object
    on every call."""
    return cached(d, "extended_dynkin", _build_extended_dynkin)


def _build_extended_dynkin(d: RootDatum) -> ExtDynkin:
    if not d.is_semisimple():
        raise ValueError("extended diagram needs a semisimple datum")
    if "+" in d.cartan_type():
        raise ValueError("extended diagram needs an irreducible system")
    theta = d.highest_root()
    theta_cov = d.coroot_of(theta)
    simple = list(d.simple_roots)
    simple_cov = list(d.simple_coroots)

    coeffs = d.simple_coefficients(theta)
    marks = [1] + [int(c) for c in coeffs]
    if any(Fraction(m) != c for m, c in zip(marks[1:], coeffs)):
        raise AssertionError("highest root has non-integer coefficients")

    node_vectors = [tuple(-x for x in theta)] + simple
    node_coroots = [tuple(-x for x in theta_cov)] + simple_cov

    # sum of marks * node vectors vanishes
    total = tuple(
        sum(m * v[k] for m, v in zip(marks, node_vectors)) for k in range(d.rank)
    )
    if any(total):
        raise AssertionError("marked node vectors do not sum to zero")

    # alcove vertices: 0 and omega_i^vee / n_i, omega_i^vee from row i of C^-1
    den, inv = d._cartan_inverse()
    cov_cols = list(zip(*simple_cov))
    vertices = [tuple(Fraction(0) for _ in range(d.rank))]
    for row, m in zip(inv, marks[1:]):
        vertices.append(tuple(Fraction(_dot(row, col), den * m) for col in cov_cols))
    return ExtDynkin(node_vectors, node_coroots, marks, vertices)
