"""Root data for the simple series A-G at chosen isogeny, their duals, and
extended Dynkin diagrams with their marks and extended Cartan columns.

Conventions. A root datum here is a lattice X = Z^rank together with aligned
tuples of roots (vectors in X) and coroots (vectors in the dual lattice Y),
pairing = the standard dot product between dual bases. Simple roots follow
Bourbaki numbering. The Cartan matrix is C[i][j] = <alpha_j, alpha_i^vee>,
rows indexed by coroots.

Isogeny choices:
  'sc'  X is spanned by fundamental weights (simply connected form)
  'ad'  X is spanned by the roots (adjoint form)

`build_root_datum` is a registry: one datum per (series, rank, isogeny) per
process, so everything cached on a datum (its dual, extended diagram, center
action, elliptic triples) is built once per input.

Packed vectors. The reflection closure, the closure test of a datum and the
simple-root search run on integers, not tuples. A vector v of n entries
packs into one Python int, its code: field i holds v[i] + 2^31 in bits
32 i .. 32 i + 31, so the code is v's image under the linear map
P(v) = sum v[i] 2^(32 i) plus a fixed bias. A reflection b - k a is then
the one operation code(b) - k P(a), and a root set is a set of ints. A
root is packed together with its pairings with the reflecting coroots, so
the multiplier k of the next reflection is read off a field instead of
taken as a dot product. Codes decode field by field through `struct`.

P is injective only while every field stays inside [-2^31, 2^31). So every
root entry, coroot entry and pairing that is packed must lie in
[-ROOT_ENTRY_BOUND, ROOT_ENTRY_BOUND), ROOT_ENTRY_BOUND = 2^7 (a signed
byte); one reflection of such values moves each field by at most
2^7 + 2^14 < 2^31, so a reflected code never wraps a field and its set
membership is exact. An entry or a pairing outside the range is refused,
and so is a closure past ROOT_BUDGET = 240 roots (E8, the largest system
the library admits); the library's data stay within +-6.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from operator import mul

from .exact_math import cached, inverse_rational, over_budget
from .exact_math.intmat import _gauss_jordan

SERIES = ("A", "B", "C", "D", "E", "F", "G")

ROOT_BUDGET = 240
RANK_BUDGET = 8  # the largest rank of a root datum, and of a twisted torus
ROOT_ENTRY_BOUND = 2**7
_FIELD_BITS = 32
_HALF = 1 << (_FIELD_BITS - 1)


# ---------------------------------------------------------------------------
# linear algebra helpers over Q


def _dot(x, y):
    return sum(map(mul, x, y))


def _packing(n):
    """(bias, pack, unpack, outside) for vectors of n entries: pack(v) is the
    code of v, the fields v[i] + 2^31 at bits 32 i, and unpack inverts it;
    pack(v) - bias is the linear image P(v). Biasing a field flips its top
    bit, so both directions are one `struct` call and one xor. outside(code)
    is nonzero when a field lies outside [-ROOT_ENTRY_BOUND,
    ROOT_ENTRY_BOUND): shifted down by 2^31 - ROOT_ENTRY_BOUND, an admitted
    field is below 2^8, and a field below the range borrows, so its high
    bits show as well."""
    ones = ((1 << (_FIELD_BITS * n)) - 1) // ((1 << _FIELD_BITS) - 1)
    bias = _HALF * ones
    low = bias - ROOT_ENTRY_BOUND * ones
    high = ((1 << _FIELD_BITS) - 2 * ROOT_ENTRY_BOUND) * ones
    fmt = struct.Struct(f"<{n}i")
    size = fmt.size

    def pack(v):
        return int.from_bytes(fmt.pack(*v), "little") ^ bias

    def unpack(code):
        return fmt.unpack((code ^ bias).to_bytes(size, "little"))

    def outside(code):
        return (code - low) & high

    return bias, pack, unpack, outside


def _range_error():
    outside = "root entry or pairing outside [-{limit}, {limit}), {budget}"
    return over_budget(None, outside, None, "ROOT_ENTRY_BOUND", ROOT_ENTRY_BOUND)


def _check_range(vectors):
    """ValueError unless every entry of the vectors lies in
    [-ROOT_ENTRY_BOUND, ROOT_ENTRY_BOUND), the range in which packed fields
    cannot wrap."""
    entries = list(chain.from_iterable(vectors))
    if entries and (max(entries) >= ROOT_ENTRY_BOUND or min(entries) < -ROOT_ENTRY_BOUND):
        raise _range_error()


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
        special = {(n - 2, n - 1): -2}  # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2, the transpose of B
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
    if rank > RANK_BUDGET:
        raise over_budget("rank", "rank", rank, "RANK_BUDGET", RANK_BUDGET)
    cartan_matrix(series, rank)  # validates the combination


# ---------------------------------------------------------------------------
# the datum


class RootDatum:
    """Lattice Z^rank with aligned root/coroot tuples.

    A datum is immutable once built. The coefficients of a root over the
    simple roots are integers (`simple_coefficients`), read off the
    integer rows of C^-1. What is derived from it (its dual, the
    inverse Cartan matrix as integer rows over one denominator, the highest
    root, the Cartan type, the extended diagram, and for endoscopy the
    center action and the elliptic triple of each center orbit) is cached in
    `derived` (see `exact_math.cached`), a number of entries fixed by the
    datum, never one per query point. Semisimplicity is not cached: it is
    read off the simple system, a basis of the span of the roots, which
    every datum is built with (the registry, the dual,
    `sub_datum_from_pairs` and `endoscopy.pseudo_levi`). Each of them lists
    the roots in sorted order, so two data built from the same (root,
    coroot) pairs and simple roots are equal field for field, and the
    origin's pseudo-Levi can be the dual itself.

    Validation proves <beta, beta^vee> = 2 for every pair, the simple
    roots independent and the roots closed under their reflections. The
    library skips it for the empty datum and for the dual; the tests
    validate the dual of every admitted datum.

    `build_root_datum` returns one object per (series, rank, isogeny), shared
    by every caller in the process, so a datum and what it derives must not
    be mutated. A dual is owned by its datum through the cached link back:
    the dual of C2 sc is labelled (B, 2, ad) but is not the registry's
    B2 ad object.
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
        for i in self.simple_indices:
            if not 0 <= i < len(self.roots):
                raise ValueError("bad simple index")
        # reflections through simple roots must permute the roots. The
        # pairings of all roots with one simple coroot come from one packed
        # sum over the columns of the roots; |pairing| <= rank 2^14 decodes
        # exactly below rank 2^17, and each sum is range-checked packed
        n, simple_cov = self.rank, self.simple_coroots
        _check_range(self.roots + simple_cov)
        if n * ROOT_ENTRY_BOUND**2 >= _HALF:
            raise ValueError(f"rank {n} beyond the packed range, rank < 2^17")
        bias, pack, unpack, outside = _packing(len(self.roots))
        cols = [pack(col) - bias for col in zip(*self.roots)]
        sums = [sum(map(mul, av, cols)) + bias for av in simple_cov]
        if any(map(outside, sums)):
            raise _range_error()
        pairings = list(map(unpack, sums))
        # the simple roots are distinct and independent: the Cartan matrix,
        # entry (i, j) = <alpha_j, alpha_i^vee>, is nonsingular
        try:
            _gauss_jordan([[ks[j] for j in self.simple_indices] for ks in pairings], len(pairings))
        except ValueError:
            raise ValueError("simple roots are linearly dependent: the Cartan matrix is singular") from None
        bias, pack, _, _ = _packing(n)
        codes = [pack(b) - bias for b in self.roots]  # P(b)
        codeset = set(codes)
        for i, ks in zip(self.simple_indices, pairings):
            step = codes[i]
            if not codeset.issuperset([code - k * step for code, k in zip(codes, ks)]):
                raise ValueError("root set not reflection-closed")

    # -- basic accessors

    @property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simple_indices)

    def is_semisimple(self):
        """Whether the roots span X over Q. The simple roots are a basis of
        that span (validation checks that they are independent), so this is
        their count against the rank."""
        return len(self.simple_indices) == self.rank

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
        """Coefficients of a root over the simple roots, as ints; an
        AssertionError if one is not an integer, which no root of the
        datum gives."""
        # sum_j c_j <alpha_j, alpha_i^vee> = <root, alpha_i^vee>, so c = C^-1 b
        b = [_dot(root, av) for av in self.simple_coroots]
        den, rows = self._cartan_inverse()
        coeffs = [divmod(_dot(row, b), den) for row in rows]
        if any(r for _, r in coeffs):
            raise AssertionError(f"root {root} has non-integer coefficients")
        return tuple(c for c, _ in coeffs)

    def highest_root(self):
        """Unique root of maximal height; requires an irreducible system.
        Not cached: its one caller, `extended_dynkin`, is."""
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

    def cartan_type(self):
        """Canonical type string, e.g. 'B3', 'A1+A1', 'A2+A2+A2', '0'."""
        return cached(self, "cartan_type", RootDatum._classify)

    def _classify(self):
        """Each connected component of the simple diagram is typed by
        `_component_type`, which is right on every finite diagram. A diagram
        of no finite type gets some name there, and the root count refuses
        it: a finite system of type X_k has k h roots, h the Coxeter
        number."""
        c = self.cartan()
        nbrs = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(c)]
        types, seen = [], set()
        for start in range(len(c)):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            for i in comp:  # the walk appends to the list it walks
                new = [j for j in nbrs[i] if j not in seen]
                seen.update(new)
                comp += new
            types.append(_component_type(comp, c, nbrs))
        types.sort(key=lambda t: (-t[1], t[0]))
        name = "+".join(f"{s}{k}" for s, k in types)
        count = sum(k * _coxeter_number(s, k) for s, k in types)
        if count != len(self.roots):
            raise ValueError(f"root count check: {len(self.roots)} roots, but {name} has {count}")
        return name or "0"

    def __repr__(self):
        if self.label:
            series, rank, isog = self.label
            return f"RootDatum({series}{rank}, {isog})"
        return f"RootDatum({self.cartan_type()}, rank {self.rank} lattice, derived)"


def _component_type(comp, c, nbrs):
    """(series, k) of a connected component of k nodes, from its bonds and
    its branch node. A triple bond is G2. A double bond a-b with
    c[a][b] = -2, so alpha_a short, is B_k when a is a leaf (B2 when k = 2),
    C_k when only b is, F4 when neither is. A simply-laced path is A_k; a
    branch node with two leaf neighbours is D_k's, with one E_k's."""
    k = len(comp)
    bonds = {c[a][b]: (a, b) for a in comp for b in nbrs[a]}
    if -3 in bonds:
        return "G", k
    if -2 in bonds:
        a, b = bonds[-2]
        if len(nbrs[a]) == 1:
            return "B", k
        return ("C" if len(nbrs[b]) == 1 else "F"), k
    branch = next((a for a in comp if len(nbrs[a]) > 2), None)
    if branch is None:
        return "A", k
    leaves = sum(len(nbrs[b]) == 1 for b in nbrs[branch])
    return ("D" if leaves > 1 else "E"), k


def _coxeter_number(series, k):
    """h of the finite type series_k; 0 for a name of no finite type."""
    if series == "A":
        return k + 1
    if series in "BC":
        return 2 * k
    if series == "D":
        return 2 * k - 2
    return {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}.get(f"{series}{k}", 0)


# ---------------------------------------------------------------------------
# construction


def reflection_closure(gens):
    """Closure of the (root, coroot) pairs gens under their reflections, as
    (root, coroot) pairs sorted by root; ValueError past ROOT_BUDGET roots,
    or for an entry or a pairing outside [-ROOT_ENTRY_BOUND, ROOT_ENTRY_BOUND).
    It only builds data: its one library caller is `build_root_datum`,
    which closes the simple roots of a series. No subsystem is closed
    again: a pseudo-Levi is read off the dual's integral roots
    (`endoscopy.pseudo_levi`), and so is a kappa subsystem.

    A root b is carried as the code of (b, K(b)), K(b)[j] = <b, a_j^vee>,
    and its coroot as the code of (b^vee, L(b)), L(b)[j] = <a_j, b^vee>.
    Both are linear in b, so s_j b = b - k a_j with k = K(b)[j] is
    code - k P(a_j, K(a_j)), and its coroot b^vee - k' a_j^vee with
    k' = L(b)[j] is code - k' P(a_j^vee, L(a_j)): no reflection takes a dot
    product. Each new root is decoded and range-checked once."""
    gens = [(tuple(a), tuple(av)) for a, av in gens]
    if not gens:
        return []
    rank = len(gens[0][0])
    # pairing[j][i] = <a_j, a_i^vee>: row j is K(a_j), column j is L(a_j)
    pairing = [tuple(_dot(a, cv) for _, cv in gens) for a, _ in gens]
    seeds = [(a + row, av + col) for (a, av), row, col in zip(gens, pairing, zip(*pairing))]
    _check_range([v for seed in seeds for v in seed])
    bias, pack, unpack, outside = _packing(rank + len(gens))
    steps = [(rank + j, pack(root) - bias, pack(coroot) - bias) for j, (root, coroot) in enumerate(seeds)]
    states = {}  # code of (b, K(b)) -> (code of (b^vee, L(b)), both decoded)
    for root, coroot in seeds:
        states[pack(root)] = (pack(coroot), root, coroot)
    frontier = [(code, *state) for code, state in states.items()]
    while frontier:
        nxt = []
        for code, cocode, root, coroot in frontier:
            for j, step, costep in steps:
                k = root[j]
                if not k:
                    continue  # the reflection fixes b
                new = code - k * step
                if new not in states:
                    if len(states) == ROOT_BUDGET:
                        closure = "reflection closure exceeds {budget} roots"
                        raise over_budget(None, closure, None, "ROOT_BUDGET", ROOT_BUDGET)
                    newco = cocode - coroot[j] * costep
                    if outside(new) or outside(newco):
                        raise _range_error()
                    state = (newco, unpack(new), unpack(newco))
                    states[new] = state
                    nxt.append((new, *state))
        frontier = nxt
    return sorted((root[:rank], coroot[:rank]) for _, root, coroot in states.values())


@lru_cache(maxsize=None)
def build_root_datum(series, rank, isogeny, /) -> RootDatum:
    """The root datum of the given simple series and isogeny type, one
    object per input per process. A rejected input raises and is not stored,
    so the registry holds at most the 66 admitted inputs."""
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
    # the dual's roots are d's coroots, listed in sorted order like every
    # datum's roots, and its simple indices follow them
    pairs = sorted(zip(d.coroots, d.roots))
    roots = [root for root, _ in pairs]
    simple = [roots.index(d.coroots[i]) for i in d.simple_indices]
    coroots = [coroot for _, coroot in pairs]
    dual = RootDatum(d.rank, roots, coroots, simple, label=label, validate=False)
    cached(dual, "dual", lambda _: d)  # the link back
    return dual


def sub_datum_from_pairs(rank, pairs) -> RootDatum:
    """Datum on the same lattice spanned by a reflection-closed set of
    (root, coroot) pairs. A simple system is extracted with a generic
    linear functional, the packing map P."""
    pairs = [(tuple(a), tuple(b)) for a, b in pairs]
    if not pairs:
        return RootDatum(rank, (), (), (), validate=False)
    # the functional is P, positive on v exactly when the last nonzero entry
    # of v is; every entry lies in the range of ROOT_ENTRY_BOUND, so P is
    # injective on the differences b - a and P(b) - P(a) is P(b - a)
    _check_range([a for a, _ in pairs])
    bias, pack, _, _ = _packing(rank)
    codes = [pack(a) - bias for a, _ in pairs]  # P(a)
    posset = {c for c in codes if c > 0}
    # a positive root b is simple unless b - alpha is a positive root for a
    # simple alpha; such an alpha has smaller P than b, so in P order it is
    # found before b is reached
    found = []
    for c in sorted(posset):
        if not any(c - f in posset for f in found):
            found.append(c)
    found = set(found)
    simple = [a for (a, _), c in zip(pairs, codes) if c in found]
    roots = sorted(a for a, _ in pairs)
    co = dict(pairs)
    coroots = [co[a] for a in roots]
    idx = [roots.index(s) for s in simple]
    return RootDatum(rank, roots, coroots, idx)


# ---------------------------------------------------------------------------
# extended Dynkin diagram and the fundamental alcove


class ExtDynkin:
    """Extended diagram: node 0 is the affine node (lowest root -theta),
    nodes 1..n are the simple roots. marks[i] are the coefficients m_i with
    sum_i marks[i] * node_vector[i] = 0 and marks[0] = 1. The alcove vertex
    of node i (the origin for i = 0, else omega_i^vee / marks[i]) is not
    stored: at the scale D = lcm(marks) its Kac coordinates are
    (D / m_i) e_i (see `endoscopy`).

    columns[i] lists the nonzero entries (j, A[j][i]) of column i of the
    extended Cartan matrix A[j][i] = <node_j, node_i^vee>. In the Kac
    coordinates of the alcove (see `endoscopy`) the reflection in node i is
    p <- p - p_i A[:, i], so these columns are all a fold reads. The diagram
    is cached on its datum and shared by every caller, so its lists must
    not be mutated."""

    def __init__(self, node_vectors, node_coroots, marks, columns):
        self.node_vectors = node_vectors
        self.node_coroots = node_coroots
        self.marks = marks
        self.columns = columns

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

    marks = [1, *d.simple_coefficients(theta)]

    node_vectors = [tuple(-x for x in theta)] + simple
    node_coroots = [tuple(-x for x in theta_cov)] + simple_cov

    # sum of marks * node vectors vanishes
    total = tuple(
        sum(m * v[k] for m, v in zip(marks, node_vectors)) for k in range(d.rank)
    )
    if any(total):
        raise AssertionError("marked node vectors do not sum to zero")

    columns = []
    for cov in node_coroots:
        pairings = (_dot(a, cov) for a in node_vectors)
        columns.append(tuple((j, t) for j, t in enumerate(pairings) if t))
    return ExtDynkin(node_vectors, node_coroots, marks, columns)
