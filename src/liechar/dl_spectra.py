"""Exact character theory for the rank-1 finite matrix groups.

Two independent routes produce the full character table: a modular
eigenvector solver in the style of Dixon, and the classical table. The
classical table is read off the Deligne-Lusztig characters, each kept as
the one row eps_G eps_T R_T^theta (`dl_character`, the character formula
over the torus points, one function for every torus and every theta,
singular theta included): the torus-series rows are those rows at theta in
general position, the Steinberg rows are R_split minus a linear character,
and SL2's four half characters are the row at theta0 plus or minus a
quadratic Gauss sum at the regular unipotent classes, halved. On top of
them sit Springer's identity between the unipotent values and additive
character sums over an adjoint orbit, decided on a whole grid of torus
characters and Lie points at once (`springer_grid`: each side computed once,
each cell by the texts of its two values), and the reduction of a mixed
trace to the semisimple part's centralizer.

Every equality here is decided in exact cyclotomic arithmetic.

This module keeps no state of its own. What it builds is cached on its
owner (see `exact_math.cached`): the classes and orbit sums on the group
and the torus-series characters on their torus. Each cyclotomic value
memoises its own reduction.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import add

from . import _kernels
from .exact_math import (
    Cyclotomic, cached, is_prime, jordan_exponent, over_budget, powers, primitive_element, rref_mod,
)
from .finite_lie import (
    FiniteLieGroup,
    TorusInG,
    build_finite_group,
    is_strongly_regular,
    quasi_logarithm,
    tori_and_regularity,
)

DIXON_ORDER_BUDGET = 10**4  # most group elements a Dixon table is built over
DIXON_MODULUS_BOUND = 10**6  # Dixon's prime l lies below it (see _apply_packed)


# ---------------------------------------------------------------------------
# conjugacy classes


class ClassData:
    """Conjugacy classes of a finite group in a canonical order.

    Classes are sorted by (size, smallest member), which puts the identity
    class first.  `index` maps every group element to its class index.
    """

    def __init__(self, group, classes):
        members = sorted(
            (tuple(sorted(c)) for c in classes), key=lambda m: (len(m), m[0])
        )
        self.group = group
        self.members = tuple(members)
        self.reps = tuple(m[0] for m in members)
        self.sizes = tuple(len(m) for m in members)
        self.count = len(members)
        self.index = {x: ci for ci, mem in enumerate(members) for x in mem}
        self.group_order = sum(self.sizes)
        if self.group_order != len(group.elements):
            raise AssertionError("classes do not partition the group")
        self.identity_index = self.index[group.identity]

    def class_of(self, x):
        try:
            return self.index[x]
        except KeyError:
            raise ValueError("not a group element") from None

    def __repr__(self):
        return f"ClassData({self.count} classes, order {self.group_order})"


def conjugacy_classes(group) -> ClassData:
    """Conjugacy classes of `group`, as ClassData cached on it under
    "classes". A matrix group reads them off one partition of its elements
    (`_kernels.conjugacy_partition`) on first use; any other group brings
    its own, stored there when it is made.
    """
    return cached(group, "classes", _partition_classes)


def _partition_classes(g: FiniteLieGroup) -> ClassData:
    """The classes of a matrix group, one orbit each of the partition of
    its elements."""
    return ClassData(g, _kernels.conjugacy_partition(g.elements, g.gens, g.tables))


# ---------------------------------------------------------------------------
# class functions and tables


class ClassFunction:
    """One exact cyclotomic value per conjugacy class."""

    __slots__ = ("classes", "values")

    def __init__(self, classes: ClassData, values):
        vals = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
            for v in values
        )
        if len(vals) != classes.count:
            raise ValueError("one value per class required")
        self.classes = classes
        self.values = vals

    def value_at(self, element):
        return self.values[self.classes.class_of(element)]

    @property
    def degree_value(self):
        return self.values[self.classes.identity_index]

    def inner(self, other: "ClassFunction"):
        """Hermitian inner product, averaged over the group."""
        if other.classes is not self.classes:
            raise ValueError("class data mismatch")
        total = Cyclotomic.hermitian_sum(self.classes.sizes, self.values, other.values)
        return total * Fraction(1, self.classes.group_order)

    def __add__(self, other):
        return ClassFunction(
            self.classes, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        return ClassFunction(
            self.classes, [a - b for a, b in zip(self.values, other.values)]
        )

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if other.classes is not self.classes:
            return False
        return all(a == b for a, b in zip(self.values, other.values))

    __hash__ = None

    def __repr__(self):
        return f"ClassFunction({self.classes.count} classes)"


class CharacterTable:
    """Rows are exact irreducible characters on a shared class list."""

    def __init__(self, classes: ClassData, rows):
        self.classes = classes
        self.rows = tuple(rows)
        degs = []
        for r in self.rows:
            d = r.degree_value.rational_value()
            if d.denominator != 1 or d <= 0:
                raise AssertionError("row degree is not a positive integer")
            degs.append(int(d))
        self.degrees = tuple(degs)

    def verify(self):
        """Exact row orthogonality and the degree-square identity."""
        n = self.classes.group_order
        if len(self.rows) != self.classes.count:
            raise AssertionError("row count differs from the class count")
        if sum(d * d for d in self.degrees) != n:
            raise AssertionError("degree squares do not sum to the order")
        for i, r in enumerate(self.rows):
            for j in range(i, len(self.rows)):
                want = 1 if i == j else 0
                if not r.inner(self.rows[j]) == want:
                    raise AssertionError(f"orthogonality fails at ({i}, {j})")
        return True

    def __repr__(self):
        return f"CharacterTable({len(self.rows)} rows)"


def tables_match(a: CharacterTable, b: CharacterTable) -> bool:
    """Whether two tables on the same class list agree up to row order.
    Each row is keyed by its values' texts, which are equal exactly when
    the values are (`Cyclotomic.__repr__`)."""
    if a.classes is not b.classes:
        raise ValueError("tables live on different class lists")

    def key(row):
        return [repr(v) for v in row.values]

    return sorted(map(key, a.rows)) == sorted(map(key, b.rows))


# ---------------------------------------------------------------------------
# quadratic Gauss sum


def _gauss_sum(field) -> Cyclotomic:
    """Sum of the additive character over all squares, counted with
    multiplicity: sum over x of zeta_p^(trace(x^2)).  Its square is
    chi2(-1) * q, which is asserted."""
    p = field.p
    coeffs: dict = {}
    for x in range(field.q):
        e = field.trace(field.mul(x, x)) % p
        coeffs[e] = coeffs.get(e, 0) + 1
    tau = Cyclotomic(p, coeffs)
    eps_prime = 1 if field.is_square(field.neg(1)) else -1
    if not tau * tau == eps_prime * field.q:
        raise AssertionError("Gauss sum square identity fails")
    return tau


# ---------------------------------------------------------------------------
# the classical table


def classical_table_oracle(kind, q) -> CharacterTable:
    """The full character table from the Deligne-Lusztig character formula
    and the Gauss sum.

    Completely independent of the modular solver; the two are compared row
    for row in the tests.  kind and q are checked by build_finite_group: GL2
    or SL2, q an odd prime power within the group's budget.  Rows, in order:

    - GL2: for each i, alpha o det with alpha = zeta_(q-1)^(i log), and its
      Steinberg twist R_split^(i, i) - alpha o det; SL2: the trivial
      character and the Steinberg character R_split^1 - 1;
    - one torus-series row per Weyl orbit of nonsingular torus characters,
      split torus first, each the very `dl_character(torus,
      theta).genuine()` object;
    - SL2 only: at the quadratic theta0 of each torus, split first, the two
      halves (sign R_T^theta0 +- D)/2, read off the one row sign R_T^theta0
      of `dl_character`. D is theta0(z) s tau at a class z u, z central, u a
      regular unipotent of square class s = +-1, tau the Gauss sum, and 0
      elsewhere. R_T^theta0 and theta0(z) are rational, so the halves stay
      in Q(zeta_p).

    The central, jordan (z u), regular split and regular elliptic classes
    are read off the tori through the class index; their closed-form counts
    and that they partition the classes are asserted.
    """
    g = build_finite_group(kind, q)
    cd = conjugacy_classes(g)
    tori = tori_and_regularity(g)
    split = tori[0]
    unipotents = g.unipotent_class_reps()[1:]
    centre = [z for z in split.points if _kernels.is_scalar(z, g.tables)]
    families = {
        "central": {cd.index[z] for z in centre},
        "jordan": {cd.index[g.mul(z, u)] for z in centre for u in unipotents},
    }
    for torus in tori:
        families[torus.tag] = {cd.index[t] for t in torus.points if not _kernels.is_scalar(t, g.tables)}
    counts = {fam: len(classes) for fam, classes in families.items()}
    if kind == "GL2":
        want = (q - 1, q - 1, (q - 1) * (q - 2) // 2, (q * q - q) // 2)
    else:
        want = (2, 4, (q - 3) // 2, (q - 1) // 2)
    want = dict(zip(families, want))
    if counts != want:
        raise AssertionError(f"class family counts {counts} != {want}")
    if sum(counts.values()) != cd.count or set().union(*families.values()) != set(range(cd.count)):
        raise AssertionError("the class families do not partition the classes")

    if kind == "GL2":
        rows = []
        for i in range(q - 1):
            linear = ClassFunction(
                cd, [Cyclotomic.zeta(q - 1, i * g.field.log(g.det_code(r))) for r in cd.reps]
            )
            rows += [linear, dl_character(split, TorusCharacter(split, (i, i))).signed - linear]
    else:
        trivial = ClassFunction(cd, [1] * cd.count)
        rows = [trivial, dl_character(split, TorusCharacter(split, (0,))).signed - trivial]
    for torus in tori:
        for theta in nonsingular_characters(torus):
            if theta.exps < theta.w_twist().exps:
                rows.append(dl_character(torus, theta).genuine())
    if kind == "SL2":
        tau = _gauss_sum(g.field)
        for torus in tori:
            theta0 = TorusCharacter(torus, (torus.char_order // 2,))
            half_r = [v.rational_value() / 2 for v in dl_character(torus, theta0).signed.values]
            half_d = [0] * cd.count
            for z in centre:
                lam = theta0.value_at(z).rational_value()
                for u, s in zip(unipotents, (1, -1)):
                    half_d[cd.index[g.mul(z, u)]] = tau * (lam * Fraction(s, 2))
            for pm in (1, -1):
                rows.append(ClassFunction(cd, [r + d * pm for r, d in zip(half_r, half_d)]))
    if len(rows) != cd.count:
        raise AssertionError("row count differs from the class count")
    return CharacterTable(cd, rows)


# ---------------------------------------------------------------------------
# the modular route


def _choose_modulus(exponent, order, count):
    """Smallest prime l = 1 (mod exponent) with l^2 > 4*order and
    l > count + 1, searched below DIXON_MODULUS_BOUND.

    The congruence guarantees a full set of exponent-th roots of unity mod l
    and, by Cauchy, that l does not divide the group order.  The size bound
    makes the degree recovery unambiguous, and l > count + 1 gives the
    split its count distinct points x = 2, ..., count + 1 (_split).  The
    search cannot fail for a group within DIXON_ORDER_BUDGET: the exponent
    divides the order, the class count is at most the order, and over every
    exponent up to 10^4 the largest l needed is 496,747 (exponent 9199), so
    a failure is an AssertionError.
    """
    l = exponent + 1
    while l < DIXON_MODULUS_BOUND:
        if l * l > 4 * order and l > count + 1 and is_prime(l):
            return l
        l += exponent
    raise AssertionError(f"no prime l = 1 (mod {exponent}) below DIXON_MODULUS_BOUND = {DIXON_MODULUS_BOUND}")


def _pack_columns(vecs):
    """Coordinate t of every vector of vecs, entries in [0, l), packed into
    one integer with a 64-bit field per vector."""
    return [int.from_bytes(array("Q", col).tobytes(), sys.byteorder) for col in zip(*vecs)]


def _apply_packed(rows, packed, count, l):
    """A sparse matrix, each row a list of (t, c) pairs, applied to `count`
    vectors at once: out[j][e] is coordinate j of the image of vector e,
    mod l.

    `packed` comes from _pack_columns, so each pair (t, c) of row j is one
    integer multiply-add. A field then holds at most (l - 1) times the sum
    of the row's c. That sum is at most n^2 for a class matrix (the sum over
    t of |C_t| times its count is |C_i| |C_j|) and at most m (l - 1) for a
    lift. A row of the split's S, of a share's polynomial or of the
    orthogonality product has at most k <= n entries below l, so its
    fields stay below k (l - 1)^2. So with n <= DIXON_ORDER_BUDGET = 10^4
    and l < DIXON_MODULUS_BOUND = 10^6 a field stays below 2^54 and never
    carries into the next one.
    """
    nbytes = 8 * count
    accs = []
    for row in rows:
        acc = 0
        for t, c in row:
            acc += c * packed[t]
        accs.append(acc.to_bytes(nbytes, sys.byteorder))
    flat = [x % l for x in array("Q", b"".join(accs))]
    return [flat[j * count : j * count + count] for j in range(len(rows))]


def _roots_mod(poly, l):
    """The roots in F_l of a monic polynomial, coefficients low to high, by
    one Horner pass over its values at all l points."""
    vals = [poly[-1]] * l
    for cf in reversed(poly[:-1]):
        vals = [(v * x + cf) % l for x, v in enumerate(vals)]
    return [x for x, v in enumerate(vals) if v == 0]


def _generic_element(mats, x, l):
    """The sparse rows of S = sum_i x^i M_i mod l, M_i = mats[i], summed
    in dense rows."""
    k = len(mats)
    rows = [[0] * k for _ in mats]
    c = 1
    for mat in mats:
        for row, pairs in zip(rows, mat):
            for t, a in pairs:
                row[t] += c * a
        c = c * x % l
    return [[(t, a % l) for t, a in enumerate(row) if a % l] for row in rows]


def _minimal_polynomial(krylov, l):
    """The minimal polynomial of S on w, monic, low to high, from the
    Krylov vectors w, S w, ..., S^j w over F_l. Once S^d w depends on the
    vectors before it, so does every later one, so one rref_mod of the
    Krylov matrix puts its pivots at columns 0 .. d - 1, and column d holds
    S^d w in the basis w, ..., S^(d - 1) w: the polynomial is minus that
    column, then 1. Raises AssertionError when all j + 1 vectors are
    independent: the Krylov sequence does not close."""
    a, pivots = rref_mod(list(zip(*krylov)), l, len(krylov))
    d = len(pivots)
    if d == len(krylov):
        raise AssertionError("a Krylov sequence does not close")
    return [-a[r][d] % l for r in range(d)] + [1]


def _split_round(s_rows, blocks, l):
    """One round of the split: each block w, a vector of F_l^k, replaced by
    its shares g(S) w, one per root lam of the minimal polynomial of S
    (sparse rows) on w, g = minpoly / (x - lam).

    A block is a sum of eigenlines, and B blocks leave at most k - B + 1 to
    any one, so its Krylov vectors w, ..., S^(k - B + 1) w, one
    _apply_packed per step for all blocks, are dependent. A block with S w
    = lam w, read off the first step, is taken as it is: its minimal
    polynomial is x - lam and its one share is w, so a line left by an
    earlier round costs no row reduction. Of every other block,
    _minimal_polynomial reads the Krylov vectors, and its shares are one
    _apply_packed over them. Every share, a taken block too, is then
    checked to be an eigenvector of S. Raises AssertionError on the first
    three checks that character_table_dixon lists.
    """
    k, count = len(s_rows), len(blocks)
    steps = [blocks]
    for _ in range(k - count + 1):
        steps.append(list(zip(*_apply_packed(s_rows, _pack_columns(steps[-1]), count, l))))
    shares, lams = [], []
    for krylov in zip(*steps):
        w, sw = krylov[0], krylov[1]
        # lam = (S w)_j / w_j at w's first nonzero coordinate j
        lam = next((sw[j] * pow(a, -1, l) % l for j, a in enumerate(w) if a), None)
        if lam is not None and sw == tuple(lam * a % l for a in w):
            shares.append(w)
            lams.append(lam)
            continue
        poly = _minimal_polynomial(krylov, l)
        roots = _roots_mod(poly, l)
        if len(roots) != len(poly) - 1:
            raise AssertionError("the minimal polynomial does not split into distinct roots in F_l")
        quotients = []
        for lam in roots:
            # minpoly / (x - lam) by synthetic division, high to low
            g = [1]
            for cf in poly[-2:0:-1]:
                g.append((cf + lam * g[-1]) % l)
            quotients.append(list(enumerate(reversed(g))))
        shares += _apply_packed(quotients, _pack_columns(list(zip(*krylov[:len(roots)]))), k, l)
        lams += roots
    images = _apply_packed(s_rows, _pack_columns(shares), len(shares), l)
    if list(zip(*images)) != [tuple(lam * x % l for x in v) for lam, v in zip(lams, shares)]:
        raise AssertionError("a share is not an eigenvector of S")
    return shares


def _split(mats, id_idx, l):
    """The k common eigenlines of the class matrices, as shares of the
    identity-class vector e_id, split in rounds x = 2, 3, ... by S = sum_i
    x^i M_i (_split_round).

    e_id = sum_chi (chi(1)^2 / |G|) omega^chi, every coefficient a unit mod
    l, so each share of it is a sum of eigenlines. The class algebra is
    semisimple mod l, so chi != psi have omega^chi != omega^psi mod l, and
    sum_i (omega^chi_i - omega^psi_i) x^i, zero at x unless x separates
    them, is nonzero of degree < k: the k rounds up to x = k + 1 < l
    separate every pair. Raises AssertionError unless the split ends in k
    blocks within k rounds."""
    k = len(mats)
    blocks = [[int(r == id_idx) for r in range(k)]]
    for x in range(2, k + 2):
        if len(blocks) >= k:
            break
        blocks = _split_round(_generic_element(mats, x, l), blocks, l)
    if len(blocks) != k:
        raise AssertionError("the class algebra did not split into k lines within k rounds")
    return blocks


def character_table_dixon(group) -> CharacterTable:
    """Exact character table through the class algebra mod a prime.

    The class matrices are simultaneously diagonalized over F_l, l = 1 (mod
    exponent), the central characters are turned into characters mod l, and
    each value is lifted exactly by discrete Fourier inversion over the
    cyclic group of its class representative. Works for any group of order
    at most DIXON_ORDER_BUDGET with `elements`, `identity`, `mul`,
    `right_products(xs, ys)`, which yields, for each y in ys, the list of
    the products x y, x in xs, and a `derived` dict that holds its classes
    under "classes", unless it is a matrix group, which builds them there
    (`conjugacy_classes`). No inverse is taken here.

    The class matrices are sparse rows of (t, count) pairs from one
    right_products call: the members of each class's inverse class, which
    are the inverses of the class's members, times the k representatives.
    They are applied to many vectors at once (_apply_packed), as
    are the orthogonality product and the lift's inverse DFTs. Each
    representative's cyclic group is walked once (`exact_math.powers`) and
    read as the classes of its powers: their number is its order, the last
    is the inverse class, and all of them index the lift, built once per
    Galois orbit of classes: [rep^s], s prime to the order, reuses rep's.
    The eigenlines are split off the identity-class vector e_id by generic
    elements of the class algebra, each block one vector, its share of e_id
    (_split); every row reduction is rref_mod, one per block and round
    that is not already an eigenvector of the round's S.
    Every table passes these checks, each raising AssertionError:
    - each block's Krylov sequence closes within k - B + 2 vectors, B the
      number of blocks;
    - each minimal polynomial has as many distinct roots in F_l as its
      degree;
    - each share is an eigenvector of its round's S, with its root;
    - the split ends in k lines within k rounds;
    - every line v has M_i (v_id v) = v_i v for every class matrix M_i: v
      is nonzero at the identity class, and v / v_id is an eigenvector of
      every class matrix, with eigenvalue one for the identity class;
    - each degree is recovered, and the degree squares sum to the order;
    - the rows are orthogonal mod l, on every ordered pair;
    - each lifted multiplicity is at most the degree, and they sum to it;
    - each row's degree is a positive integer (CharacterTable).
    """
    n = len(group.elements)
    if n > DIXON_ORDER_BUDGET:
        raise over_budget("group", "group order", n, "DIXON_ORDER_BUDGET", DIXON_ORDER_BUDGET)
    cd = conjugacy_classes(group)
    k = cd.count
    idx = cd.index
    # the classes of each representative's powers, rep^0 .. rep^(m - 1)
    power_classes = [[idx[x] for x in powers(group.mul, group.identity, r, n)] for r in cd.reps]
    exponent = lcm(*map(len, power_classes))
    l = _choose_modulus(exponent, n, k)
    gen = primitive_element(lambda a, b: a * b % l, 1, range(2, l), l - 1)
    root = pow(gen, (l - 1) // exponent, l)
    inv_class = [pc[-1] for pc in power_classes]

    # structure matrices, sparse: mats[i][j] lists the pairs (t, c), c > 0
    # the number of x in C_i with x^{-1} * rep_t in C_j, in increasing t.
    # The x^{-1} for x in C_i are the members of C_i's inverse class, so
    # all x^{-1} * rep_t for one t come from one right_products list, and
    # the pair (i, j) of each is counted under the key i k + j.
    inverses = [x for ci in range(k) for x in cd.members[inv_class[ci]]]
    row_keys = [ci * k for ci in range(k) for _ in cd.members[inv_class[ci]]]
    mats = [[[] for _ in range(k)] for _ in range(k)]
    for t, prods in enumerate(group.right_products(inverses, cd.reps)):
        for key, c in Counter(map(add, row_keys, map(idx.__getitem__, prods))).items():
            ci, j = divmod(key, k)
            mats[ci][j].append((t, c))

    # every line v against every class matrix: M_i (v_id v) = v_i v. At
    # v_id = 0 this fails for an i with v_i != 0; else omega = v / v_id has
    # M_i omega = omega_i omega, and omega_id = 1
    id_idx = cd.identity_index
    lines = _split(mats, id_idx, l)
    ids = [v[id_idx] for v in lines]
    packed = _pack_columns([[u * x % l for x in v] for u, v in zip(ids, lines)])
    rows_of_lines = list(zip(*lines))
    for ci in range(k):
        want = [[a * b % l for a, b in zip(rows_of_lines[ci], row)] for row in rows_of_lines]
        if _apply_packed(mats[ci], packed, k, l) != want:
            raise AssertionError("not a common eigenvector")
    omegas = [[x * pow(u, -1, l) % l for x in v] for u, v in zip(ids, lines)]

    degrees = []
    chars_mod = []
    size_inv = [pow(sz, -1, l) for sz in cd.sizes]
    for om in omegas:
        s = sum(om[c] * om[inv_class[c]] * size_inv[c] for c in range(k)) % l
        # chi(1)^2 s = n mod l, so s = 0 (a fault) matches no degree
        deg = next((t for t in range(1, isqrt(n) + 1) if t * t * s % l == n % l), None)
        if deg is None:
            raise AssertionError("degree not recovered")
        degrees.append(deg)
        chars_mod.append([deg * om[ci] * size_inv[ci] % l for ci in range(k)])
    if sum(d * d for d in degrees) != n:
        raise AssertionError("degree squares do not sum to the order")

    # orthogonality mod l on every ordered pair, one packed product: row i2
    # pairs class c with |C_c| chi_i2(c^-1)
    packed = _pack_columns(chars_mod)
    gram = [[(c, cd.sizes[c] * chi[inv_class[c]] % l) for c in range(k)] for chi in chars_mod]
    if _apply_packed(gram, packed, k, l) != [[n % l * (i1 == i2) for i1 in range(k)] for i2 in range(k)]:
        raise AssertionError("modular orthogonality fails")

    # lift: the value at class i lies in Q(zeta_m), m the representative's
    # order; row r of its inverse DFT pairs each class c with the sum of
    # y^(-r t) / m over the t with rep^t in c, y = root^(exponent/m), so
    # mults[i][r][e] is the multiplicity of zeta_m^r in row e. A class c =
    # [rep^s], gcd(s, m) = 1, of order m whose walk is rep's at the
    # exponents s t has mults[c][r] = mults[i][r s^-1 mod m]
    mults = []
    shared = {}
    for ci, walk in enumerate(power_classes):
        m = len(walk)
        i, s = shared.get(ci, (ci, 1))
        if i != ci and len(power_classes[i]) == m and walk == [power_classes[i][s * t % m] for t in range(m)]:
            s = pow(s, -1, m)
            mults.append([mults[i][r * s % m] for r in range(m)])
        else:
            y = pow(root, exponent // m, l)
            ypow = [pow(m, -1, l)] * m
            for t in range(1, m):
                ypow[t] = ypow[t - 1] * y % l
            dft = []
            for r in range(m):
                sums = {}
                for t, c in enumerate(walk):
                    sums[c] = sums.get(c, 0) + ypow[-r * t % m]
                dft.append([(c, v % l) for c, v in sums.items()])
            mults.append(_apply_packed(dft, packed, k, l))
        for s, c in enumerate(walk):
            if c > ci and gcd(s, m) == 1:
                shared.setdefault(c, (ci, s))

    rows = []
    for e, deg in enumerate(degrees):
        vals = []
        for ci in range(k):
            coeffs = {}
            for r, nrs in enumerate(mults[ci]):
                nr = nrs[e]
                if nr:
                    if nr > deg:
                        raise AssertionError("eigenvalue multiplicity too large")
                    coeffs[r] = nr
            if sum(coeffs.values()) != deg:
                raise AssertionError("multiplicities do not sum to the degree")
            vals.append(Cyclotomic(len(mults[ci]), coeffs))
        rows.append(ClassFunction(cd, vals))
    return CharacterTable(cd, rows)


# ---------------------------------------------------------------------------
# torus characters


class TorusCharacter:
    """A character of the point group of a maximal torus.

    Presented by exponents against the torus's own coordinates (`TorusInG`):
    theta(t) is zeta_n raised to the dot product of the exponents with
    log[t], n the torus's `char_order`.
    """

    __slots__ = ("torus", "exps")

    def __init__(self, torus: TorusInG, exps):
        self.torus = torus
        exps = tuple(exps)
        if any(type(e) is not int for e in exps):
            raise ValueError("exponents must be integers")
        exps = tuple(e % torus.char_order for e in exps)
        if len(exps) != len(torus.unit_points):
            raise ValueError("wrong number of exponents")
        self.exps = exps

    def exponent_at(self, point) -> int:
        """The k with theta(point) = zeta_n^k: the exponents dotted with the
        point's coordinates, not reduced mod n."""
        coords = self.torus.log.get(point)
        if coords is None:
            raise ValueError("not a point of this torus")
        return sum(e * c for e, c in zip(self.exps, coords))

    def value_at(self, point) -> Cyclotomic:
        return Cyclotomic.zeta(self.torus.char_order, self.exponent_at(point))

    def w_twist(self) -> "TorusCharacter":
        """The character composed with the nontrivial Weyl involution: its
        exponent at a unit point u is theta's at w(u)."""
        t = self.torus
        return TorusCharacter(t, [self.exponent_at(t.weyl[u]) for u in t.unit_points])

    @property
    def is_singular(self):
        return self.w_twist().exps == self.exps

    def __repr__(self):
        return f"TorusCharacter({self.torus.tag}, exps={self.exps})"


def torus_characters(torus: TorusInG):
    """All characters of the torus point group, in lexicographic order."""
    rank = len(torus.unit_points)
    return [TorusCharacter(torus, tup) for tup in product(range(torus.char_order), repeat=rank)]


def nonsingular_characters(torus: TorusInG):
    """The characters in general position (not fixed by the Weyl twist).
    May be empty: the split torus of the smallest determinant-one group
    has none."""
    return [c for c in torus_characters(torus) if not c.is_singular]


# ---------------------------------------------------------------------------
# torus-series characters


class DLCharacter:
    """The Deligne-Lusztig character of a maximal torus and one of its
    characters, kept as one row: `signed` = sign R_T^theta, sign = eps_G
    eps_T the torus's relative sign (+1 on the split torus). When the torus
    character is in general position, that row is the genuine irreducible
    member."""

    def __init__(self, torus, theta, signed, singular):
        self.torus = torus
        self.theta = theta
        self.signed = signed
        self._singular = singular

    def genuine(self) -> ClassFunction:
        if self._singular:
            raise ValueError(
                "singular torus character: no genuine irreducible attached"
            )
        return self.signed

    def __repr__(self):
        return f"DLCharacter({self.torus.tag}, theta={self.theta.exps})"


def dl_character(torus: TorusInG, theta: TorusCharacter) -> DLCharacter:
    """The Deligne-Lusztig character of (torus, theta), as its one row
    sign R_T^theta, sign = eps_G eps_T the torus's relative sign.

    Its values come from the character formula (`_dl_values`), one route
    for every torus and every theta, singular theta included. Its norm
    equals the stabilizer order of theta in the relative Weyl group,
    asserted exactly. For nonsingular theta the row is the genuine
    irreducible character, of degree q + 1 on the split torus and q - 1 on
    the elliptic one, asserted, and the row that `classical_table_oracle`
    lists. The checked row is cached on the torus, keyed by theta's
    exponents.
    """
    if theta.torus is not torus:
        raise ValueError("theta belongs to a different torus")
    parts = cached(torus, ("dl_character", theta.exps), lambda torus: _dl_parts(torus, theta))
    return DLCharacter(torus, theta, *parts)


def _dl_values(torus: TorusInG, theta: TorusCharacter):
    """sign R_T^theta by the Deligne-Lusztig character formula, sign =
    eps_G eps_T, one value per class, read off the torus points through the
    class index.

    A central point z gives (|G|/q)/|T| theta(z) at z, and sign theta(z) at
    z u for each regular unipotent u: the Green function of a rank-1 group
    is 1 there. A regular point t adds sign theta(t) at its class, since the
    centralizer of t is the torus: the value at a regular semisimple class
    is the sum of theta over the torus points in it. Every other class gets
    0. Each class counts the exponents of theta at its points, each count
    signed, and its value is one `Cyclotomic` at the torus's `char_order`."""
    g = torus.parent
    cd = conjugacy_classes(g)
    deg = (g.order // g.q) // torus.order
    counts = [{} for _ in range(cd.count)]
    for t in torus.points:
        e = theta.exponent_at(t)
        if _kernels.is_scalar(t, g.tables):
            counts[cd.index[t]] = {e: deg}
            for u in g.unipotent_class_reps()[1:]:
                counts[cd.index[g.mul(t, u)]] = {e: torus.sign}
        else:
            at = counts[cd.index[t]]
            at[e] = at.get(e, 0) + torus.sign
    return [Cyclotomic(torus.char_order, c) for c in counts]


def _dl_parts(torus: TorusInG, theta: TorusCharacter):
    """(sign R_T^theta, whether theta is singular) for dl_character."""
    signed = ClassFunction(conjugacy_classes(torus.parent), _dl_values(torus, theta))
    w_stab = 2 if theta.is_singular else 1
    if not signed.inner(signed) == w_stab:
        raise AssertionError("virtual character norm is off")
    if theta.is_singular:
        return signed, True
    q = torus.parent.q
    if not signed.degree_value == (q + 1 if torus.tag == "split" else q - 1):
        raise AssertionError("genuine degree is off")
    return signed, False


# ---------------------------------------------------------------------------
# the adjoint-orbit Fourier identity


def _orbit_fourier_sum(g: FiniteLieGroup, orbit, x) -> Cyclotomic:
    """(1/q) times the sum over an adjoint orbit of the conjugate additive
    character applied to the trace pairing with x."""
    fld = g.field
    coeffs = {}
    for c, cnt in enumerate(_kernels.pair_histogram(x, orbit, g.tables)):
        if cnt:
            e = (-fld.trace(c)) % fld.p
            coeffs[e] = coeffs.get(e, 0) + cnt
    return Cyclotomic(fld.p, coeffs, g.q)


def springer_grid(torus: TorusInG, thetas, points, all_unipotent=False):
    """Springer's identity on every pair (theta, t) of one torus: the
    genuine character rho_theta at a unipotent u against (1/q) times the
    additive character sum over the adjoint orbit of t at the
    quasi-logarithm x of u.

    Each point is checked once (a strongly regular Lie point of the torus,
    else ValueError; orbit size times |T| = |G|, asserted), each theta once
    (nonsingular, else ValueError), and each side is computed once:
    lhs[i][k] = rho_i(u_k), rhs[j][k] the orbit sum of t_j at x_k, cached
    on the group keyed by ("orbit_sum", orbit[0], x), so the points of one
    orbit (t and its Weyl conjugate) share it. A cell holds when its two
    values have the same text, which is when they are equal
    (`Cyclotomic.__repr__`, memoised per stored form), so a torus costs
    (|thetas| + |points|) |U| texts and |thetas| |points| |U| string
    comparisons. U is the class of [[1, 1], [0, 1]], the first regular
    unipotent class of `unipotent_class_reps`, or with all_unipotent every
    unipotent class. Returns (classes, lhs, rhs, equal): the class
    index of each u, the two sides, and equal[i][j][k], whether lhs[i][k]
    == rhs[j][k].
    """
    g = torus.parent
    orbits = []
    for t in points:
        if t not in torus.lie_point_set:
            raise ValueError("t is not a Lie algebra point of this torus")
        if not is_strongly_regular(g, t):
            raise ValueError("t is not strongly regular")
        orbits.append(g.adjoint_orbit_of(t))
        if len(orbits[-1]) * torus.order != g.order:
            raise AssertionError("orbit size does not match the torus order")
    rhos = [dl_character(torus, theta).genuine() for theta in thetas]
    reps = g.unipotent_class_reps() if all_unipotent else g.unipotent_class_reps()[1:2]
    logs = [quasi_logarithm(g, u) for u in reps]
    lhs = [[rho.value_at(u) for u in reps] for rho in rhos]
    rhs = [
        [cached(g, ("orbit_sum", o[0], x), lambda g: _orbit_fourier_sum(g, o, x)) for x in logs]
        for o in orbits
    ]
    ltext = [list(map(repr, row)) for row in lhs]
    rtext = [list(map(repr, row)) for row in rhs]
    equal = [[tuple(map(str.__eq__, a, b)) for b in rtext] for a in ltext]
    cd = conjugacy_classes(g)
    return [cd.class_of(u) for u in reps], lhs, rhs, equal


def springer_check(
    g: FiniteLieGroup, torus: TorusInG, theta: TorusCharacter, t, all_unipotent=False
):
    """Springer's identity for one theta and one point t: `springer_grid` on
    [theta] and [t], as a report dict. t must be a strongly regular Lie
    point of the torus and theta nonsingular, else ValueError. Its cases
    hold both sides as exact Cyclotomic values, one per unipotent class
    checked, and "pass" is the conjunction of their equalities."""
    if torus.parent is not g:
        raise ValueError("torus belongs to a different group")
    classes, (lhs,), (rhs,), ((equal,),) = springer_grid(torus, [theta], [t], all_unipotent)
    cases = [
        {"unipotent_class": c, "lhs": a, "rhs": b, "equal": eq}
        for c, a, b, eq in zip(classes, lhs, rhs, equal)
    ]
    return {
        "kind": g.kind,
        "q": g.q,
        "torus": torus.tag,
        "theta": list(theta.exps),
        "t": g.unpack(t),
        "cases": cases,
        "pass": all(equal),
    }


def springer_fourier_reference(g: FiniteLieGroup, t, u) -> Cyclotomic:
    """The right-hand side of the identity from the Fourier transform's
    defining sum at x = qlog(u), for cross-checking the orbit sums: (1/q)
    times the sum of psibar(<x, y>) over every Lie point y, each tested
    for membership in the orbit of t."""
    x = quasi_logarithm(g, u)
    orbit = frozenset(g.adjoint_orbit_of(t))
    fld = g.field
    # psibar(c) = zeta_p^(-Tr c); coeffs[e] counts the terms zeta_p^e
    coeffs = Counter(
        -fld.trace(g.pairing_code(x, y)) % fld.p for y in g.lie_points() if y in orbit
    )
    return Cyclotomic(fld.p, coeffs) * Fraction(1, g.q)


# ---------------------------------------------------------------------------
# reduction of mixed traces to the semisimple part


def _jordan_parts(g: FiniteLieGroup, gamma):
    """gamma = delta * u with delta of order prime to p, u of p-power
    order, both powers of gamma: the CRT split of the cyclic group
    generated by gamma (`exact_math.orders.jordan_exponent`), delta = gamma^e
    and u = gamma^(1 - e) read off that group as `exact_math.powers` walks
    it. Raises AssertionError unless delta u = gamma."""
    if gamma not in g._members:
        raise ValueError("not a group element")
    walk = powers(g.mul, g.identity, gamma, g.order)
    e = jordan_exponent(len(walk), g.field.p)[1]
    delta, u = walk[e], walk[(1 - e) % len(walk)]
    if g.mul(delta, u) != gamma:
        raise AssertionError("the two parts do not recompose")
    return delta, u


def _conjugate_into(g: FiniteLieGroup, torus: TorusInG, delta):
    """Some torus point conjugate to delta, or None.  Group conjugacy is
    decided by the cached class index, so this is a scan over the torus."""
    cls = conjugacy_classes(g)
    ci = cls.class_of(delta)
    for p in torus.points:
        if cls.class_of(p) == ci:
            return p
    return None


def dl_jordan_reduction_check(
    g: FiniteLieGroup, torus: TorusInG, theta: TorusCharacter, gamma
):
    """Both sides of the reduction of the trace at gamma = delta*u to data
    at the semisimple part delta.

    Central delta: the right side scales the unipotent value by
    theta(delta).  Regular delta: the trace collapses to the theta-sum over
    the embeddings of delta into the torus (zero when there is none), with
    the sign conventions of the ambient group and of the torus.  theta must
    be nonsingular.  Returns a report dict with both sides, as exact
    Cyclotomic values, and the exact verdict.
    """
    if torus.parent is not g:
        raise ValueError("torus belongs to a different group")
    rho = dl_character(torus, theta).genuine()
    delta, u = _jordan_parts(g, gamma)
    sigma_g = (-1) ** g.fq_rank
    sigma_t = (-1) ** torus.fq_rank
    lhs = rho.value_at(gamma) * sigma_g
    if _kernels.is_scalar(delta, g.tables):
        delta_kind = "central"
        rhs = theta.value_at(delta) * rho.value_at(u) * sigma_g
    else:
        if u != g.identity:
            raise AssertionError("regular semisimple part with unipotent residue")
        delta_kind = "regular"
        inside = _conjugate_into(g, torus, delta)
        if inside is None:
            rhs = Cyclotomic.zero()
            delta_kind = "regular-no-embedding"
        else:
            rhs = (
                theta.value_at(inside) + theta.value_at(torus.weyl[inside])
            ) * sigma_t
    eq = lhs == rhs
    return {
        "kind": g.kind,
        "q": g.q,
        "torus": torus.tag,
        "theta": list(theta.exps),
        "gamma_class": conjugacy_classes(g).class_of(gamma),
        "delta_kind": delta_kind,
        "lhs": lhs,
        "rhs": rhs,
        "equal": eq,
        "pass": eq,
    }
