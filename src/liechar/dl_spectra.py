"""Exact character theory for the rank-1 finite matrix groups.

Two independent routes produce the full character table: a modular
eigenvector solver in the style of Dixon, and closed-form tables whose
entries are roots of unity and quadratic Gauss sums.  Each torus-series
character has one closed-form row per (torus, theta), the principal series
on the split torus and the cuspidal or discrete series on the elliptic one,
which both the table and the torus-series characters read.  On top of them
sit the adjoint-orbit Fourier identity relating their unipotent values to
additive character sums, and the reduction of a mixed trace to the
semisimple part's centralizer.

Every equality here is decided in exact cyclotomic arithmetic.

This module keeps no state of its own. What it builds is cached on its
owner (see `exact_math.cached`): the classes, class shapes and orbit sums
on the group, the torus-series characters on their torus, and the Gauss sum
on the field, which GL2 and SL2 over one q share. The quadratic extension
F_q^2, whose points are the elliptic tori, lives with the tori in
`finite_lie`. Each cyclotomic value memoises its own reduction.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from . import _kernels
from .exact_math import Cyclotomic, cached, element_order, is_prime, power, primitive_element, rref_mod
from .finite_lie import (
    FiniteLieGroup,
    LieFunction,
    TorusInG,
    _quad_ext,
    build_finite_group,
    finite_fourier,
    is_strongly_regular,
    quasi_logarithm,
    tori_and_regularity,
)
from .padic import jordan_exponent

__all__ = [
    "ClassData",
    "conjugacy_classes",
    "ClassFunction",
    "CharacterTable",
    "character_table_dixon",
    "classical_table_oracle",
    "tables_match",
    "TorusCharacter",
    "torus_characters",
    "nonsingular_characters",
    "DLCharacter",
    "dl_character",
    "springer_check",
    "dl_jordan_reduction_check",
]


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
        self.index = {}
        for ci, mem in enumerate(members):
            for x in mem:
                self.index[x] = ci
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
    """Conjugacy classes of `group`, as ClassData.

    Accepts any object with `elements`, `identity`, `mul`, `inv`.  The
    matrix groups take a fast path through their own labeling, cached on the
    group; the generic path is quadratic and meant for small test groups.
    """
    if isinstance(group, FiniteLieGroup):
        return cached(group, "classes", _labeled_classes)
    seen = set()
    classes = []
    for x in group.elements:
        if x in seen:
            continue
        orb = {group.mul(g, group.mul(x, group.inv(g))) for g in group.elements}
        seen |= orb
        classes.append(sorted(orb))
    return ClassData(group, classes)


def _labeled_classes(g: FiniteLieGroup) -> ClassData:
    buckets: dict = {}
    for x, lab in zip(g.elements, g.conjugacy_labels()):
        buckets.setdefault(lab, []).append(x)
    return ClassData(g, list(buckets.values()))


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

    def __neg__(self):
        return ClassFunction(self.classes, [-a for a in self.values])

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
    """Whether two tables on the same class list agree up to row order."""
    if a.classes is not b.classes:
        raise ValueError("tables live on different class lists")
    conductors = {v.n for t in (a, b) for row in t.rows for v in row.values}
    big = lcm(*conductors)

    def key(row):
        return tuple(tuple(v.lift(big).reduced()) for v in row.values)

    return sorted(key(r) for r in a.rows) == sorted(key(r) for r in b.rows)


# ---------------------------------------------------------------------------
# class shapes of the rank-1 matrix groups


def _class_shapes(g: FiniteLieGroup):
    """Classify each conjugacy class of GL2/SL2 by its eigenvalue pattern.

    central:  scalar x
    jordan:   double eigenvalue x with a nontrivial unipotent part; for SL2
              `unit_square` records the square class of that part
    split:    distinct eigenvalues x, y in the base field
    elliptic: eigenvalue z in the quadratic extension, with its discrete
              logarithm and (determinant one only) its norm-one logarithm
    """
    return cached(g, "class_shapes", _build_class_shapes)


def _build_class_shapes(g: FiniteLieGroup):
    """Shapes read off the tori through the class index: a split point
    diag(x, y) gives a central (x = y) or split class, a non-central
    elliptic point z an elliptic class, and x u, x central and u a regular
    unipotent representative, a jordan class."""
    cd = conjugacy_classes(g)
    ext = _quad_ext(g.field)
    q, q2, q3 = g.q, g.tables.q2, g.tables.q3
    tori = {torus.tag: torus for torus in tori_and_regularity(g)}
    shapes = [None] * cd.count
    for p in tori["split"].points:
        x, y = p % q, p // q3
        if x != y:
            shapes[cd.index[p]] = {"family": "split", "x": min(x, y), "y": max(x, y)}
            continue
        shapes[cd.index[p]] = {"family": "central", "x": x}
        for u in g.unipotent_class_reps()[1:]:
            # for SL2 the square class of the unipotent part's corner entry
            usq = g.field.is_square(u // q % q) if g.kind == "SL2" else None
            shape = {"family": "jordan", "x": x, "unit_square": usq}
            shapes[cd.index[g.mul(p, u)]] = shape
    for z in tori["elliptic"].points:
        if _is_central(g, z):
            continue
        ci = cd.index[z]
        # of the two eigenvalues x +- y sqrt(eps), the one of smaller code y
        if shapes[ci] is None or z // q2 % q < shapes[ci]["z"] // q2 % q:
            shapes[ci] = {
                "family": "elliptic",
                "z": z,
                "log": ext.log[z],
                "norm_one_log": ext.norm_one_log.get(z),
            }
    if None in shapes:
        raise AssertionError("a class meets no torus point and no jordan point")
    counts = {
        fam: sum(1 for s in shapes if s["family"] == fam)
        for fam in ("central", "jordan", "split", "elliptic")
    }
    if g.kind == "GL2":
        want = {
            "central": q - 1,
            "jordan": q - 1,
            "split": (q - 1) * (q - 2) // 2,
            "elliptic": (q * q - q) // 2,
        }
    else:
        want = {
            "central": 2,
            "jordan": 4,
            "split": (q - 3) // 2,
            "elliptic": (q - 1) // 2,
        }
    if counts != want:
        raise AssertionError(f"class family counts {counts} != {want}")
    return tuple(shapes)


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
# closed-form rows.  GL2 families: linear (alpha o det), its Steinberg
# twist, principal series, cuspidal.  SL2 families: trivial, Steinberg,
# principal series, discrete series, and the four half characters that
# split off when the relevant series parameter is quadratic.


def _gl2_values_linear(g, shapes, i):
    fld = g.field
    qm1 = g.q - 1
    out = []
    for sh in shapes:
        fam = sh["family"]
        if fam in ("central", "jordan"):
            out.append(Cyclotomic.zeta(qm1, 2 * i * fld.log(sh["x"])))
        elif fam == "split":
            out.append(
                Cyclotomic.zeta(qm1, i * (fld.log(sh["x"]) + fld.log(sh["y"])))
            )
        else:
            out.append(Cyclotomic.zeta(qm1, i * fld.log(g.det_code(sh["z"]))))
    return out


def _gl2_values_steinberg(g, shapes, i):
    lin = _gl2_values_linear(g, shapes, i)
    out = []
    for sh, v in zip(shapes, lin):
        fam = sh["family"]
        if fam == "central":
            out.append(v * g.q)
        elif fam == "jordan":
            out.append(Cyclotomic.zero())
        elif fam == "split":
            out.append(v)
        else:
            out.append(-v)
    return out


def _gl2_values_principal(g, shapes, i, j):
    fld = g.field
    qm1 = g.q - 1
    out = []
    for sh in shapes:
        fam = sh["family"]
        if fam == "central":
            out.append(Cyclotomic.zeta(qm1, (i + j) * fld.log(sh["x"])) * (g.q + 1))
        elif fam == "jordan":
            out.append(Cyclotomic.zeta(qm1, (i + j) * fld.log(sh["x"])))
        elif fam == "split":
            lx, ly = fld.log(sh["x"]), fld.log(sh["y"])
            out.append(
                Cyclotomic.zeta(qm1, i * lx + j * ly)
                + Cyclotomic.zeta(qm1, i * ly + j * lx)
            )
        else:
            out.append(Cyclotomic.zero())
    return out


def _gl2_values_cuspidal(g, shapes, j):
    ext = _quad_ext(g.field)
    big = g.q * g.q - 1
    out = []
    for sh in shapes:
        fam = sh["family"]
        if fam in ("central", "jordan"):
            # the scalar x is the packed point x (1 + q^3) = x * identity
            v = Cyclotomic.zeta(big, j * ext.log[sh["x"] * g.identity])
            out.append(v * (g.q - 1) if fam == "central" else -v)
        elif fam == "split":
            out.append(Cyclotomic.zero())
        else:
            k = sh["log"]
            out.append(
                -(Cyclotomic.zeta(big, j * k) + Cyclotomic.zeta(big, j * k * g.q))
            )
    return out


def _pm_sign(i, x_code):
    # value of the order-two-or-less central twist at a code +-1
    return 1 if x_code == 1 else (-1) ** i


def _sl2_values_trivial(g, shapes):
    return [Cyclotomic.rational(1) for _ in shapes]


def _sl2_values_steinberg(g, shapes):
    vals = {"central": g.q, "jordan": 0, "split": 1, "elliptic": -1}
    return [Cyclotomic.rational(vals[sh["family"]]) for sh in shapes]


def _sl2_values_principal(g, shapes, i):
    fld = g.field
    qm1 = g.q - 1
    out = []
    for sh in shapes:
        fam = sh["family"]
        if fam == "central":
            out.append(Cyclotomic.rational((g.q + 1) * _pm_sign(i, sh["x"])))
        elif fam == "jordan":
            out.append(Cyclotomic.rational(_pm_sign(i, sh["x"])))
        elif fam == "split":
            e = i * fld.log(sh["x"])
            out.append(Cyclotomic.zeta(qm1, e) + Cyclotomic.zeta(qm1, -e))
        else:
            out.append(Cyclotomic.zero())
    return out


def _sl2_values_discrete(g, shapes, j):
    qp1 = g.q + 1
    out = []
    for sh in shapes:
        fam = sh["family"]
        if fam == "central":
            out.append(Cyclotomic.rational((g.q - 1) * _pm_sign(j, sh["x"])))
        elif fam == "jordan":
            out.append(Cyclotomic.rational(-_pm_sign(j, sh["x"])))
        elif fam == "split":
            out.append(Cyclotomic.zero())
        else:
            m = sh["norm_one_log"]
            out.append(-(Cyclotomic.zeta(qp1, j * m) + Cyclotomic.zeta(qp1, -j * m)))
    return out


def _sl2_values_half(g, shapes, big_degree, pm):
    """The four characters of degree (q +- 1)/2.

    big_degree True gives the degree (q+1)/2 pair (constituents of the
    principal series at the quadratic parameter), False the (q-1)/2 pair
    (cuspidal side).  On a class z*u with z = +-1 and u unipotent of square
    class s, the value is lambda(z) * (c + pm*s*tau)/2 with c = +-1 matching
    the side and tau the Gauss sum.  Split classes see the quadratic
    character of an eigenvalue on the principal side and vanish on the
    cuspidal side; elliptic classes do the opposite.
    """
    fld = g.field
    tau = cached(fld, "gauss_sum", _gauss_sum)
    eps_prime = 1 if fld.is_square(fld.neg(1)) else -1
    lam_minus = eps_prime if big_degree else -eps_prime
    c = 1 if big_degree else -1
    deg = (g.q + 1) // 2 if big_degree else (g.q - 1) // 2
    out = []
    for sh in shapes:
        fam = sh["family"]
        if fam == "central":
            lam = 1 if sh["x"] == 1 else lam_minus
            out.append(Cyclotomic.rational(deg * lam))
        elif fam == "jordan":
            lam = 1 if sh["x"] == 1 else lam_minus
            s = 1 if sh["unit_square"] else -1
            out.append((c + tau * (pm * s)) * Fraction(lam, 2))
        elif fam == "split":
            if big_degree:
                out.append(Cyclotomic.rational(1 if fld.is_square(sh["x"]) else -1))
            else:
                out.append(Cyclotomic.zero())
        else:
            if big_degree:
                out.append(Cyclotomic.zero())
            else:
                out.append(Cyclotomic.rational(-((-1) ** sh["norm_one_log"])))
    return out


def _series_row(g, shapes, tag, exps):
    """The closed-form values of R_T^theta up to the torus sign, theta given
    by its exponents on the torus of the tag: the principal series on the
    split torus, where a singular theta gives the reducible induced
    character, and the cuspidal (GL2) or discrete (SL2) series on the
    elliptic torus, where theta must be nonsingular."""
    if tag == "split":
        if g.kind == "GL2":
            return _gl2_values_principal(g, shapes, *exps)
        return _sl2_values_principal(g, shapes, *exps)
    if g.kind == "GL2":
        return _gl2_values_cuspidal(g, shapes, *exps)
    return _sl2_values_discrete(g, shapes, *exps)


def classical_table_oracle(kind, q) -> CharacterTable:
    """The full character table from the closed forms.

    Completely independent of the modular solver; the two are compared row
    for row in the tests.  kind and q are checked by build_finite_group: GL2
    or SL2, q an odd prime power within the group's budget.  Rows: the
    linear characters and their Steinberg twists (GL2) or the trivial and
    Steinberg characters (SL2), one torus-series row per Weyl orbit of
    nonsingular torus characters, split torus first, and for SL2 the four
    half characters.
    """
    g = build_finite_group(kind, q)
    cd = conjugacy_classes(g)
    shapes = _class_shapes(g)
    if kind == "GL2":
        rows = [
            ClassFunction(cd, values(g, shapes, i))
            for i in range(q - 1)
            for values in (_gl2_values_linear, _gl2_values_steinberg)
        ]
    else:
        rows = [
            ClassFunction(cd, _sl2_values_trivial(g, shapes)),
            ClassFunction(cd, _sl2_values_steinberg(g, shapes)),
        ]
    for torus in tori_and_regularity(g):
        for theta in nonsingular_characters(torus):
            if theta.exps < theta.w_twist().exps:
                rows.append(ClassFunction(cd, _series_row(g, shapes, torus.tag, theta.exps)))
    if kind == "SL2":
        for big_degree in (True, False):
            for pm in (1, -1):
                rows.append(
                    ClassFunction(cd, _sl2_values_half(g, shapes, big_degree, pm))
                )
    if len(rows) != cd.count:
        raise AssertionError("row count differs from the class count")
    return CharacterTable(cd, rows)


# ---------------------------------------------------------------------------
# the modular route


def _choose_modulus(exponent, order):
    """Smallest prime l = 1 (mod exponent) with l^2 > 4*order, searched
    up to 10^6.

    The congruence guarantees a full set of exponent-th roots of unity mod l
    and, by Cauchy, that l does not divide the group order.  The size bound
    makes the degree recovery unambiguous.
    """
    bound = 10**6
    l = exponent + 1
    while l <= bound:
        if l * l > 4 * order and is_prime(l):
            return l
        l += exponent
    raise ValueError(f"no usable prime below {bound} for exponent {exponent}")


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
    lift, so with n <= 10^4 and l < 10^6 a field stays below 2^54 and never
    carries into the next one.
    """
    nbytes = 8 * count
    out = []
    for row in rows:
        acc = 0
        for t, c in row:
            acc += c * packed[t]
        out.append([x % l for x in array("Q", acc.to_bytes(nbytes, sys.byteorder))])
    return out


def _roots_mod(poly, l):
    """The roots in F_l of a polynomial, coefficients low to high, by one
    Horner pass over the list of its values at all l points."""
    vals = [poly[-1]] * l
    for cf in reversed(poly[:-1]):
        vals = [(v * x + cf) % l for x, v in enumerate(vals)]
    return [x for x, v in enumerate(vals) if v == 0]


def _charpoly_mod(mat, l):
    """det(x*I - mat) over F_l, coefficients listed low to high.

    Reduction to Hessenberg form by similarity, then the standard leading
    principal minor recurrence.
    """
    n = len(mat)
    h = [row[:] for row in mat]
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if h[r][c] % l:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for row in h:
                row[c + 1], row[piv] = row[piv], row[c + 1]
        inv = pow(h[c + 1][c], -1, l)
        for r in range(c + 2, n):
            f = h[r][c] * inv % l
            if not f:
                continue
            hr, hc1 = h[r], h[c + 1]
            for jj in range(c, n):
                hr[jj] = (hr[jj] - f * hc1[jj]) % l
            for row in h:
                row[c + 1] = (row[c + 1] + f * row[r]) % l
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] * (k + 1)
        for d, cf in enumerate(prev):
            cur[d + 1] = (cur[d + 1] + cf) % l
            cur[d] = (cur[d] - h[k - 1][k - 1] * cf) % l
        beta = 1
        for i in range(1, k):
            beta = beta * h[k - i][k - i - 1] % l
            if beta == 0:
                break
            cf2 = h[k - 1 - i][k - 1] * beta % l
            if cf2:
                for d, c0 in enumerate(polys[k - 1 - i]):
                    cur[d] = (cur[d] - cf2 * c0) % l
        polys.append(cur)
    return polys[n]


def _nullspace_mod(mat, l):
    m = len(mat[0])
    a, pivots = rref_mod(mat, l, m)
    piv_set = set(pivots)
    basis = []
    for c in range(m):
        if c in piv_set:
            continue
        v = [0] * m
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-a[r][c]) % l
        basis.append(v)
    return basis


def _coords_in_basis(basis, vecs, l):
    """Coordinates of each vec in the span of an independent basis."""
    d = len(basis)
    a, pivots = rref_mod([list(col) for col in zip(*basis, *vecs)], l, d)
    if len(pivots) < d:
        raise AssertionError("basis is dependent")
    for r in range(d, len(a)):
        if any(a[r][d:]):
            raise AssertionError("vector outside the span")
    return [[a[i][d + j] for i in range(d)] for j in range(len(vecs))]


def character_table_dixon(group) -> CharacterTable:
    """Exact character table through the class algebra mod a prime.

    The class-multiplication matrices are simultaneously diagonalized over
    F_l for a prime l = 1 (mod exponent), the central character values are
    turned into character values mod l, and each value is lifted exactly by
    discrete Fourier inversion over the cyclic group generated by its class
    representative.  Works for any group with elements/identity/mul/inv of
    order at most 10^4.

    The class matrices are kept sparse, as rows of (t, count) pairs, built
    without a dense intermediate, and applied to a whole basis at once
    (_apply_packed); the lift inverts the DFT of every row at once the same
    way. The class algebra is semisimple mod l, so a block on which a class
    matrix acts as a scalar is kept without a root search. Every table
    passes these checks, each raising AssertionError:
    - each block's basis is independent and each image lies in its span;
    - the eigenspaces of each split fill the block, and the splitting ends
      in lines;
    - every line is an eigenvector of every class matrix, with eigenvalue
      one for the identity class;
    - each degree is recovered, and the degree squares sum to the order;
    - the rows are orthogonal mod l;
    - each lifted multiplicity is at most the degree, and they sum to it;
    - each row's degree is a positive integer (CharacterTable).
    """
    n = len(group.elements)
    if n > 10**4:
        raise ValueError("group order exceeds the 10^4 budget")
    cd = conjugacy_classes(group)
    mul, inv = group.mul, group.inv
    k = cd.count
    idx = cd.index
    rep_orders = [element_order(mul, group.identity, r, n) for r in cd.reps]
    exponent = lcm(*rep_orders)
    l = _choose_modulus(exponent, n)
    gen = primitive_element(lambda a, b: a * b % l, 1, range(2, l), l - 1)
    root = pow(gen, (l - 1) // exponent, l)
    inv_class = [idx[inv(r)] for r in cd.reps]

    # structure matrices, sparse: mats[i][j] lists the pairs (t, c), c > 0
    # the number of x in C_i with x^{-1} * rep_t in C_j; the eigenvalue
    # vectors of all of them give the central characters
    mats = []
    for ci in range(k):
        xis = [inv(x) for x in cd.members[ci]]
        rows = [[] for _ in range(k)]
        for t, rep in enumerate(cd.reps):
            for j, c in Counter([idx[mul(xi, rep)] for xi in xis]).items():
                rows[j].append((t, c))
        mats.append(rows)

    spaces = [[[1 if r == c else 0 for r in range(k)] for c in range(k)]]
    id_idx = cd.identity_index
    for ci in range(k):
        if ci == id_idx or all(len(b) == 1 for b in spaces):
            continue
        nxt = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                nxt.append(basis)
                continue
            imgs = list(zip(*_apply_packed(mats[ci], _pack_columns(basis), d, l)))
            coords = _coords_in_basis(basis, imgs, l)
            s_mat = [[coords[c][r] for c in range(d)] for r in range(d)]
            lam = s_mat[0][0]
            if s_mat == [[lam if r == c else 0 for c in range(d)] for r in range(d)]:
                nxt.append(basis)
                continue
            roots = _roots_mod(_charpoly_mod(s_mat, l), l)
            if len(roots) <= 1:
                nxt.append(basis)
                continue
            total = 0
            for lam in roots:
                shifted = [
                    [(s_mat[r][c] - (lam if r == c else 0)) % l for c in range(d)]
                    for r in range(d)
                ]
                null = _nullspace_mod(shifted, l)
                total += len(null)
                vecs = []
                for coord in null:
                    v = [0] * k
                    for jj, cf in enumerate(coord):
                        if cf:
                            bj = basis[jj]
                            for r in range(k):
                                v[r] = (v[r] + cf * bj[r]) % l
                    vecs.append(v)
                nxt.append(vecs)
            if total != d:
                raise AssertionError("eigenspaces do not fill the subspace")
        spaces = nxt
    if any(len(b) != 1 for b in spaces):
        raise AssertionError("the class algebra did not split completely")

    # every line against every class matrix: omegas[e][ci] is the
    # eigenvalue of class matrix ci on line e
    lines = [v for (v,) in spaces]
    packed = _pack_columns(lines)
    rows_of_lines = list(zip(*lines))
    firsts = [next(j for j in range(k) if v[j]) for v in lines]
    inv_firsts = [pow(v[j0], -1, l) for v, j0 in zip(lines, firsts)]
    by_class = []
    for ci in range(k):
        tv = _apply_packed(mats[ci], packed, k, l)
        ws = [tv[j0][e] * iv % l for e, (j0, iv) in enumerate(zip(firsts, inv_firsts))]
        for r in range(k):
            if tv[r] != [w * x % l for w, x in zip(ws, rows_of_lines[r])]:
                raise AssertionError("not a common eigenvector")
        by_class.append(ws)
    omegas = [list(om) for om in zip(*by_class)]
    if any(om[id_idx] != 1 for om in omegas):
        raise AssertionError("identity eigenvalue is not one")

    degrees = []
    chars_mod = []
    size_inv = [pow(sz, -1, l) for sz in cd.sizes]
    for om in omegas:
        s = 0
        for ci in range(k):
            s = (s + om[ci] * om[inv_class[ci]] * size_inv[ci]) % l
        d2 = n * pow(s, -1, l) % l
        deg = None
        for t in range(1, isqrt(n) + 1):
            if t * t % l == d2:
                deg = t
                break
        if deg is None:
            raise AssertionError("degree not recovered")
        degrees.append(deg)
        chars_mod.append([deg * om[ci] * size_inv[ci] % l for ci in range(k)])
    if sum(d * d for d in degrees) != n:
        raise AssertionError("degree squares do not sum to the order")

    # orthogonality mod l, cheap and done for every table
    for i1 in range(k):
        for i2 in range(i1, k):
            s = 0
            for ci in range(k):
                s = (s + cd.sizes[ci] * chars_mod[i1][ci] * chars_mod[i2][inv_class[ci]]) % l
            if s != (n % l if i1 == i2 else 0):
                raise AssertionError("modular orthogonality fails")

    # lift: the value at class i lives in the cyclotomic field of the
    # representative's order m; recover the multiplicity of each power of
    # zeta_m by inverting the DFT of t -> chi(rep^t) mod l, every row at
    # once. Row r of class i's inverse DFT pairs each class c with the sum
    # of y^(-r t) / m over the t with rep^t in c, y = root^(exponent/m), so
    # mults[i][r][e] is the multiplicity of zeta_m^r in row e.
    packed = _pack_columns(chars_mod)
    mults = []
    for ci in range(k):
        m = rep_orders[ci]
        y = pow(root, exponent // m, l)
        ypow = [pow(m, -1, l)] * m
        for t in range(1, m):
            ypow[t] = ypow[t - 1] * y % l
        pm = [id_idx]
        acc = group.identity
        for _ in range(m - 1):
            acc = mul(acc, cd.reps[ci])
            pm.append(idx[acc])
        dft = []
        for r in range(m):
            sums = {}
            for t, c in enumerate(pm):
                sums[c] = sums.get(c, 0) + ypow[-r * t % m]
            dft.append([(c, s % l) for c, s in sums.items()])
        mults.append(_apply_packed(dft, packed, k, l))

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
            vals.append(Cyclotomic(rep_orders[ci], coeffs))
        rows.append(ClassFunction(cd, vals))
    return CharacterTable(cd, rows)


# ---------------------------------------------------------------------------
# torus characters


def _char_orders(torus: TorusInG):
    g = torus.parent
    q = g.q
    if torus.tag == "split":
        return (q - 1, q - 1) if g.kind == "GL2" else (q - 1,)
    return (q * q - 1,) if g.kind == "GL2" else (q + 1,)


class TorusCharacter:
    """A character of the point group of a maximal torus.

    Presented by exponents against the canonical cyclic coordinates: split
    tori use the field's discrete logarithm on each diagonal entry,
    elliptic tori the logarithm in the quadratic extension (full group for
    determinant-free groups, norm-one subgroup otherwise).
    """

    __slots__ = ("torus", "exps", "orders")

    def __init__(self, torus: TorusInG, exps):
        self.torus = torus
        self.orders = _char_orders(torus)
        exps = tuple(int(e) % o for e, o in zip(exps, self.orders))
        if len(exps) != len(self.orders):
            raise ValueError("wrong number of exponents")
        self.exps = exps

    def value_at(self, point) -> Cyclotomic:
        g = self.torus.parent
        if point not in self.torus.point_set:
            raise ValueError("not a point of this torus")
        if self.torus.tag == "split":
            # diag(a, d) is packed a + d q^3
            d, a = divmod(point, g.tables.q3)
            e = self.exps[0] * g.field.log(a)
            if g.kind == "GL2":
                e += self.exps[1] * g.field.log(d)
            return Cyclotomic.zeta(g.q - 1, e)
        ext = _quad_ext(g.field)
        if g.kind == "GL2":
            return Cyclotomic.zeta(ext.order, self.exps[0] * ext.log[point])
        return Cyclotomic.zeta(g.q + 1, self.exps[0] * ext.norm_one_log[point])

    def w_twist(self) -> "TorusCharacter":
        """The character composed with the nontrivial Weyl involution."""
        g = self.torus.parent
        if self.torus.tag == "split":
            if g.kind == "GL2":
                return TorusCharacter(self.torus, (self.exps[1], self.exps[0]))
            return TorusCharacter(self.torus, (-self.exps[0],))
        if g.kind == "GL2":
            return TorusCharacter(self.torus, (self.exps[0] * g.q,))
        return TorusCharacter(self.torus, (-self.exps[0],))

    @property
    def is_singular(self):
        return self.w_twist().exps == self.exps

    def __repr__(self):
        return f"TorusCharacter({self.torus.tag}, exps={self.exps})"


def torus_characters(torus: TorusInG):
    """All characters of the torus point group, in lexicographic order."""
    return [
        TorusCharacter(torus, tup)
        for tup in product(*(range(o) for o in _char_orders(torus)))
    ]


def nonsingular_characters(torus: TorusInG):
    """The characters in general position (not fixed by the Weyl twist).
    May be empty: the split torus of the smallest determinant-one group
    has none."""
    return [c for c in torus_characters(torus) if not c.is_singular]


# ---------------------------------------------------------------------------
# torus-series characters


class DLCharacter:
    """A virtual character attached to a maximal torus and one of its
    characters, together with the genuine irreducible member when the
    torus character is in general position."""

    def __init__(self, torus, theta, virtual, genuine_row, w_stabilizer):
        self.torus = torus
        self.theta = theta
        self.virtual = virtual
        self.sign = torus.sign
        self.w_stabilizer = w_stabilizer
        self._genuine = genuine_row

    def genuine(self) -> ClassFunction:
        if self._genuine is None:
            raise ValueError(
                "singular torus character: no genuine irreducible attached"
            )
        return self._genuine

    def __repr__(self):
        return f"DLCharacter({self.torus.tag}, theta={self.theta.exps})"


def dl_character(torus: TorusInG, theta: TorusCharacter) -> DLCharacter:
    """The torus-series virtual character for (torus, theta).

    Split torus, and elliptic torus with nonsingular theta: the torus sign
    times the closed-form row of (torus, theta), the same row that
    `classical_table_oracle` lists, and the genuine character whenever
    theta is nonsingular.  On the split torus that row is the principal
    series, reducible for singular theta.  Elliptic torus with singular
    theta: the explicit two-term combination with norm two.  The norm
    equals the stabilizer order in the relative Weyl group, asserted
    exactly.  The checked parts are cached on the torus, keyed by theta's
    exponents.
    """
    if theta.torus is not torus:
        raise ValueError("theta belongs to a different torus")
    parts = cached(torus, ("dl_character", theta.exps), lambda torus: _dl_parts(torus, theta))
    return DLCharacter(torus, theta, *parts)


def _dl_parts(torus: TorusInG, theta: TorusCharacter):
    """(virtual, genuine or None, Weyl stabilizer order) for dl_character."""
    g = torus.parent
    cd = conjugacy_classes(g)
    shapes = _class_shapes(g)
    q = g.q
    w_stab = 2 if theta.is_singular else 1
    if torus.tag == "split" or not theta.is_singular:
        row = ClassFunction(cd, _series_row(g, shapes, torus.tag, theta.exps))
        virtual = row if torus.sign == 1 else -row
        genuine = None if theta.is_singular else row
    else:
        genuine = None
        if g.kind == "GL2":
            # theta factors through the norm: the virtual character is the
            # difference of a linear character and its Steinberg twist
            c = g.field.log(g.det_code(_quad_ext(g.field).gen))
            i = theta.exps[0] // (q + 1) * pow(c, -1, q - 1) % (q - 1)
            virtual = ClassFunction(
                cd, _gl2_values_linear(g, shapes, i)
            ) - ClassFunction(cd, _gl2_values_steinberg(g, shapes, i))
        elif theta.exps[0] == 0:
            virtual = ClassFunction(
                cd, _sl2_values_trivial(g, shapes)
            ) - ClassFunction(cd, _sl2_values_steinberg(g, shapes))
        else:
            virtual = -(
                ClassFunction(cd, _sl2_values_half(g, shapes, False, 1))
                + ClassFunction(cd, _sl2_values_half(g, shapes, False, -1))
            )
    if not virtual.inner(virtual) == w_stab:
        raise AssertionError("virtual character norm is off")
    if genuine is not None:
        want_deg = q + 1 if torus.tag == "split" else q - 1
        if not genuine.degree_value == want_deg:
            raise AssertionError("genuine degree is off")
    return virtual, genuine, w_stab


# ---------------------------------------------------------------------------
# the adjoint-orbit Fourier identity


def _orbit_fourier_sum(g: FiniteLieGroup, x, orbit) -> Cyclotomic:
    """Sum over the orbit of the conjugate additive character applied to
    the trace pairing with x."""
    fld = g.field
    coeffs = {}
    for c, cnt in enumerate(_kernels.pair_histogram(x, orbit, g.tables)):
        if cnt:
            e = (-fld.trace(c)) % fld.p
            coeffs[e] = coeffs.get(e, 0) + cnt
    return Cyclotomic(fld.p, coeffs)


def springer_check(
    g: FiniteLieGroup,
    torus: TorusInG,
    theta: TorusCharacter,
    t,
    all_unipotent=False,
):
    """Compare the genuine character at unipotent classes with the scaled
    additive-character sum over the adjoint orbit of t.

    t must be a strongly regular Lie algebra point of the torus, theta
    nonsingular (otherwise there is no genuine character and a ValueError
    propagates).  By default only the standard regular unipotent class is
    checked; all_unipotent sweeps every unipotent class including the
    identity.  Returns a report dict whose cases hold both sides as exact
    Cyclotomic values; "pass" is the conjunction of the per-class exact
    equalities.  The scaled orbit sums are cached on the group, keyed by
    (t, x). There is no rationality cache: the two sides have coprime
    conductors, which `Cyclotomic.__eq__` settles from each value's
    memoised reduction.
    """
    if torus.parent is not g:
        raise ValueError("torus belongs to a different group")
    if t not in torus.lie_point_set:
        raise ValueError("t is not a Lie algebra point of this torus")
    if not is_strongly_regular(g, t):
        raise ValueError("t is not strongly regular")
    rho = dl_character(torus, theta).genuine()
    orbit = g.adjoint_orbit_of(t)
    if len(orbit) * torus.order != g.order:
        raise AssertionError("orbit size does not match the torus order")
    if all_unipotent:
        reps = g.unipotent_class_reps()
    else:
        reps = (g.pack([[1, 1], [0, 1]]),)
    cd = conjugacy_classes(g)
    cases = []
    ok = True
    for u in reps:
        x = quasi_logarithm(g, u)
        rhs = cached(
            g, ("orbit_sum", t, x), lambda g: _orbit_fourier_sum(g, x, orbit) * Fraction(1, g.q)
        )
        lhs = rho.value_at(u)
        eq = lhs == rhs
        ok = ok and eq
        cases.append(
            {
                "unipotent_class": cd.class_of(u),
                "lhs": lhs,
                "rhs": rhs,
                "equal": eq,
            }
        )
    return {
        "kind": g.kind,
        "q": g.q,
        "torus": torus.tag,
        "theta": list(theta.exps),
        "t": g.unpack(t),
        "cases": cases,
        "pass": ok,
    }


def springer_fourier_reference(g: FiniteLieGroup, t, u) -> Cyclotomic:
    """The right-hand side of the identity computed through the generic
    Fourier transform on the Lie algebra, for cross-checking the direct
    orbit sum.  Subject to the Fourier budget of the Lie function layer."""
    orbit = g.adjoint_orbit_of(t)
    f = LieFunction.indicator(g, orbit)
    fhat = finite_fourier(g, f)
    return fhat.value_at(quasi_logarithm(g, u)) * Fraction(1, g.q)


# ---------------------------------------------------------------------------
# reduction of mixed traces to the semisimple part


def _jordan_parts(g: FiniteLieGroup, gamma):
    """gamma = delta * u with delta of order prime to p, u of p-power
    order, both powers of gamma: the CRT split of the cyclic group
    generated by gamma (`padic.jordan_exponent`)."""
    if gamma not in g._members:
        raise ValueError("not a group element")
    n_ord = element_order(g.mul, g.identity, gamma, g.order)
    r, e = jordan_exponent(n_ord, g.field.p)
    if r == n_ord:
        return gamma, g.identity
    if r == 1:
        return g.identity, gamma
    delta = power(g.mul, g.identity, gamma, e)
    u = power(g.mul, g.identity, gamma, (1 - e) % n_ord)
    if g.mul(delta, u) != gamma:
        raise AssertionError("the two parts do not recompose")
    return delta, u


def _is_central(g: FiniteLieGroup, code):
    """Whether the packed matrix is a scalar x, packed x (1 + q^3)."""
    return code == code % g.q * g.identity


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
    if _is_central(g, delta):
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
