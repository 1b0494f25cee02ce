"""Character tables, torus-series characters, and the two trace identities."""

import copy
import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import liechar.cli as cli
import liechar.dl_spectra as dl_spectra
from liechar.dl_spectra import (
    CharacterTable,
    ClassData,
    ClassFunction,
    TorusCharacter,
    DIXON_MODULUS_BOUND,
    DIXON_ORDER_BUDGET,
    _choose_modulus,
    _gauss_sum,
    _generic_element,
    _jordan_parts,
    _split,
    _split_round,
    character_table_dixon,
    classical_table_oracle,
    conjugacy_classes,
    dl_character,
    dl_jordan_reduction_check,
    nonsingular_characters,
    springer_check,
    springer_fourier_reference,
    springer_grid,
    tables_match,
    torus_characters,
)
from liechar.exact_math import Cyclotomic, FiniteField, cached, jordan_exponent, power, rref_mod
from liechar.finite_lie import (
    FiniteLieGroup,
    build_finite_group,
    is_strongly_regular,
    quasi_logarithm,
    tori_and_regularity,
)

from reference_lattice import coords_in_basis
from test_cli import run_cli


def right_products_by_mul(group, xs, ys):
    """The protocol's right_products, one mul per product."""
    for y in ys:
        yield [group.mul(x, y) for x in xs]


def classes_by_conjugation(group):
    """The classes of a small group, each element conjugated by every
    element: quadratic, so only for the toy groups here, whose constructors
    cache their classes with it."""
    seen = set()
    classes = []
    for x in group.elements:
        if x in seen:
            continue
        orb = {group.mul(g, group.mul(x, group.inv(g))) for g in group.elements}
        seen |= orb
        classes.append(sorted(orb))
    return ClassData(group, classes)


class CyclicAdapter:
    """Z/n with the generic group protocol."""

    def __init__(self, n):
        self.n = n
        self.elements = tuple(range(n))
        self.identity = 0
        self.derived = {}
        cached(self, "classes", classes_by_conjugation)

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    right_products = right_products_by_mul


class PermAdapter:
    """A permutation group on tuples, here used for S3."""

    def __init__(self, perms):
        self.elements = tuple(sorted(perms))
        self.identity = tuple(range(len(self.elements[0])))
        self.derived = {}
        cached(self, "classes", classes_by_conjugation)

    def mul(self, a, b):
        return tuple(a[b[i]] for i in range(len(a)))

    def inv(self, a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    right_products = right_products_by_mul


class ElementaryTwoGroup:
    """(Z/2)^r on the integers below 2^r, the product their xor."""

    def __init__(self, r):
        self.elements = tuple(range(2**r))
        self.identity = 0
        self.derived = {}
        cached(self, "classes", classes_by_conjugation)

    def mul(self, a, b):
        return a ^ b

    def inv(self, a):
        return a

    right_products = right_products_by_mul


def s3():
    from itertools import permutations

    return PermAdapter([tuple(p) for p in permutations(range(3))])


def torus_by_tag(g, tag):
    return next(t for t in tori_and_regularity(g) if t.tag == tag)


# -- conjugacy classes


def test_class_counts_sl2_gl2():
    cd = conjugacy_classes(build_finite_group("SL2", 3))
    assert cd.count == 7
    cd = conjugacy_classes(build_finite_group("GL2", 3))
    assert cd.count == 8  # q^2 - 1


def test_central_classes_are_singletons():
    g = build_finite_group("GL2", 5)
    cd = conjugacy_classes(g)
    singles = [cd.reps[i] for i in range(cd.count) if cd.sizes[i] == 1]
    assert len(singles) == 4  # the center has order q - 1
    for rep in singles:
        m = g.unpack(rep)
        assert m[0][1] == m[1][0] == 0 and m[0][0] == m[1][1]


def test_classes_partition_and_identity_first():
    g = build_finite_group("SL2", 5)
    cd = conjugacy_classes(g)
    assert sum(cd.sizes) == g.order
    assert cd.reps[cd.identity_index] == g.identity
    assert cd.identity_index == 0
    with pytest.raises(ValueError, match="not a group element"):
        cd.class_of(-1)


def test_generic_path_on_s3():
    cd = conjugacy_classes(s3())
    assert sorted(cd.sizes) == [1, 2, 3]


# -- the modular route


def test_choose_modulus_values():
    assert _choose_modulus(12, 24, 7) == 13  # SL2(F_3)
    assert _choose_modulus(24, 48, 8) == 73  # GL2(F_3)
    # elementary abelian groups, where l > k + 1 decides: (Z/2)^4 and
    # (Z/3)^2 would take 11 and 7 by the congruence and the size bound
    assert _choose_modulus(2, 16, 16) == 19
    assert _choose_modulus(3, 9, 9) == 13
    with pytest.raises(AssertionError, match=r"below DIXON_MODULUS_BOUND = 1000000$"):
        _choose_modulus(999983, 100, 1)


def test_choose_modulus_never_reaches_its_bound():
    # the exponent divides the order n <= DIXON_ORDER_BUDGET, the class
    # count is at most n, and the largest order and count need the largest
    # l, so this covers every admitted group
    budget = DIXON_ORDER_BUDGET
    worst = max((_choose_modulus(e, budget, budget), e) for e in range(1, budget + 1))
    assert worst == (496747, 9199)
    assert worst[0] < DIXON_MODULUS_BOUND


def _planted_algebra(omegas, p, l):
    """The sparse rows of M_i = P diag(omegas[c][i] for c) P^-1 mod l, one
    matrix per coordinate i: column c of P is an eigenvector of every M_i,
    with eigenvalue omegas[c][i]. Column 0 of P^-1 must have no zero, so
    that e_0 has a share on every column."""
    k = len(p)
    a, pivots = rref_mod([row + [int(i == j) for j in range(k)] for i, row in enumerate(p)], l, k)
    assert pivots == list(range(k))
    p_inv = [row[k:] for row in a]
    assert all(row[0] for row in p_inv)
    mats = []
    for i in range(k):
        dense = [
            [sum(p[r][c] * om[i] * p_inv[c][t] for c, om in enumerate(omegas)) % l for t in range(k)]
            for r in range(k)
        ]
        mats.append([[(t, x) for t, x in enumerate(row) if x] for row in dense])
    return mats


def _eigen_support(p, vecs, l):
    """For each vector, the columns of P it has a nonzero coordinate on."""
    cols = [list(c) for c in zip(*p)]
    return sorted(tuple(c for c, x in enumerate(cf) if x) for cf in coords_in_basis(cols, vecs, l))


# e_0 is the sum of the columns: column 0 of the inverse is (1, 1, 1, 1)
_P = [[1, 1, 0, -1], [0, 1, -1, 0], [0, -1, 0, 1], [-1, -1, 1, 1]]


@pytest.mark.parametrize("l", [13, 101])
def test_one_round_keeps_a_repeated_eigenvalue_as_one_share(l):
    """Four common eigenlines whose eigenvalues of S = sum_i x^i M_i are
    1, 1, 3, 5 at x = 2 and 1, -2, 4, 10 at x = 3."""
    omegas = [[1, 0, 0, 0], [1, 2, -1, 0], [1, 1, 0, 0], [1, 0, 1, 0]]
    mats = _planted_algebra(omegas, _P, l)
    shares = _split_round(_generic_element(mats, 2, l), [[1, 0, 0, 0]], l)
    assert _eigen_support(_P, shares, l) == [(0, 1), (2,), (3,)]
    # x = 3 splits the repeated root's share; the two lines stay lines
    lines = _split_round(_generic_element(mats, 3, l), shares, l)
    assert _eigen_support(_P, lines, l) == [(0,), (1,), (2,), (3,)]
    assert _eigen_support(_P, _split(mats, 0, l), l) == [(0,), (1,), (2,), (3,)]
    # a defective block (one Jordan block of 2) is refused, not kept
    with pytest.raises(AssertionError, match="minimal polynomial does not split"):
        _split_round([[(0, 3), (1, 1)], [(1, 3)]], [[0, 1]], l)
    # two blocks of F_l^2 leave one line each, so S w = lam w must close
    with pytest.raises(AssertionError, match="a Krylov sequence does not close"):
        _split_round([[(1, 1)], [(0, 1)]], [[1, 0], [0, 1]], l)


def _counted(monkeypatch, name):
    """The calls of dl_spectra's `name`, counted as they run."""
    calls = []
    f = getattr(dl_spectra, name)

    def counted(*args):
        calls.append(1)
        return f(*args)

    monkeypatch.setattr(dl_spectra, name, counted)
    return calls


@pytest.mark.parametrize("l", [13, 101])
def test_a_block_is_taken_as_its_own_share_only_when_s_w_is_lam_w(monkeypatch, l):
    """A block w with S w = lam w (read off the first Krylov step) is its
    own share, with no row reduction; every other block is split as
    before. The round of x = 3 gets the lines (2,) and (3,) and the block
    (0, 1), which it splits with one minimal polynomial."""
    omegas = [[1, 0, 0, 0], [1, 2, -1, 0], [1, 1, 0, 0], [1, 0, 1, 0]]
    mats = _planted_algebra(omegas, _P, l)
    shares = _split_round(_generic_element(mats, 2, l), [[1, 0, 0, 0]], l)
    polys, reductions = _counted(monkeypatch, "_minimal_polynomial"), _counted(monkeypatch, "rref_mod")
    lines = _split_round(_generic_element(mats, 3, l), shares, l)
    assert (len(polys), len(reductions)) == (1, 1)
    assert _eigen_support(_P, lines, l) == [(0,), (1,), (2,), (3,)]
    # the two lines come back as they went in
    kept = [v for v in shares if len(_eigen_support(_P, [v], l)[0]) == 1]
    assert len(kept) == 2 and all(v in lines for v in kept)
    # a round in which no block is a line reduces every block
    polys.clear()
    _split_round(_generic_element(mats, 2, l), [[1, 0, 0, 0]], l)
    assert len(polys) == 1


def test_generic_element_is_the_sum_of_the_class_matrices(monkeypatch):
    """S = sum_i x^i M_i mod l, summed here densely from GL2(F_5)'s class
    matrices, against `_generic_element`'s sparse rows: every nonzero
    entry listed once, in [1, l), and no other."""
    mats = _class_matrices(monkeypatch, build_finite_group("GL2", 5))
    k = len(mats)
    for x, l in ((2, 101), (3, 101), (25, 4001)):
        want = [[0] * k for _ in range(k)]
        for i, mat in enumerate(mats):
            for r, pairs in enumerate(mat):
                for t, c in pairs:
                    want[r][t] = (want[r][t] + pow(x, i, l) * c) % l
        rows = _generic_element(mats, x, l)
        assert all(0 < a < l for row in rows for _, a in row)
        assert [[dict(row).get(t, 0) for t in range(k)] for row in rows] == want
        assert all(len(dict(row)) == len(row) for row in rows)


def _class_matrices(monkeypatch, g):
    """The class matrices character_table_dixon builds for g, read off its
    call of `_split`."""
    seen = []
    split = dl_spectra._split

    def spy(mats, id_idx, l):
        seen.append(mats)
        return split(mats, id_idx, l)

    monkeypatch.setattr(dl_spectra, "_split", spy)
    character_table_dixon(g)
    monkeypatch.setattr(dl_spectra, "_split", split)
    return seen[0]


def test_dixon_structure_constants_count_inverses_of_the_class(monkeypatch):
    """mats[i][j] lists (t, c), c the number of x in C_i with x^-1 rep_t in
    C_j. The table takes the x^-1 from C_i's inverse class; here they are
    the inverses of C_i's members, taken one by one. GL2(F_5) has classes
    that are not their own inverse class, so the two differ unless the
    inverse class is used."""
    g = build_finite_group("GL2", 5)
    cd = conjugacy_classes(g)
    assert any(cd.class_of(g.inv(r)) != ci for ci, r in enumerate(cd.reps))
    counts = Counter(
        (ci, cd.class_of(g.mul(g.inv(x), rep)), t)
        for ci, mem in enumerate(cd.members) for x in mem for t, rep in enumerate(cd.reps)
    )
    want = [[[] for _ in range(cd.count)] for _ in range(cd.count)]
    for (ci, j, t), c in sorted(counts.items()):
        want[ci][j].append((t, c))
    assert _class_matrices(monkeypatch, g) == want


def test_dixon_takes_no_inverse_of_a_matrix_group_with_its_classes(monkeypatch):
    """The classes of a matrix group come from its conjugation orbits, and
    the table from products alone: a GL2(F_5) whose inv raises once its
    classes are cached gets the same table."""
    want = character_table_dixon(build_finite_group("GL2", 5))
    g = FiniteLieGroup("GL2", FiniteField(5))
    conjugacy_classes(g)

    def inv(a):
        raise AssertionError("inv called")

    monkeypatch.setattr(g, "inv", inv)
    got = character_table_dixon(g)
    assert [row.values for row in got.rows] == [row.values for row in want.rows]


def _rounds(monkeypatch, constant=None):
    """The points x of the split's rounds, recorded as they run; with a
    constant, every round uses it instead."""
    xs = []

    def generic_element(mats, x, l):
        xs.append(x)
        return _generic_element(mats, x if constant is None else constant, l)

    monkeypatch.setattr(dl_spectra, "_generic_element", generic_element)
    return xs


def test_split_needs_at_most_k_rounds_and_may_need_all(monkeypatch):
    """sum_i (omega^chi_i - omega^psi_i) x^i separates chi and psi unless it
    vanishes at x; it is nonzero of degree < k, so one of the k points x =
    2, ..., k + 1 separates them. Planted at k = 4, l = 7: omega^1 - omega^0
    = (x - 2)(x - 3)(x - 4), nonzero only at the last point."""
    l = 7
    omegas = [[0, 0, 0, 0], [-24 % l, 26 % l, -9 % l, 1], [1, 0, 0, 0], [2, 0, 0, 0]]
    mats = _planted_algebra(omegas, _P, l)
    xs = _rounds(monkeypatch)
    assert _eigen_support(_P, _split(mats, 0, l), l) == [(0,), (1,), (2,), (3,)]
    assert xs == [2, 3, 4, 5]
    # random algebras of distinct eigenvalue vectors split within k rounds
    rng = random.Random(7)
    for _ in range(40):
        omegas = [[0] * 4]
        while len(omegas) < 4:
            om = [rng.randrange(l) for _ in range(4)]
            if om not in omegas:
                omegas.append(om)
        xs.clear()
        lines = _split(_planted_algebra(omegas, _P, l), 0, l)
        assert _eigen_support(_P, lines, l) == [(0,), (1,), (2,), (3,)]
        assert len(xs) <= 4
    # a constant x runs out of the rounds
    _rounds(monkeypatch, constant=2)
    with pytest.raises(AssertionError, match="did not split into k lines within k rounds"):
        _split(mats, 0, l)


def test_dixon_splits_the_small_groups_within_two_rounds(monkeypatch):
    xs = _rounds(monkeypatch)
    for group in (CyclicAdapter(3), s3(), ElementaryTwoGroup(4)):
        xs.clear()
        character_table_dixon(group)
        assert xs in ([2], [2, 3])


def test_dixon_elementary_two_group():
    """(Z/2)^4: 16 classes, so l > 17 decides l = 19."""
    table = character_table_dixon(ElementaryTwoGroup(4))
    assert table.degrees == (1,) * 16
    table.verify()
    assert all(row.value_at(x) in (1, -1) for row in table.rows for x in range(16))


def test_dixon_cyclic_three():
    table = character_table_dixon(CyclicAdapter(3))
    assert table.degrees == (1, 1, 1)
    table.verify()
    for j in range(3):
        hits = [
            row
            for row in table.rows
            if all(row.value_at(k) == Cyclotomic.zeta(3, j * k) for k in range(3))
        ]
        assert len(hits) == 1


def test_dixon_s3_degrees():
    table = character_table_dixon(s3())
    assert sorted(table.degrees) == [1, 1, 2]
    table.verify()


def test_dixon_sl2_3_degrees_and_orthogonality():
    table = character_table_dixon(build_finite_group("SL2", 3))
    assert sorted(table.degrees) == [1, 1, 1, 2, 2, 2, 3]
    assert sum(d * d for d in table.degrees) == 24
    table.verify()


def test_dixon_budget():
    g = build_finite_group("GL2", 11)
    with pytest.raises(ValueError, match="budget"):
        character_table_dixon(g)


class OneWrongProduct:
    """A matrix group through the generic protocol, whose mul, and so its
    right_products, returns a wrong element for the one product a * b."""

    def __init__(self, g, a, b, wrong):
        self.elements, self.identity, self.inv = g.elements, g.identity, g.inv
        self.group, self.fault = g, (a, b, wrong)
        self.derived = {}
        cached(self, "classes", classes_by_conjugation)

    def mul(self, x, y):
        a, b, wrong = self.fault
        return wrong if x == a and y == b else self.group.mul(x, y)

    right_products = right_products_by_mul


@pytest.mark.parametrize(
    "kind,ci,t,message",
    [
        ("SL2", 2, 6, "a Krylov sequence does not close"),
        ("GL2", 7, 1, "the minimal polynomial does not split into distinct roots"),
        # the generic element of these faulty class matrices still splits
        # into k lines, so only the check of every line against every class
        # matrix sees them
        ("GL2", 3, 0, "not a common eigenvector"),
        ("GL2", 2, 1, "not a common eigenvector"),
    ],
)
def test_dixon_checks_catch_one_wrong_product(kind, ci, t, message):
    """x^{-1} * rep_t, for x the smallest member of class ci, is replaced by
    the representative of the next class, one entry of the structure
    matrices moved to another row."""
    with pytest.raises(AssertionError, match=message):
        character_table_dixon(_one_wrong_product(kind, ci, t))


def _swapped_sizes(monkeypatch, g):
    """The classes of g with the sizes of classes 0 and 2 swapped."""
    cd = copy.copy(conjugacy_classes(g))
    sizes = list(cd.sizes)
    sizes[0], sizes[2] = sizes[2], sizes[0]
    cd.sizes = tuple(sizes)
    monkeypatch.setattr(dl_spectra, "conjugacy_classes", lambda group: cd)


def _half_order(monkeypatch, g):
    """The walk of the representative of class 2 cut to its first half and
    closed by its last entry, the inverse: the order is read as half the
    order, and the inverse class stays right."""
    rep = conjugacy_classes(g).reps[2]
    find = dl_spectra.powers

    def half_walk(mul, one, x, n):
        walk = find(mul, one, x, n)
        return walk[: len(walk) // 2 - 1] + walk[-1:] if x == rep else walk

    monkeypatch.setattr(dl_spectra, "powers", half_walk)


def _root_off_by_one(monkeypatch, g):
    """Each root of a minimal polynomial read one too large."""
    find = dl_spectra._roots_mod
    monkeypatch.setattr(dl_spectra, "_roots_mod", lambda poly, l: [(x + 1) % l for x in find(poly, l)])


def _square_generator(monkeypatch, g):
    """The square of a generator of F_l^* taken for a generator."""
    find = dl_spectra.primitive_element
    monkeypatch.setattr(dl_spectra, "primitive_element", lambda *args: find(*args) ** 2)


def _duplicate_line(monkeypatch, g):
    """The second of two lines with one identity coordinate, so one degree,
    replaced by the first: every line is still a common eigenvector, the
    degrees and the lifted rows are still those of characters."""
    find = dl_spectra._split

    def split(mats, id_idx, l):
        lines = list(find(mats, id_idx, l))
        ids = [v[id_idx] for v in lines]
        j = next(j for j, u in enumerate(ids) if u in ids[:j])
        lines[j] = lines[ids.index(ids[j])]
        return lines

    monkeypatch.setattr(dl_spectra, "_split", split)


# the checks that no single wrong product reaches, each with a fault
# planted in the code
PLANTED = {
    "root": _root_off_by_one,
    "constant-x": lambda monkeypatch, g: _rounds(monkeypatch, constant=2),
    "sizes": _swapped_sizes,
    "generator": _square_generator,
    "order": _half_order,
    "duplicate": _duplicate_line,
}


@pytest.mark.parametrize(
    "fault,message",
    [
        ("root", "a share is not an eigenvector of S"),
        ("constant-x", "did not split into k lines within k rounds"),
        ("sizes", "degree not recovered"),
        ("generator", "multiplicities do not sum to the degree"),
        ("order", "eigenvalue multiplicity too large"),
        ("duplicate", "modular orthogonality fails"),
    ],
)
def test_dixon_checks_catch_one_planted_fault(monkeypatch, fault, message):
    g = build_finite_group("SL2", 3)
    PLANTED[fault](monkeypatch, g)
    with pytest.raises(AssertionError, match=message):
        character_table_dixon(g)


def _one_wrong_product(kind, ci, t):
    g = build_finite_group(kind, 3)
    cd = conjugacy_classes(g)
    xi = g.inv(cd.members[ci][0])
    right = cd.class_of(g.mul(xi, cd.reps[t]))
    wrong = cd.reps[(right + 1) % cd.count]
    return OneWrongProduct(g, xi, cd.reps[t], wrong)


def test_dixon_refuses_every_single_wrong_product():
    # the 7^2 + 8^2 = 113 class pairs (ci, t) of SL2(F_3) and GL2(F_3)
    faults = []
    for kind in ("SL2", "GL2"):
        k = conjugacy_classes(build_finite_group(kind, 3)).count
        faults += [(kind, ci, t) for ci in range(k) for t in range(k)]
    assert len(faults) == 113
    for fault in faults:
        with pytest.raises(AssertionError):
            character_table_dixon(_one_wrong_product(*fault))


def test_character_table_refuses_a_degree_that_is_not_a_positive_integer():
    # the last check of every Dixon table, on the rows it lifted
    cd = conjugacy_classes(s3())
    for degree in (-1, 0, Fraction(1, 2)):
        with pytest.raises(AssertionError, match="row degree is not a positive integer"):
            dl_spectra.CharacterTable(cd, [ClassFunction(cd, [degree] * cd.count)])


# -- closed forms


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gauss_sum_square(q):
    fld = build_finite_group("SL2", q).field
    tau = _gauss_sum(fld)
    eps_prime = 1 if fld.is_square(fld.neg(1)) else -1
    assert tau * tau == eps_prime * q


def test_classical_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        classical_table_oracle("XX2", 5)


@pytest.mark.parametrize("q", [3, 5])
def test_classical_gl2_row_structure(q):
    table = classical_table_oracle("GL2", q)
    assert len(table.rows) == q * q - 1
    want = Counter(
        {
            1: q - 1,
            q: q - 1,
            q + 1: (q - 1) * (q - 2) // 2,
            q - 1: (q * q - q) // 2,
        }
    )
    assert Counter(table.degrees) == {k: v for k, v in want.items() if v}


def test_classical_sl2_5_degrees():
    table = classical_table_oracle("SL2", 5)
    assert sorted(table.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_discrete_series_at_unipotent_is_minus_one():
    # cuspidal rows evaluated at a nontrivial unipotent element
    for kind, q in [("GL2", 5), ("SL2", 5)]:
        g = build_finite_group(kind, q)
        table = classical_table_oracle(kind, q)
        u = g.pack([[1, 1], [0, 1]])
        cusp = [r for r in table.rows if r.degree_value == q - 1]
        assert len(cusp) >= 1
        if kind == "GL2":
            assert all(r.value_at(u) == -1 for r in cusp)
        else:
            # determinant-one case: value is -(+-1)^j, so +-1 overall;
            # the standard discrete series gives exactly -1 at u
            assert any(r.value_at(u) == -1 for r in cusp)


def test_central_character_of_steinberg():
    g = build_finite_group("SL2", 3)
    table = classical_table_oracle("SL2", 3)
    minus = g.pack([[2, 0], [0, 2]])
    assert table.classes.sizes[table.classes.class_of(minus)] == 1
    i = table.degrees.index(3)
    st = table.rows[i]
    assert st.value_at(minus) == 3
    # the central character: the value at a central element over the degree
    assert st.value_at(minus) * Fraction(1, table.degrees[i]) == 1


# Dixon refuses GL2 over F_11 and F_13, so exact orthogonality is their only
# check that does not share the classical table's construction
@pytest.mark.parametrize(
    "kind,q", [("GL2", 3), ("SL2", 3), ("SL2", 5), ("GL2", 5), ("GL2", 11), ("GL2", 13)]
)
def test_classical_orthogonality_exact(kind, q):
    classical_table_oracle(kind, q).verify()


# -- the two routes agree


@pytest.mark.parametrize(
    "kind,q",
    [
        ("SL2", 3), ("GL2", 3), ("SL2", 5), ("GL2", 5), ("SL2", 7), ("GL2", 7), ("SL2", 9),
        ("GL2", 9), ("SL2", 11), ("SL2", 13),
    ],
)
def test_dixon_matches_classical(monkeypatch, kind, q):
    xs = _rounds(monkeypatch)
    dix = character_table_dixon(build_finite_group(kind, q))
    assert tables_match(dix, classical_table_oracle(kind, q))
    # every group here splits within two rounds
    assert xs in ([2], [2, 3])


def test_tables_match_compares_values_not_storage():
    """The classical table with every value stored at twice its conductor
    still matches the Dixon table; with one value times zeta_3, it does
    not."""
    dix = character_table_dixon(build_finite_group("GL2", 5))
    cd = dix.classes
    stored = [
        [Cyclotomic(2 * v.n, {2 * e: c for e, c in v.num.items()}, v.den) for v in row.values]
        for row in classical_table_oracle("GL2", 5).rows
    ]
    assert tables_match(dix, CharacterTable(cd, [ClassFunction(cd, vals) for vals in stored]))
    stored[1][2] = stored[1][2] * Cyclotomic.zeta(3)
    assert not tables_match(dix, CharacterTable(cd, [ClassFunction(cd, vals) for vals in stored]))


def test_tables_match_rejects_foreign_classes():
    a = character_table_dixon(CyclicAdapter(3))
    b = character_table_dixon(s3())
    with pytest.raises(ValueError, match="different class lists"):
        tables_match(a, b)


# -- torus characters


def test_torus_character_counts():
    g = build_finite_group("GL2", 5)
    split = torus_by_tag(g, "split")
    ell = torus_by_tag(g, "elliptic")
    assert len(torus_characters(split)) == 16
    assert len(nonsingular_characters(split)) == 12  # i != j
    assert len(torus_characters(ell)) == 24
    assert len(nonsingular_characters(ell)) == 20  # (q+1) not dividing j


def test_sl2_3_split_has_no_nonsingular_character():
    g = build_finite_group("SL2", 3)
    assert nonsingular_characters(torus_by_tag(g, "split")) == []


@pytest.mark.parametrize("kind,tag", [("GL2", "split"), ("GL2", "elliptic"), ("SL2", "split"), ("SL2", "elliptic")])
def test_torus_character_is_multiplicative(kind, tag):
    g = build_finite_group(kind, 5)
    torus = torus_by_tag(g, tag)
    theta = torus_characters(torus)[1]
    pts = torus.points
    for a in pts[:3]:
        for b in pts[-3:]:
            assert theta.value_at(g.mul(a, b)) == theta.value_at(a) * theta.value_at(b)
    assert theta.value_at(g.identity) == 1


def test_torus_character_twist_is_involutive():
    g = build_finite_group("GL2", 7)
    for torus in tori_and_regularity(g):
        for theta in torus_characters(torus)[:6]:
            assert theta.w_twist().w_twist().exps == theta.exps


ADMITTED = [(kind, q) for kind in ("GL2", "SL2") for q in (3, 5, 7, 9, 11, 13)]


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_w_twist_is_theta_at_the_weyl_image(kind, q):
    # w_twist reads the coordinates of w(u) at the unit points u only, so
    # this checks the unit points against the coordinates at every point
    g = build_finite_group(kind, q)
    for torus in tori_and_regularity(g):
        for theta in torus_characters(torus):
            twisted = theta.w_twist()
            for t in torus.points:
                assert twisted.value_at(t) == theta.value_at(torus.weyl[t]), (torus, theta, t)


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_classical_series_rows_are_the_dl_genuine_rows(kind, q):
    g = build_finite_group(kind, q)
    table = classical_table_oracle(kind, q)
    series = [
        dl_character(torus, theta).genuine()
        for torus in tori_and_regularity(g)
        for theta in nonsingular_characters(torus)
        if theta.exps < theta.w_twist().exps
    ]
    assert series
    assert [row for row in table.rows if any(row is s for s in series)] == series


def test_torus_character_rejects_foreign_point():
    g = build_finite_group("SL2", 5)
    torus = torus_by_tag(g, "split")
    theta = torus_characters(torus)[1]
    with pytest.raises(ValueError, match="not a point"):
        theta.value_at(g.pack([[1, 1], [0, 1]]))


# -- torus-series characters


def test_split_trivial_theta_decomposes():
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "split")
    theta = TorusCharacter(torus, (0,))
    dl = dl_character(torus, theta)
    # the norm is the order 2 of the Weyl stabilizer of theta
    assert dl.signed.inner(dl.signed) == 2
    table = classical_table_oracle("SL2", 3)
    triv = table.rows[table.degrees.index(1)]
    st = table.rows[table.degrees.index(3)]
    # eps_G eps_T = +1 on the split torus, so the row is R_T^theta itself
    assert torus.sign == 1
    assert dl.signed == triv + st
    with pytest.raises(ValueError, match="singular"):
        dl.genuine()


def _borel_histograms(g):
    """Per class representative y: the diagonals (a, d) of the conjugates
    x y x^-1, x over the whole group, that are upper triangular, counted
    with multiplicity; and the order of the upper-triangular Borel B."""
    def diagonal_if_upper(m):
        (a, _), (c, d) = g.unpack(m)
        return (a, d) if c == 0 else None

    borel = sum(diagonal_if_upper(x) is not None for x in g.elements)
    hists = []
    for y in conjugacy_classes(g).reps:
        bins = Counter(diagonal_if_upper(g.conj(x, y)) for x in g.elements)
        bins.pop(None, None)
        hists.append(bins)
    return hists, borel


def _induced_from_borel(torus, theta, hists, borel):
    """Ind_B^G theta by the Frobenius formula: at y, (1/|B|) times the sum
    of theta(x y x^-1) over the x with x y x^-1 in B, theta read on B
    through its diagonal."""
    g = torus.parent
    vals = []
    for bins in hists:
        total = Cyclotomic.zero()
        for (a, d), count in bins.items():
            total = total + theta.value_at(g.pack([[a, 0], [0, d]])) * count
        vals.append(total * Fraction(1, borel))
    return ClassFunction(conjugacy_classes(g), vals)


@pytest.mark.parametrize(
    "kind,q",
    [("GL2", 3), ("GL2", 5), ("GL2", 7), ("SL2", 3), ("SL2", 5), ("SL2", 7), ("SL2", 9), ("SL2", 11)],
)
def test_split_series_is_induced_from_borel(kind, q):
    # every theta, singular ones included: R_split^theta from the character
    # formula is the induced character, irreducible of degree q + 1 exactly
    # when theta is nonsingular. eps_G eps_T = +1 on the split torus, so the
    # one row of dl_character is R_split^theta itself
    g = build_finite_group(kind, q)
    torus = torus_by_tag(g, "split")
    assert torus.sign == 1
    hists, borel = _borel_histograms(g)
    for theta in torus_characters(torus):
        dl = dl_character(torus, theta)
        ind = _induced_from_borel(torus, theta, hists, borel)
        assert dl.signed == ind, theta
        if theta.is_singular:
            assert dl.signed.inner(dl.signed) == 2
        else:
            assert dl.genuine() == ind
            assert ind.degree_value == q + 1
            assert ind.inner(ind) == 1


def test_elliptic_genuine_is_cuspidal():
    g = build_finite_group("GL2", 5)
    torus = torus_by_tag(g, "elliptic")
    table = classical_table_oracle("GL2", 5)
    for theta in nonsingular_characters(torus):
        dl = dl_character(torus, theta)
        rho = dl.genuine()
        assert rho.degree_value == 4
        # rho is the row eps_G eps_T R_T^theta, eps_G eps_T = -1: R_T^theta
        # has degree -(q - 1) = -4
        assert rho is dl.signed
        assert torus.sign == -1
        assert torus.sign * rho.degree_value == -4
        assert any(rho == row for row in table.rows if row.degree_value == 4)


def test_dl_norm_matches_weyl_stabilizer():
    for kind, q in [("SL2", 5), ("GL2", 3)]:
        g = build_finite_group(kind, q)
        for torus in tori_and_regularity(g):
            for theta in torus_characters(torus):
                dl = dl_character(torus, theta)
                want = 2 if theta.is_singular else 1
                if want == 2:
                    with pytest.raises(ValueError, match="singular"):
                        dl.genuine()
                else:
                    assert dl.genuine() is dl.signed
                # the norm of eps R_T^theta is that of R_T^theta: eps^2 = 1
                assert dl.signed.inner(dl.signed) == want


@pytest.mark.parametrize(
    "kind,q", [("GL2", 3), ("GL2", 5), ("GL2", 7), ("SL2", 3), ("SL2", 5), ("SL2", 7), ("SL2", 9)]
)
def test_dl_formula_decomposes_over_dixon(kind, q):
    # every theta, singular ones included, against the modular route: the
    # multiplicities of the row eps_G eps_T R_T^theta are integers whose
    # squares sum to |W_theta|. A singular elliptic theta gives R_T^theta =
    # 1 - St twisted (GL2, and the trivial theta of SL2) or minus the two
    # halves of the cuspidal series (the quadratic theta of SL2); there
    # eps_G eps_T = -1, so the row's parts have the opposite signs
    g = build_finite_group(kind, q)
    table = character_table_dixon(g)
    for torus in tori_and_regularity(g):
        for theta in torus_characters(torus):
            dl = dl_character(torus, theta)
            mults = [dl.signed.inner(row).rational_value() for row in table.rows]
            assert all(m.denominator == 1 for m in mults), (torus, theta)
            assert sum(m * m for m in mults) == (2 if theta.is_singular else 1)
            if torus.tag == "split" or not theta.is_singular:
                continue
            assert torus.sign == -1
            parts = sorted((m, d) for m, d in zip(mults, table.degrees) if m)
            if kind == "GL2" or theta.exps == (0,):
                assert parts == [(-1, 1), (1, q)], theta
            else:
                assert parts == [(1, (q - 1) // 2)] * 2, theta


def _expected_inner(theta1, theta2):
    """Predicted inner product of two torus-series virtual characters: the
    number of relative Weyl elements carrying theta1 to theta2. Distinct
    tori give zero."""
    if theta1.torus is not theta2.torus:
        return 0
    return (theta1.exps == theta2.exps) + (theta1.w_twist().exps == theta2.exps)


@pytest.mark.parametrize("kind,q", [("SL2", 5), ("GL2", 3)])
def test_dl_inner_products_count_weyl_matches(kind, q):
    g = build_finite_group(kind, q)
    pairs = [
        (torus, theta)
        for torus in tori_and_regularity(g)
        for theta in torus_characters(torus)
    ]
    # <R_1, R_2> = eps_1 eps_2 <eps_1 R_1, eps_2 R_2>, eps_i the sign of
    # torus i: on one torus eps_1 eps_2 = 1
    for t1, th1 in pairs:
        for t2, th2 in pairs:
            signed = dl_character(t1, th1).signed.inner(dl_character(t2, th2).signed)
            assert signed * (t1.sign * t2.sign) == _expected_inner(th1, th2)


@pytest.mark.parametrize("kind", ["SL2", "GL2"])
def test_unipotent_values_do_not_depend_on_theta(kind):
    g = build_finite_group(kind, 5)
    cd = conjugacy_classes(g)
    uni = {cd.class_of(u) for u in g.unipotent_class_reps()}
    for torus in tori_and_regularity(g):
        thetas = torus_characters(torus)
        # every row of one torus carries the same sign eps_G eps_T
        base = dl_character(torus, thetas[0]).signed
        for theta in thetas[1:]:
            other = dl_character(torus, theta).signed
            for ci in uni:
                assert base.values[ci] == other.values[ci]


# -- the orbit Fourier identity


def test_springer_sl2_3_elliptic_all_unipotent():
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "elliptic")
    sr = [t for t in torus.lie_points() if is_strongly_regular(g, t)]
    assert sr
    for theta in nonsingular_characters(torus):
        for t in sr:
            report = springer_check(g, torus, theta, t, all_unipotent=True)
            assert report["pass"], report
            # identity, and both regular unipotent classes
            assert len(report["cases"]) == 3
            assert all(c["equal"] for c in report["cases"])


def test_springer_identity_case_gives_the_degree():
    # at u = 1 every pairing is 0, so the reference is |orbit(t)| / q, and
    # at a strongly regular t that is |G| / (q |T|), the degree q -+ 1 of
    # the torus's cuspidal or principal series
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "elliptic")
    t = next(t for t in torus.lie_points() if is_strongly_regular(g, t))
    ref = springer_fourier_reference(g, t, g.identity)
    assert ref == g.q - 1
    for kind, q in ADMITTED:
        g = build_finite_group(kind, q)
        for torus in tori_and_regularity(g):
            t = _strongly_regular(g, torus)[0]
            size = len(g.adjoint_orbit_of(t))
            ref = springer_fourier_reference(g, t, g.identity)
            assert ref == Fraction(size, q) == g.order // (q * torus.order)


@pytest.mark.parametrize("kind,q", [("SL2", 3), ("GL2", 3), ("SL2", 7)])
def test_fourier_reference_is_the_sum_over_the_conjugates(kind, q):
    # at one Lie point t of every adjoint orbit and every unipotent u: the
    # reference is (1/q) times the sum of psibar(Tr(x y)), x = log u, over
    # the conjugates y of t by every group element, traced entry by entry.
    # SL2's nilpotent orbits for q = 3 mod 4 give values that are not real,
    # so psi in place of psibar shows there.
    g = build_finite_group(kind, q)
    fld = g.field
    logs = [(u, g.unpack(quasi_logarithm(g, u))) for u in g.unipotent_class_reps()]
    seen, nonreal = set(), 0
    for t in g.lie_points():
        if t in seen:
            continue
        orbit = {g.conj(h, t) for h in g.elements}
        seen |= orbit
        for u, x in logs:
            total = Cyclotomic.zero()
            for y in map(g.unpack, orbit):
                tr = 0
                for i in range(2):
                    for j in range(2):
                        tr = fld.add(tr, fld.mul(x[i][j], y[j][i]))
                total = total + Cyclotomic.zeta(fld.p, -fld.trace(tr))
            want = total * Fraction(1, q)
            assert springer_fourier_reference(g, t, u) == want, (t, u)
            nonreal += Cyclotomic.hermitian_sum([1], [Cyclotomic.rational(1)], [want]) != want
    assert nonreal > 0 if kind == "SL2" else nonreal == 0


def test_springer_agrees_with_generic_fourier_route():
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "elliptic")
    theta = nonsingular_characters(torus)[0]
    t = next(t for t in torus.lie_points() if is_strongly_regular(g, t))
    u = g.pack([[1, 1], [0, 1]])
    ref = springer_fourier_reference(g, t, u)
    report = springer_check(g, torus, theta, t)
    assert report["cases"][0]["rhs"] == ref
    assert report["pass"]


def test_springer_split_torus_gl2():
    g = build_finite_group("GL2", 3)
    torus = torus_by_tag(g, "split")
    sr = [t for t in torus.lie_points() if is_strongly_regular(g, t)]
    for theta in nonsingular_characters(torus):
        for t in sr:
            assert springer_check(g, torus, theta, t, all_unipotent=True)["pass"]


def test_springer_rejects_bad_t():
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "elliptic")
    theta = nonsingular_characters(torus)[0]
    zero = g.pack([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="strongly regular"):
        springer_check(g, torus, theta, zero)
    nilp = g.pack([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="Lie algebra point"):
        springer_check(g, torus, theta, nilp)


def test_springer_rejects_singular_theta():
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "elliptic")
    theta = TorusCharacter(torus, (0,))
    t = next(t for t in torus.lie_points() if is_strongly_regular(g, t))
    with pytest.raises(ValueError, match="singular"):
        springer_check(g, torus, theta, t)


def _strongly_regular(g, torus):
    return [t for t in torus.lie_points() if is_strongly_regular(g, t)]


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_springer_grid_verdicts_match_the_generic_fourier_route(kind, q):
    # every (theta, t, u) verdict of the grid, at every strongly regular
    # point and every unipotent class, is rho_theta(u) == the orbit's
    # Fourier transform at log u, taken from the transform's defining sum
    # over the Lie algebra
    g = build_finite_group(kind, q)
    reps = g.unipotent_class_reps()
    for torus in tori_and_regularity(g):
        thetas = nonsingular_characters(torus)
        points = _strongly_regular(g, torus)
        classes, lhs, rhs, equal = springer_grid(torus, thetas, points, all_unipotent=True)
        assert classes == [conjugacy_classes(g).class_of(u) for u in reps]
        rhos = [dl_character(torus, theta).genuine() for theta in thetas]
        for j, t in enumerate(points):
            ref = [springer_fourier_reference(g, t, u) for u in reps]
            assert all(a == b for a, b in zip(rhs[j], ref))
            for i, rho in enumerate(rhos):
                want = tuple(rho.value_at(u) == r for u, r in zip(reps, ref))
                assert equal[i][j] == want == (True,) * len(reps), (torus.tag, thetas[i], t)


# the groups of the query-serve working set (perfbench/workloads.py)
SERVED_GROUPS = [
    ("GL2", 3), ("SL2", 5), ("SL2", 3), ("GL2", 5), ("SL2", 7),
    ("SL2", 11), ("GL2", 7), ("SL2", 13), ("SL2", 9),
]


# the groups of the character sweep (perfbench/workloads.py)
SWEPT_GROUPS = [("SL2", 3), ("SL2", 5), ("SL2", 7), ("SL2", 9), ("SL2", 11), ("GL2", 3), ("GL2", 5)]


def _equal_by_eq(lhs, rhs):
    """equal[i][j][k] of a grid from `Cyclotomic.__eq__`, which compares
    two values in the field where their conductors meet."""
    return [[tuple(a == b for a, b in zip(row, col)) for col in rhs] for row in lhs]


@pytest.mark.parametrize("kind,q", sorted(set(SWEPT_GROUPS + SERVED_GROUPS)))
def test_springer_grid_cells_are_the_exact_equalities_of_their_values(kind, q):
    # the grid decides a cell by the texts of its two values; the reference
    # is Cyclotomic.__eq__, on the whole grid of every torus and on the
    # one-cell grid of `springer_check` at every (theta, t), which holds
    # every springer_check request of the query-serve stream
    g = build_finite_group(kind, q)
    for torus in tori_and_regularity(g):
        thetas, points = nonsingular_characters(torus), _strongly_regular(g, torus)
        _, lhs, rhs, equal = springer_grid(torus, thetas, points, all_unipotent=True)
        assert equal == _equal_by_eq(lhs, rhs), torus.tag
        for i, theta in enumerate(thetas):
            for j, t in enumerate(points):
                _, (a,), (b,), ((cell,),) = springer_grid(torus, [theta], [t], all_unipotent=True)
                assert list(map(repr, a + b)) == list(map(repr, lhs[i] + rhs[j]))
                assert cell == equal[i][j] == _equal_by_eq([a], [b])[0][0], (torus.tag, theta.exps, t)


@pytest.mark.parametrize("kind,p,f", [("GL2", 5, 1), ("SL2", 3, 2), ("SL2", 7, 1)])
def test_springer_verdicts_do_not_move_when_a_side_is_stored_at_twice_its_conductor(monkeypatch, kind, p, f):
    # every orbit sum of a fresh group, so that the shared cache keeps its
    # own, is stored at twice its conductor: the same value in another
    # stored form. Its text, so every verdict, stays; all cells hold
    g = FiniteLieGroup(kind, FiniteField(p, f))
    orbit_sum = dl_spectra._orbit_fourier_sum

    def twice(g, orbit, x):
        v = orbit_sum(g, orbit, x)
        return Cyclotomic(2 * v.n, {2 * e: c for e, c in v.num.items()}, v.den)

    monkeypatch.setattr(dl_spectra, "_orbit_fourier_sum", twice)
    for torus, shared in zip(tori_and_regularity(g), tori_and_regularity(build_finite_group(kind, g.q))):
        points = _strongly_regular(g, torus)
        assert points == _strongly_regular(g, shared)
        want = springer_grid(shared, nonsingular_characters(shared), points, all_unipotent=True)
        got = springer_grid(torus, nonsingular_characters(torus), points, all_unipotent=True)
        assert [[v.n for v in row] for row in got[2]] == [[2 * v.n for v in row] for row in want[2]]
        assert [list(map(repr, row)) for row in got[2]] == [list(map(repr, row)) for row in want[2]]
        assert got[3] == want[3] == _equal_by_eq(got[1], got[2])
        assert all(all(cell) for row in got[3] for cell in row)


def test_springer_grid_fails_exactly_the_cells_of_a_wrong_orbit_sum(monkeypatch):
    # a fresh group, so that the wrong cache entry stays out of the shared
    # one. The wrong value sits under the orbit of the last point of the
    # elliptic torus, keyed by the orbit's first point, no point of the
    # torus, and fails exactly the (theta, t, u) cells of the two points of
    # that orbit, a Weyl pair, so exactly the elliptic cells of `springer
    # verify`.
    g = FiniteLieGroup("GL2", FiniteField(5))
    split, elliptic = tori_and_regularity(g)
    points = _strongly_regular(g, elliptic)
    bad, u = points[-1], g.pack([[1, 1], [0, 1]])
    orbit = g.adjoint_orbit_of(bad)
    pair = [t for t in points if t in orbit]
    assert len(pair) == 2 and bad in pair
    x = quasi_logarithm(g, u)
    thetas = nonsingular_characters(elliptic)
    right = springer_grid(elliptic, thetas, points)[2][-1][0]
    assert orbit[0] not in elliptic.lie_point_set
    g.derived[("orbit_sum", orbit[0], x)] = right + 1
    _, _, rhs, equal = springer_grid(elliptic, thetas, points)
    assert [r[0] == right + 1 for r in rhs] == [t in orbit for t in points]
    for i in range(len(thetas)):
        assert equal[i] == [(t not in orbit,) for t in points]
    monkeypatch.setattr(cli, "build_finite_group", lambda kind, q: g)
    for all_u in (False, True):
        cells = cli._springer_cells("GL2", 5, all_u)
        assert {c["torus"] for c in cells} == {"split", "elliptic"}
        assert all(c["pass"] == (c["torus"] == "split") for c in cells)
    code, out, _ = run_cli(["springer", "verify", "--group", "GL2", "--q", "5"])
    assert code == 1 and json.loads(out)["pass"] is False


@pytest.mark.parametrize("kind,p,f", [("GL2", 5, 1), ("SL2", 3, 2)])
def test_springer_verify_keeps_one_orbit_entry_and_one_sum_per_weyl_pair(monkeypatch, kind, p, f):
    # a fresh group, so that its cache holds what one `springer verify
    # --all` stores and nothing else: the adjoint orbits as one entry that
    # covers every Lie point exactly once, and one orbit sum per (orbit, u)
    # for the two points of each Weyl pair
    g = FiniteLieGroup(kind, FiniteField(p, f))
    monkeypatch.setattr(cli, "build_finite_group", lambda kind, q: g)
    code, out, _ = run_cli(["springer", "verify", "--group", kind, "--q", str(g.q), "--all"])
    assert code == 0 and json.loads(out)["pass"] is True
    sums = [k for k in g.derived if type(k) is tuple]
    assert sorted(k for k in g.derived if type(k) is not tuple) == ["adjoint_orbits", "classes", "tori"]
    orbits = g.derived["adjoint_orbits"]
    distinct = list({id(o): o for o in orbits.values()}.values())
    assert sorted(orbits) == sorted(x for o in distinct for x in o) == g.lie_points()
    assert all(orbits[x] is o for o in distinct for x in o)
    regular = [t for torus in tori_and_regularity(g) for t in torus.lie_points() if is_strongly_regular(g, t)]
    logs = {quasi_logarithm(g, u) for u in g.unipotent_class_reps()}
    assert 2 * len(sums) == len(regular) * len(logs)
    assert set(sums) == {("orbit_sum", orbits[t][0], x) for t in regular for x in logs}


def test_springer_cell_without_a_strongly_regular_point(monkeypatch):
    # no point to check: the cell passes and lists no unipotent class
    g = build_finite_group("SL2", 5)
    torus = torus_by_tag(g, "elliptic")
    thetas = nonsingular_characters(torus)
    classes, lhs, rhs, equal = springer_grid(torus, thetas, [], all_unipotent=True)
    assert len(classes) == 3 and rhs == [] and equal == [[] for _ in thetas]
    monkeypatch.setattr(cli, "is_strongly_regular", lambda g, t: False)
    cells = cli._springer_cells("SL2", 5, True)
    assert cells
    for c in cells:
        assert c["strongly_regular_points"] == 0
        assert c["unipotent_classes"] == []
        assert c["pass"] is True


# -- reduction to the semisimple part


def test_jordan_parts_split_correctly():
    g = build_finite_group("GL2", 5)
    gamma = g.pack([[2, 1], [0, 2]])
    delta, u = _jordan_parts(g, gamma)
    assert g.mul(delta, u) == gamma
    assert delta == g.pack([[2, 0], [0, 2]])
    mu = g.unpack(u)
    assert mu[0][0] == mu[1][1] == 1 and mu[1][0] == 0


def _jordan_parts_by_power(g, gamma):
    """The split by square-and-multiply: the order of gamma stepped one
    product at a time, then delta = gamma^e and u = gamma^(1 - e) each by
    `power`, with gamma itself returned when its order is prime to p or a
    power of p."""
    order, acc = 1, gamma
    while acc != g.identity:
        acc = g.mul(acc, gamma)
        order += 1
    r, e = jordan_exponent(order, g.field.p)
    if r == order:
        return gamma, g.identity
    if r == 1:
        return g.identity, gamma
    return power(g.mul, g.identity, gamma, e), power(g.mul, g.identity, gamma, (1 - e) % order)


@pytest.mark.parametrize("kind,q", SERVED_GROUPS)
def test_jordan_parts_match_the_square_and_multiply_split(kind, q):
    g = build_finite_group(kind, q)
    for gamma in g.elements:
        assert _jordan_parts(g, gamma) == _jordan_parts_by_power(g, gamma), g.unpack(gamma)


def test_jordan_parts_refuse_parts_that_do_not_recompose(monkeypatch):
    # the walk of gamma^2 read as gamma's: gamma = diag(2, 2) times a
    # unipotent has order 20 in GL2(F5), gamma^2 order 10, and the parts
    # read off it recompose to gamma^22 = gamma^2
    g = build_finite_group("GL2", 5)
    find = dl_spectra.powers
    monkeypatch.setattr(dl_spectra, "powers", lambda mul, one, x, n: find(mul, one, mul(x, x), n))
    with pytest.raises(AssertionError, match="the two parts do not recompose"):
        _jordan_parts(g, g.pack([[2, 1], [0, 2]]))


def test_jordan_reduction_unipotent_gamma_is_trivial():
    g = build_finite_group("SL2", 5)
    torus = torus_by_tag(g, "elliptic")
    theta = nonsingular_characters(torus)[0]
    out = dl_jordan_reduction_check(g, torus, theta, g.pack([[1, 1], [0, 1]]))
    assert out["delta_kind"] == "central"
    assert out["pass"]


def test_jordan_reduction_central_scaling():
    g = build_finite_group("SL2", 5)
    torus = torus_by_tag(g, "elliptic")
    theta = nonsingular_characters(torus)[0]
    gamma = g.pack([[4, 4], [0, 4]])  # -I times a unipotent
    out = dl_jordan_reduction_check(g, torus, theta, gamma)
    assert out["delta_kind"] == "central"
    assert out["pass"]


def test_jordan_reduction_regular_embedding_and_mismatch():
    g = build_finite_group("GL2", 5)
    split = torus_by_tag(g, "split")
    ell = torus_by_tag(g, "elliptic")
    gamma = next(p for p in ell.points if ell.weyl[p] != p)  # elliptic regular
    theta_e = nonsingular_characters(ell)[0]
    out = dl_jordan_reduction_check(g, ell, theta_e, gamma)
    assert out["delta_kind"] == "regular"
    assert out["pass"]
    theta_s = nonsingular_characters(split)[0]
    out = dl_jordan_reduction_check(g, split, theta_s, gamma)
    assert out["delta_kind"] == "regular-no-embedding"
    assert out["pass"]  # both sides vanish


@pytest.mark.parametrize("q", [3, 5])
def test_jordan_reduction_full_sweep_gl2(q):
    g = build_finite_group("GL2", q)
    cd = conjugacy_classes(g)
    for torus in tori_and_regularity(g):
        for theta in nonsingular_characters(torus):
            for rep in cd.reps:
                out = dl_jordan_reduction_check(g, torus, theta, rep)
                assert out["pass"], out


def test_jordan_reduction_full_sweep_sl2():
    g = build_finite_group("SL2", 5)
    cd = conjugacy_classes(g)
    for torus in tori_and_regularity(g):
        for theta in nonsingular_characters(torus):
            for rep in cd.reps:
                out = dl_jordan_reduction_check(g, torus, theta, rep)
                assert out["pass"], out


# -- caching contract: every structure lives on its group or torus


def test_module_keeps_no_dict():
    state = [
        name
        for name, value in vars(dl_spectra).items()
        if isinstance(value, dict) and not name.startswith("__")
    ]
    assert state == []


def test_second_call_returns_the_cached_object():
    g = build_finite_group("GL2", 3)
    assert conjugacy_classes(g) is conjugacy_classes(g)
    for torus in tori_and_regularity(g):
        for theta in nonsingular_characters(torus):
            a, b = dl_character(torus, theta), dl_character(torus, theta)
            assert a.signed is b.signed
            assert a.genuine() is b.genuine()


def test_group_is_freed_with_everything_it_derived():
    g = FiniteLieGroup("SL2", FiniteField(5))
    classes = conjugacy_classes(g)
    assert classes.group is g
    torus = next(t for t in tori_and_regularity(g) if t.tag == "elliptic")
    theta = nonsingular_characters(torus)[0]
    chi = dl_character(torus, theta)
    t = next(t for t in torus.lie_points() if is_strongly_regular(g, t))
    assert springer_check(g, torus, theta, t, all_unipotent=True)["pass"]
    for gamma in classes.reps:
        assert dl_jordan_reduction_check(g, torus, theta, gamma)["pass"]
    ref = weakref.ref(g)
    del g, classes, torus, theta, chi
    gc.collect()
    assert ref() is None
