"""Character tables, torus-series characters, and the two trace identities."""

import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import liechar.dl_spectra as dl_spectra
from liechar.dl_spectra import (
    ClassFunction,
    TorusCharacter,
    _choose_modulus,
    _class_shapes,
    _gauss_sum,
    _jordan_parts,
    character_table_dixon,
    classical_table_oracle,
    conjugacy_classes,
    dl_character,
    dl_jordan_reduction_check,
    nonsingular_characters,
    springer_check,
    springer_fourier_reference,
    tables_match,
    torus_characters,
)
from liechar.exact_math import Cyclotomic, FiniteField
from liechar.finite_lie import (
    FiniteLieGroup,
    build_finite_group,
    is_strongly_regular,
    tori_and_regularity,
)


class CyclicAdapter:
    """Z/n with the generic group protocol."""

    def __init__(self, n):
        self.n = n
        self.elements = tuple(range(n))
        self.identity = 0

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n


class PermAdapter:
    """A permutation group on tuples, here used for S3."""

    def __init__(self, perms):
        self.elements = tuple(sorted(perms))
        self.identity = tuple(range(len(self.elements[0])))

    def mul(self, a, b):
        return tuple(a[b[i]] for i in range(len(a)))

    def inv(self, a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)


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
    assert _choose_modulus(12, 24) == 13
    assert _choose_modulus(24, 48) == 73
    with pytest.raises(ValueError, match="no usable prime"):
        _choose_modulus(999983, 100)


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
    """A matrix group through the generic protocol, whose mul returns a
    wrong element for the one product a * b."""

    def __init__(self, g, a, b, wrong):
        self.elements, self.identity, self.inv = g.elements, g.identity, g.inv
        self.group, self.fault = g, (a, b, wrong)

    def mul(self, x, y):
        a, b, wrong = self.fault
        return wrong if x == a and y == b else self.group.mul(x, y)


@pytest.mark.parametrize(
    "kind,ci,t,message",
    [
        # class 3 is not needed to split the class algebra of either group,
        # so only the check of every line against every class matrix sees it
        ("SL2", 3, 0, "not a common eigenvector"),
        ("GL2", 3, 0, "not a common eigenvector"),
        ("SL2", 6, 1, "vector outside the span"),
        ("GL2", 7, 1, "eigenspaces do not fill the subspace"),
    ],
)
def test_dixon_checks_catch_one_wrong_product(kind, ci, t, message):
    """x^{-1} * rep_t, for x the smallest member of class ci, is replaced by
    the representative of the next class, one entry of the structure
    matrices moved to another row."""
    g = build_finite_group(kind, 3)
    cd = conjugacy_classes(g)
    xi = g.inv(cd.members[ci][0])
    right = cd.class_of(g.mul(xi, cd.reps[t]))
    wrong = cd.reps[(right + 1) % cd.count]
    with pytest.raises(AssertionError, match=message):
        character_table_dixon(OneWrongProduct(g, xi, cd.reps[t], wrong))


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


@pytest.mark.parametrize("kind,q", [("GL2", 3), ("SL2", 3), ("SL2", 5), ("GL2", 5)])
def test_classical_orthogonality_exact(kind, q):
    classical_table_oracle(kind, q).verify()


# -- the two routes agree


@pytest.mark.parametrize(
    "kind,q",
    [
        ("SL2", 3), ("GL2", 3), ("SL2", 5), ("GL2", 5), ("SL2", 7), ("GL2", 7), ("SL2", 9),
        ("SL2", 11), ("SL2", 13),
    ],
)
def test_dixon_matches_classical(kind, q):
    dix = character_table_dixon(build_finite_group(kind, q))
    assert tables_match(dix, classical_table_oracle(kind, q))


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
    assert dl.w_stabilizer == 2
    table = classical_table_oracle("SL2", 3)
    triv = table.rows[table.degrees.index(1)]
    st = table.rows[table.degrees.index(3)]
    assert dl.virtual == triv + st
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
    # every theta, singular ones included: the closed-form row of the split
    # torus is the induced character, irreducible of degree q + 1 exactly
    # when theta is nonsingular
    g = build_finite_group(kind, q)
    torus = torus_by_tag(g, "split")
    hists, borel = _borel_histograms(g)
    for theta in torus_characters(torus):
        dl = dl_character(torus, theta)
        ind = _induced_from_borel(torus, theta, hists, borel)
        assert dl.virtual == ind, theta
        if theta.is_singular:
            assert dl.virtual.inner(dl.virtual) == 2
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
        assert dl.virtual == -rho
        assert dl.sign == -1
        assert any(rho == row for row in table.rows if row.degree_value == 4)


def test_dl_norm_matches_weyl_stabilizer():
    for kind, q in [("SL2", 5), ("GL2", 3)]:
        g = build_finite_group(kind, q)
        for torus in tori_and_regularity(g):
            for theta in torus_characters(torus):
                dl = dl_character(torus, theta)
                want = 2 if theta.is_singular else 1
                assert dl.w_stabilizer == want
                assert dl.virtual.inner(dl.virtual) == want


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
    for t1, th1 in pairs:
        for t2, th2 in pairs:
            got = dl_character(t1, th1).virtual.inner(dl_character(t2, th2).virtual)
            assert got == _expected_inner(th1, th2)


@pytest.mark.parametrize("kind", ["SL2", "GL2"])
def test_unipotent_values_do_not_depend_on_theta(kind):
    g = build_finite_group(kind, 5)
    cd = conjugacy_classes(g)
    uni = {cd.class_of(u) for u in g.unipotent_class_reps()}
    for torus in tori_and_regularity(g):
        thetas = torus_characters(torus)
        base = dl_character(torus, thetas[0]).virtual
        for theta in thetas[1:]:
            other = dl_character(torus, theta).virtual
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
    g = build_finite_group("SL2", 3)
    torus = torus_by_tag(g, "elliptic")
    t = next(t for t in torus.lie_points() if is_strongly_regular(g, t))
    ref = springer_fourier_reference(g, t, g.identity)
    assert ref == g.q - 1


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


# -- reduction to the semisimple part


def test_jordan_parts_split_correctly():
    g = build_finite_group("GL2", 5)
    gamma = g.pack([[2, 1], [0, 2]])
    delta, u = _jordan_parts(g, gamma)
    assert g.mul(delta, u) == gamma
    assert delta == g.pack([[2, 0], [0, 2]])
    mu = g.unpack(u)
    assert mu[0][0] == mu[1][1] == 1 and mu[1][0] == 0


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
    assert _class_shapes(g) is _class_shapes(g)
    for torus in tori_and_regularity(g):
        for theta in nonsingular_characters(torus):
            a, b = dl_character(torus, theta), dl_character(torus, theta)
            assert a.virtual is b.virtual
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
