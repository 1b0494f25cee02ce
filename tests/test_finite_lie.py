"""Finite matrix groups: builds, quasi-logarithm, orbits, tori."""

import random
import re
from itertools import product

import pytest

from liechar import _kernels
from liechar.dl_spectra import conjugacy_classes
from liechar.exact_math import FiniteField
from liechar.finite_lie import (
    FiniteLieGroup,
    build_finite_group,
    is_strongly_regular,
    quasi_logarithm,
    tori_and_regularity,
)


# --- build contracts ----------------------------------------------------------


def test_group_orders():
    assert build_finite_group("GL2", 3).order == 48
    assert build_finite_group("SL2", 5).order == 120
    assert build_finite_group("SL2", 3).order == 24
    assert build_finite_group("GL2", 5).order == 480


ADMITTED = [(kind, q) for kind in ("GL2", "SL2") for q in (3, 5, 7, 9, 11, 13)]


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_elements_and_generators(kind, q):
    # the elements read off determinant slices are the matrices of
    # determinant != 0 (GL2) or 1 (SL2), in code order; the generators are
    # the upper and lower shears by an F_p-basis of F_q, plus diag(gen, 1)
    # for GL2
    g = build_finite_group(kind, q)
    fld = g.field
    det = g.det_code
    if kind == "GL2":
        want = tuple(a for a in range(q**4) if det(a) != 0)
    else:
        want = tuple(a for a in range(q**4) if det(a) == 1)
    assert g.elements == want
    upper, lower, rest = [], [], []
    for x in g.gens:
        (a, b), (c, d) = g.unpack(x)
        if (a, d) == (1, 1) and c == 0 and b:
            upper.append(b)
        elif (a, d) == (1, 1) and b == 0 and c:
            lower.append(c)
        else:
            rest.append(x)
    assert len(g.gens) == 2 * fld.f + (kind == "GL2")
    assert sorted(upper) == sorted(lower) and len(upper) == fld.f
    span = {0}
    for c in upper:
        span = {fld.add(s, fld.mul(k, c)) for s in span for k in range(fld.p)}
    assert len(span) == q
    assert rest == ([g.pack([[fld.gen, 0], [0, 1]])] if kind == "GL2" else [])


def test_trace_pairing_check_refuses_a_singular_gram_matrix(monkeypatch):
    # the fixed Lie bases pass: their Gram matrices are monomial for odd q
    for kind in ("GL2", "SL2"):
        for q in (3, 5, 7, 9, 11, 13):
            g = build_finite_group(kind, q)
            g._check_gram()
            gram = [[g.pairing_code(a, b) for b in g.lie_basis] for a in g.lie_basis]
            assert all(sum(1 for x in row if x) == 1 for row in gram + list(zip(*gram)))

    def repeated(g):
        # E11 twice: two equal rows, so the Gram matrix is singular
        e11 = g.pack([[1, 0], [0, 0]])
        return (e11, g.pack([[0, 1], [0, 0]]), g.pack([[0, 0], [1, 0]]), e11)

    def sl2_repeated(g):
        h = g.pack([[1, 0], [0, g.field.neg(1)]])
        return (h, g.pack([[0, 1], [0, 0]]), h)

    for kind, (p, f), basis in (("GL2", (5, 1), repeated), ("SL2", (3, 2), sl2_repeated)):
        monkeypatch.setattr(FiniteLieGroup, "_lie_basis", basis)
        with pytest.raises(AssertionError, match="trace pairing is degenerate"):
            FiniteLieGroup(kind, FiniteField(p, f))


def test_generation_check_refuses_a_proper_subgroup(monkeypatch):
    # without diag(gen, 1) the shears generate only SL2 inside GL2; without
    # the shears by gen they generate only SL2(F_3) inside SL2(F_9)
    generators = FiniteLieGroup._generators

    def no_diag(g):
        diag = g.pack([[g.field.gen, 0], [0, 1]])
        return tuple(x for x in generators(g) if x != diag)

    def no_gen_shear(g):
        gen = g.field.gen
        shears = {g.pack([[1, gen], [0, 1]]), g.pack([[1, 0], [gen, 1]])}
        return tuple(x for x in generators(g) if x not in shears)

    for kind, (p, f), gens in (
        ("GL2", (5, 1), no_diag),
        ("GL2", (3, 2), no_diag),
        ("SL2", (3, 2), no_gen_shear),
    ):
        monkeypatch.setattr(FiniteLieGroup, "_generators", gens)
        with pytest.raises(AssertionError, match="generators do not generate the group"):
            FiniteLieGroup(kind, FiniteField(p, f))


def test_sl2_even_q_rejected_for_center():
    with pytest.raises(ValueError, match="center"):
        build_finite_group("SL2", 2)


def test_gl2_even_q_rejected_for_center():
    # both kinds have a center of order 2, so the center check refuses
    # every even q
    with pytest.raises(ValueError, match="center"):
        build_finite_group("GL2", 4)


def test_unknown_kind_rejected():
    for kind in ("SL3", "XX2"):
        with pytest.raises(ValueError, match="unknown kind"):
            build_finite_group(kind, 3)


def test_budget_and_bad_q():
    # q = 17, 19, 23, 25 and 27 are past the field's MAX_Q, which is the
    # one check the refusal names
    for q in (17, 19, 23, 25, 27):
        with pytest.raises(ValueError, match=rf"^no field F_q with q = {q}: q exceeds MAX_Q = 16$"):
            build_finite_group("SL2", q)
    with pytest.raises(ValueError):
        build_finite_group("GL2", 15)  # not a prime power
    with pytest.raises(ValueError):
        build_finite_group("XX2", 5)


def test_prime_power_field_path():
    g = build_finite_group("GL2", 9)
    assert g.order == (81 - 1) * (81 - 9)
    assert g.field.f == 2


def test_builds_are_cached():
    assert build_finite_group("SL2", 3) is build_finite_group("SL2", 3)


def test_a_q_that_is_not_an_int_is_refused_and_not_cached():
    # int(5.5) would build SL2(F_5) a second time, under the key 5.5; and a
    # float equal to an int must not hit that int's entry
    g = build_finite_group("SL2", 5)
    for bad in (5.5, 5.0, True):
        with pytest.raises(ValueError, match=rf"^q = {bad!r} is not an int$"):
            build_finite_group("SL2", bad)
    assert build_finite_group("SL2", 5) is g
    # one entry per admitted (kind, q), none for a refused q
    for kind, q in ADMITTED:
        build_finite_group(kind, q)
    assert build_finite_group.cache_info().currsize == len(ADMITTED)


def test_each_group_builds_its_own_field():
    # GL2 and SL2 over one q build distinct fields, equal in (p, f, gen),
    # whose matrix tables are the same bytes
    for q in (3, 5, 7, 9, 11, 13):
        gl, sl = build_finite_group("GL2", q), build_finite_group("SL2", q)
        assert gl.field is not sl.field
        assert (gl.field.p, gl.field.f, gl.field.gen) == (sl.field.p, sl.field.f, sl.field.gen)
        for name in ("dot", "col0", "col1"):
            assert getattr(gl.tables, name) == getattr(sl.tables, name)


def test_pack_refuses_what_is_not_a_field_code():
    # over F_9 no reduction mod q is the field's arithmetic: -1 is the code
    # neg(1) = 2, while -1 mod 9 = 8 is 2 + 2x
    g = build_finite_group("SL2", 9)
    assert g.field.neg(1) == 2
    for bad in (-1, 9):
        with pytest.raises(ValueError, match="not a field code of F_9"):
            g.pack([[1, 0], [0, bad]])
    for m in product(range(9), repeat=4):
        rows = [list(m[:2]), list(m[2:])]
        assert g.unpack(g.pack(rows)) == rows


# --- quasi-logarithm ----------------------------------------------------------


def test_qlog_identity_is_zero():
    for kind, q in (("GL2", 3), ("SL2", 5)):
        g = build_finite_group(kind, q)
        z = g.pack([[0, 0], [0, 0]])
        assert quasi_logarithm(g, g.identity) == z


def test_qlog_gl2_is_g_minus_one():
    g = build_finite_group("GL2", 3)
    rng = random.Random(7)
    for _ in range(20):
        x = rng.choice(g.elements)
        m = g.unpack(x)
        expect = [
            [g.field.sub(m[i][j], 1 if i == j else 0) for j in range(2)]
            for i in range(2)
        ]
        assert quasi_logarithm(g, x) == g.pack(expect)


def test_qlog_sl2_worked_example():
    g = build_finite_group("SL2", 5)
    u = g.pack([[1, 1], [0, 1]])
    assert quasi_logarithm(g, u) == g.pack([[0, 1], [0, 0]])


def test_qlog_rejects_non_elements():
    g = build_finite_group("SL2", 3)
    with pytest.raises(ValueError):
        quasi_logarithm(g, g.pack([[1, 0], [0, 2]]))  # det = 2


def test_qlog_ad_equivariant():
    for kind, q in (("GL2", 3), ("SL2", 5)):
        g = build_finite_group(kind, q)
        rng = random.Random(11)
        for _ in range(100):
            h = rng.choice(g.elements)
            x = rng.choice(g.elements)
            assert quasi_logarithm(g, g.conj(h, x)) == g.conj(
                h, quasi_logarithm(g, x)
            )


def test_qlog_derivative_is_identity_on_dual_numbers():
    # Phi(1 + eps X) = eps X over F_q[eps]/(eps^2), checked per basis vector
    for kind, q in (("GL2", 3), ("SL2", 5)):
        g = build_finite_group(kind, q)
        fld = g.field
        for x in g.lie_basis:
            mx = g.unpack(x)
            # constant part of Phi(1 + eps X) is Phi(1) = 0; eps part:
            # GL2: X itself; SL2: X - (Tr X / 2) Id, and X is traceless
            if kind == "GL2":
                eps_part = mx
            else:
                tr = fld.add(mx[0][0], mx[1][1])
                c = fld.mul(tr, fld.inv(2 % fld.p))
                eps_part = [
                    [fld.sub(mx[i][j], c if i == j else 0) for j in range(2)]
                    for i in range(2)
                ]
            assert g.pack(eps_part) == x


def _trace(g, x):
    m = g.unpack(x)
    return g.field.add(m[0][0], m[1][1])


def _unipotents(g):
    """g with (g - 1) nilpotent: for n = 2, det 1 and trace 2."""
    two = g.field.add(1, 1)
    return [x for x in g.elements if g.det_code(x) == 1 and _trace(g, x) == two]


def test_qlog_bijects_unipotents_onto_nilpotents():
    for kind, q in (("SL2", 3), ("SL2", 5), ("SL2", 7), ("GL2", 3), ("GL2", 5)):
        g = build_finite_group(kind, q)
        uni = _unipotents(g)
        nil = {t for t in g.lie_points() if _trace(g, t) == 0 and g.det_code(t) == 0}
        assert len(uni) == q * q
        assert len(nil) == q * q
        image = {quasi_logarithm(g, u) for u in uni}
        assert image == nil


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_lie_points_are_the_ascending_codes_of_the_lie_algebra(kind, q):
    # every packed 2 x 2 matrix for GL2, the traceless ones for SL2, whose
    # adjoint orbits refuse a matrix of nonzero trace and store nothing
    g = build_finite_group(kind, q)
    pts = g.lie_points()
    assert pts == [m for m in range(q**4) if kind == "GL2" or _trace(g, m) == 0]
    assert len(pts) == (q**4 if kind == "GL2" else q**3)
    if kind == "SL2":
        with pytest.raises(ValueError, match="matrix is not traceless"):
            g.adjoint_orbit_of(g.identity)
        assert g.identity not in g.derived.get("adjoint_orbits", {})


# --- pairing and orbits ---------------------------------------------------------


def test_pairing_ad_invariant():
    g = build_finite_group("SL2", 7)
    rng = random.Random(13)
    pts = []
    for _ in range(100):
        a, b, c = (rng.randrange(7) for _ in range(3))
        pts.append(g.pack([[a, b], [c, g.field.neg(a)]]))
    for t in pts:
        h = rng.choice(g.elements)
        s = rng.choice(pts)
        assert g.pairing_code(g.conj(h, t), g.conj(h, s)) == g.pairing_code(t, s)


def test_adjoint_orbit_of_zero():
    g = build_finite_group("SL2", 5)
    z = g.pack([[0, 0], [0, 0]])
    assert g.adjoint_orbit_of(z) == (z,)


def test_adjoint_orbit_sizes_regular():
    for q in (3, 5, 7):
        g = build_finite_group("SL2", q)
        split_t = g.pack([[1, 0], [0, g.field.neg(1)]])
        assert len(set(g.adjoint_orbit_of(split_t))) == q * (q + 1)
        eps = g.field.non_residue
        ell_t = g.pack([[0, eps], [1, 0]])
        assert len(set(g.adjoint_orbit_of(ell_t))) == q * (q - 1)


def test_unipotent_class_reps_partition():
    for kind, q in (("GL2", 5), ("SL2", 5), ("SL2", 3)):
        g = build_finite_group(kind, q)
        cd = conjugacy_classes(g)
        labels = [cd.class_of(r) for r in g.unipotent_class_reps()]
        assert len(set(labels)) == len(labels)
        sizes = sorted(cd.sizes[ci] for ci in labels)
        if kind == "GL2":
            assert sizes == [1, q * q - 1]
        else:
            assert sizes == [1, (q * q - 1) // 2, (q * q - 1) // 2]
        union = {x for ci in labels for x in cd.members[ci]}
        assert union == set(_unipotents(g))


# --- tori and regularity --------------------------------------------------------


def test_sl2_has_two_torus_classes():
    for q in (3, 5, 7):
        g = build_finite_group("SL2", q)
        tori = tori_and_regularity(g)
        assert len(tori) == 2
        by_tag = {t.tag: t for t in tori}
        assert by_tag["split"].order == q - 1
        assert by_tag["elliptic"].order == q + 1
        assert by_tag["split"].sign == 1
        assert by_tag["elliptic"].sign == -1


def test_gl2_torus_orders_and_signs():
    g = build_finite_group("GL2", 5)
    by_tag = {t.tag: t for t in tori_and_regularity(g)}
    assert by_tag["split"].order == 16
    assert by_tag["elliptic"].order == 24
    assert by_tag["split"].sign == 1
    assert by_tag["elliptic"].sign == -1


def test_weyl_action_is_involution_on_points():
    g = build_finite_group("SL2", 5)
    for torus in tori_and_regularity(g):
        moved = 0
        for p, ip in torus.weyl.items():
            assert torus.weyl[ip] == p
            if ip != p:
                moved += 1
        assert moved > 0


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_weyl_swaps_the_split_diagonal_and_conjugates_the_elliptic_points(kind, q):
    # the Weyl involution is the swap diag(a, d) -> diag(d, a) on the split
    # torus and the Galois conjugation x + y sqrt(eps) -> x - y sqrt(eps),
    # [[x, eps y], [y, x]] -> [[x, -eps y], [-y, x]], on the elliptic one
    g = build_finite_group(kind, q)
    neg = g.field.neg
    split, elliptic = tori_and_regularity(g)
    for p, wp in split.weyl.items():
        (a, b), (c, d) = g.unpack(p)
        assert b == c == 0
        assert g.unpack(wp) == [[d, 0], [0, a]]
    for p, wp in elliptic.weyl.items():
        (x, ey), (y, x2) = g.unpack(p)
        assert x2 == x and ey == g.field.mul(g.field.non_residue, y)
        assert g.unpack(wp) == [[x, neg(ey)], [neg(y), x]]


def test_a_strong_regularity_worked_example():
    # a point of the split torus's Lie algebra, on SL2(F_3)
    g = build_finite_group("SL2", 3)
    split = next(t for t in tori_and_regularity(g) if t.tag == "split")
    t = g.pack([[1, 0], [0, g.field.neg(1)]])
    assert t in split.lie_point_set
    assert is_strongly_regular(g, t)
    zero = g.pack([[0, 0], [0, 0]])
    assert not is_strongly_regular(g, zero)
    assert not is_strongly_regular(g, g.pack([[0, 1], [0, 0]]))


def test_a_strong_regularity_elliptic():
    g = build_finite_group("SL2", 5)
    ell = next(t for t in tori_and_regularity(g) if t.tag == "elliptic")
    eps = g.field.non_residue
    t = g.pack([[0, eps], [1, 0]])
    assert t in ell.lie_point_set
    assert is_strongly_regular(g, t)


def test_strong_regularity():
    g = build_finite_group("SL2", 5)
    zero = g.pack([[0, 0], [0, 0]])
    assert not is_strongly_regular(g, zero)
    assert not is_strongly_regular(g, g.pack([[0, 1], [0, 0]]))  # nilpotent
    assert is_strongly_regular(g, g.pack([[1, 0], [0, g.field.neg(1)]]))
    eps = g.field.non_residue
    assert is_strongly_regular(g, g.pack([[0, eps], [1, 0]]))


def test_torus_lie_points_counts():
    g = build_finite_group("GL2", 3)
    by_tag = {t.tag: t for t in tori_and_regularity(g)}
    assert len(by_tag["split"].lie_points()) == 9
    assert len(by_tag["elliptic"].lie_points()) == 9
    gs = build_finite_group("SL2", 3)
    for torus in tori_and_regularity(gs):
        assert len(torus.lie_points()) == 3


def _torus_lie_points_by_rule(g, tag):
    """Lie(T) written out per kind and tag: diag(a, d), with d = -a for
    SL2, and [[x, eps y], [y, x]], with x = 0 for SL2."""
    q, fld = g.q, g.field
    out = []
    for a in range(q):
        for b in range(q):
            if tag == "split" and not (g.kind == "SL2" and b != fld.neg(a)):
                out.append(g.pack([[a, 0], [0, b]]))
            if tag == "elliptic" and not (g.kind == "SL2" and a != 0):
                out.append(g.pack([[a, fld.mul(fld.non_residue, b)], [b, a]]))
    return tuple(sorted(out))


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_the_tori_orbits_cover_every_semisimple_lie_point(kind, q):
    # the orbits of the tori's Lie points are the semisimple points: all
    # but the scalar plus nonzero nilpotent ones, q (q^2 - 1) of them in
    # gl2 and q^2 - 1 in sl2
    g = build_finite_group(kind, q)
    covered = set()
    for torus in tori_and_regularity(g):
        for t in torus.lie_points():
            covered.update(g.adjoint_orbit_of(t))
    assert len(covered) == (q**4 - q**3 + q if kind == "GL2" else q**3 - q**2 + 1)


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_torus_lie_points_match_the_rule_per_kind_and_tag(kind, q):
    g = build_finite_group(kind, q)
    for torus in tori_and_regularity(g):
        assert torus.lie_points() == _torus_lie_points_by_rule(g, torus.tag), torus.tag


# --- orbits and tori are built once per group -----------------------------------


def test_adjoint_orbit_shared_by_its_points():
    for kind, q in (("SL2", 9), ("GL2", 5), ("SL2", 7)):
        g = build_finite_group(kind, q)
        for t in g.lie_points()[:: q + 2]:
            orbit = g.adjoint_orbit_of(t)
            assert t in orbit
            for y in orbit:
                assert g.adjoint_orbit_of(y) is orbit


@pytest.mark.parametrize("kind,q", [(k, q) for k in ("GL2", "SL2") for q in (3, 5, 9)])
def test_classes_and_orbits_match_conjugation_by_every_element(kind, q):
    # the generator closure of the kernels against g x g^-1 over all of G,
    # computed with mul and inv alone
    g = build_finite_group(kind, q)
    pairs = [(h, g.inv(h)) for h in g.elements]

    def brute_orbit(x):
        return frozenset(g.mul(g.mul(h, x), hi) for h, hi in pairs)

    classes, seen = [], set()
    for x in g.elements:
        if x not in seen:
            classes.append(tuple(sorted(brute_orbit(x))))
            seen.update(classes[-1])
    assert _kernels.conjugacy_partition(g.elements, g.gens, g.tables) == classes
    assert conjugacy_classes(g).members == tuple(sorted(classes, key=lambda c: (len(c), c[0])))
    for torus in tori_and_regularity(g):
        done = {}
        for t in torus.lie_points():
            if t not in done:
                orbit = brute_orbit(t)
                done.update(dict.fromkeys(orbit, orbit))
            assert g.adjoint_orbit_of(t) == tuple(sorted(done[t]))


def _centralizer_order(elements, t, add, mul):
    """|C_G(t)| counted over the unpacked group elements with the field
    addition and multiplication tables."""
    (a, b), (c, d) = t
    count = 0
    for (x, y), (z, w) in elements:
        # x t == t x, compared entry by entry
        if add[mul[x][a]][mul[y][c]] != add[mul[a][x]][mul[b][z]]:
            continue
        if add[mul[x][b]][mul[y][d]] != add[mul[a][y]][mul[b][w]]:
            continue
        if add[mul[z][a]][mul[w][c]] != add[mul[c][x]][mul[d][z]]:
            continue
        if add[mul[z][b]][mul[w][d]] != add[mul[c][y]][mul[d][w]]:
            continue
        count += 1
    return count


@pytest.mark.parametrize("kind,q", [("SL2", 9), ("GL2", 5)])
def test_strong_regularity_matches_centralizer_count(kind, q):
    g = build_finite_group(kind, q)
    fld = g.field
    add = [[fld.add(i, j) for j in range(q)] for i in range(q)]
    mul = [[fld.mul(i, j) for j in range(q)] for i in range(q)]
    elements = [g.unpack(e) for e in g.elements]
    orders = {(q - 1) ** 2, q * q - 1} if kind == "GL2" else {q - 1, q + 1}
    for t in g.lie_points():
        direct = _centralizer_order(elements, g.unpack(t), add, mul) in orders
        assert is_strongly_regular(g, t) == direct


@pytest.mark.parametrize("kind,q", ADMITTED)
def test_strong_regularity_is_an_orbit_of_its_torus_order(kind, q):
    # a Lie point of a torus is strongly regular exactly when its orbit
    # times the torus's order is |G|, its centralizer then being the torus
    g = build_finite_group(kind, q)
    for torus in tori_and_regularity(g):
        for t in torus.lie_points():
            assert is_strongly_regular(g, t) == (len(g.adjoint_orbit_of(t)) * torus.order == g.order)


def test_non_lie_point_raises_on_every_call():
    g = build_finite_group("SL2", 5)
    t = g.identity  # trace 2, not in sl2
    for _ in range(2):
        with pytest.raises(ValueError):
            g.adjoint_orbit_of(t)
        with pytest.raises(ValueError):
            is_strongly_regular(g, t)


def test_tori_built_once():
    for kind, q in (("SL2", 9), ("GL2", 3)):
        g = build_finite_group(kind, q)
        first = tori_and_regularity(g)
        again = tori_and_regularity(g)
        assert len(first) == len(again) == 2
        assert all(a is b for a, b in zip(first, again))


def test_torus_keeps_its_point_sets():
    g = build_finite_group("SL2", 5)
    for torus in tori_and_regularity(g):
        lie = torus.lie_points()
        assert lie is torus.lie_points()
        assert lie == tuple(sorted(set(lie)))
        assert torus.lie_point_set == frozenset(lie)
        assert torus.points == tuple(sorted(torus.log))
        rank = len(torus.unit_points)
        for k, u in enumerate(torus.unit_points):
            assert torus.log[u] == tuple(int(i == k) for i in range(rank))
    assert g.derived["tori"] is tori_and_regularity(g)
