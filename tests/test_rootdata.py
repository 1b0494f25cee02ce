"""Root datum construction, duality, extended diagrams."""

import random
from fractions import Fraction

import pytest

from liechar.endoscopy import center_alcove_action, pseudo_levi
from liechar.exact_math import IntMatrix, smith_normal_form, solve_rational
from liechar.root_datum import (
    RootDatum,
    _rank_of_span,
    build_root_datum,
    cartan_matrix,
    dual_datum,
    extended_dynkin,
    reflection_closure,
    sub_datum_from_pairs,
)

ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("D", 5): 40,
    ("G", 2): 12,
    ("F", 4): 48,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
}


def test_root_counts_both_isogenies():
    for (series, rank), count in ROOT_COUNTS.items():
        for isog in ("sc", "ad"):
            d = build_root_datum(series, rank, isog)
            assert len(d.roots) == count, (series, rank, isog)
            assert len(d.simple_indices) == rank
            assert d.is_semisimple()


def test_a1_coordinates():
    sc = build_root_datum("A", 1, "sc")
    assert set(sc.roots) == {(2,), (-2,)}
    assert set(sc.coroots) == {(1,), (-1,)}
    ad = build_root_datum("A", 1, "ad")
    assert set(ad.roots) == {(1,), (-1,)}
    assert set(ad.coroots) == {(2,), (-2,)}


def test_cartan_entries():
    g2 = cartan_matrix("G", 2)
    assert g2 == [[2, -3], [-1, 2]]
    b3 = cartan_matrix("B", 3)
    assert b3[2][1] == -2 and b3[1][2] == -1
    c3 = cartan_matrix("C", 3)
    assert c3[1][2] == -2 and c3[2][1] == -1
    f4 = cartan_matrix("F", 4)
    assert f4[2][1] == -2 and f4[1][2] == -1


def test_dual_is_involutive():
    for series, rank in [("A", 2), ("B", 3), ("C", 2), ("G", 2), ("D", 4)]:
        d = build_root_datum(series, rank, "sc")
        dd = dual_datum(dual_datum(d))
        assert dd.roots == d.roots
        assert dd.coroots == d.coroots
        assert dd.simple_indices == d.simple_indices
        assert dd.label == d.label


def test_dual_c2sc_is_b2ad():
    c2 = build_root_datum("C", 2, "sc")
    dual = dual_datum(c2)
    b2 = build_root_datum("B", 2, "ad")
    assert dual.label == ("B", 2, "ad")
    assert set(dual.roots) == set(b2.roots)
    assert sorted(zip(dual.roots, dual.coroots)) == sorted(zip(b2.roots, b2.coroots))


FUNDAMENTAL = {
    ("A", 1): (2,),
    ("A", 2): (3,),
    ("A", 3): (4,),
    ("B", 3): (2,),
    ("C", 3): (2,),
    ("D", 4): (2, 2),
    ("D", 5): (4,),
    ("G", 2): (),
    ("F", 4): (),
    ("E", 6): (3,),
    ("E", 7): (2,),
    ("E", 8): (),
}


def test_fundamental_groups():
    # weight lattice over root lattice, the group that acts on the extended
    # diagram of the dual as the center of the simply connected dual group
    for (series, rank), torsion in FUNDAMENTAL.items():
        group = center_alcove_action(build_root_datum(series, rank, "sc")).group
        assert group.free_rank == 0
        assert group.torsion == torsion, (series, rank)


def _extended_edges(ext):
    """(i, j, m, arrow) per edge of the extended diagram, read off the node
    vectors and coroots: m is the product of the two Cartan integers, and on
    a double or triple edge the arrow points at the node of the shorter
    root."""
    def pair(a, b):
        return sum(x * y for x, y in zip(a, b))

    out = []
    for i in range(ext.n_nodes):
        for j in range(i + 1, ext.n_nodes):
            a, av = ext.node_vectors[i], ext.node_coroots[i]
            b, bv = ext.node_vectors[j], ext.node_coroots[j]
            m = pair(a, bv) * pair(b, av)
            if m:
                arrow = (j if pair(b, av) == -1 else i) if m in (2, 3) else None
                out.append((i, j, m, arrow))
    return out


def test_extended_marks():
    a1 = extended_dynkin(build_root_datum("A", 1, "sc"))
    assert a1.marks == [1, 1]
    assert _extended_edges(a1) == [(0, 1, 4, None)]

    b2ad = extended_dynkin(build_root_datum("B", 2, "ad"))
    # highest root alpha_1 + 2 alpha_2, the short simple root carries 2
    assert b2ad.marks == [1, 1, 2]

    g2 = extended_dynkin(build_root_datum("G", 2, "sc"))
    assert g2.marks == [1, 3, 2]
    assert sorted(g2.marks) == [1, 2, 3]

    f4 = extended_dynkin(build_root_datum("F", 4, "sc"))
    assert f4.marks == [1, 2, 3, 4, 2]

    e8 = extended_dynkin(build_root_datum("E", 8, "sc"))
    assert sorted(e8.marks) == [1, 2, 2, 3, 3, 4, 4, 5, 6]

    d4 = extended_dynkin(build_root_datum("D", 4, "sc"))
    assert d4.marks == [1, 1, 2, 1, 1]


def test_extended_arrows():
    # C2 extended: affine node is long, double edges point at the short middle
    c2 = extended_dynkin(build_root_datum("C", 2, "sc"))
    doubles = [(i, j, m, arrow) for (i, j, m, arrow) in _extended_edges(c2) if m == 2]
    assert len(doubles) == 2
    for i, j, m, arrow in doubles:
        assert arrow == 1  # node 1 = alpha_1, the short root of C2


def test_alcove_vertices():
    for series, rank in [("A", 2), ("B", 2), ("G", 2), ("F", 4), ("D", 4)]:
        d = build_root_datum(series, rank, "sc")
        ext = extended_dynkin(d)
        theta = d.highest_root()
        assert len(ext.vertices) == rank + 1
        assert ext.vertices[0] == tuple(Fraction(0) for _ in range(rank))
        for k, v in enumerate(ext.vertices):
            for a in d.simple_roots:
                assert sum(x * y for x, y in zip(a, v)) >= 0
            t = sum(x * y for x, y in zip(theta, v))
            assert t == (0 if k == 0 else 1)


def test_alcove_vertex_a1():
    ext = extended_dynkin(build_root_datum("A", 1, "sc"))
    assert ext.vertices == [(Fraction(0),), (Fraction(1, 2),)]


def test_classify_from_pairs():
    for series, rank in [("B", 3), ("C", 3), ("A", 2), ("G", 2), ("D", 4), ("F", 4)]:
        d = build_root_datum(series, rank, "sc")
        sub = sub_datum_from_pairs(d.rank, list(zip(d.roots, d.coroots)))
        expect = f"{series}{rank}"
        if series == "C" and rank == 2:
            expect = "B2"
        assert sub.cartan_type() == expect


def _is_long_b2(d, r):
    # long root: no other root pairs with its coroot beyond +-1
    rv = d.coroot_of(r)
    neg = tuple(-x for x in r)
    return all(
        abs(sum(x * y for x, y in zip(s, rv))) <= 1
        for s in d.roots
        if s not in (tuple(r), neg)
    )


def test_classify_long_roots_of_b2():
    b2 = build_root_datum("B", 2, "sc")
    longs = [(r, rv) for r, rv in zip(b2.roots, b2.coroots) if _is_long_b2(b2, r)]
    assert len(longs) == 4
    sub = sub_datum_from_pairs(2, longs)
    assert sub.cartan_type() == "A1+A1"


def test_highest_root_reducible_errors():
    b2 = build_root_datum("B", 2, "sc")
    longs = [(r, d) for r, d in zip(b2.roots, b2.coroots) if _is_long_b2(b2, r)]
    sub = sub_datum_from_pairs(2, longs)
    with pytest.raises(ValueError):
        sub.highest_root()
    with pytest.raises(ValueError):
        extended_dynkin(sub)


def test_rank_cap_and_bad_input():
    with pytest.raises(ValueError):
        build_root_datum("A", 9)
    with pytest.raises(ValueError):
        build_root_datum("E", 5)
    with pytest.raises(ValueError):
        build_root_datum("H", 2)
    for isogeny in ("simply", "gl-special"):
        with pytest.raises(ValueError, match="unknown isogeny"):
            build_root_datum("A", 2, isogeny)


# ---------------------------------------------------------------------------
# derived structures are built once per datum


def test_dual_is_cached_and_involutive_by_identity():
    for isog in ("sc", "ad"):
        d = build_root_datum("B", 3, isog)
        assert dual_datum(d) is dual_datum(d)
        assert dual_datum(dual_datum(d)) is d
    levi = _levi_of_a(2)
    assert dual_datum(dual_datum(levi)) is levi


def test_extended_dynkin_is_cached():
    d = build_root_datum("F", 4, "sc")
    assert extended_dynkin(d) is extended_dynkin(d)
    assert d.is_semisimple() is d.is_semisimple()


def test_reducible_errors_are_not_cached():
    b2 = build_root_datum("B", 2, "sc")
    longs = [(r, d) for r, d in zip(b2.roots, b2.coroots) if _is_long_b2(b2, r)]
    sub = sub_datum_from_pairs(2, longs)
    for _ in range(2):
        with pytest.raises(ValueError):
            sub.highest_root()
        with pytest.raises(ValueError):
            extended_dynkin(sub)


def test_cartan_type_is_cached_and_errors_are_not():
    d = build_root_datum("B", 3, "sc")
    ctype = d.cartan_type()
    assert ctype == "B3" and d.derived["cartan_type"] is ctype
    assert d.cartan_type() is ctype
    # affine A2: a three-cycle of simple roots, no finite type
    c = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    roots = [tuple(c[i][j] for i in range(3)) for j in range(3)]
    coroots = [tuple(int(k == j) for k in range(3)) for j in range(3)]
    cyc = RootDatum(3, roots, coroots, range(3), validate=False)
    for _ in range(2):
        with pytest.raises(ValueError):
            cyc.cartan_type()
    assert "cartan_type" not in cyc.derived


def _all_data():
    for series, ranks in [
        ("A", range(1, 9)),
        ("B", range(2, 9)),
        ("C", range(2, 9)),
        ("D", range(3, 9)),
        ("E", (6, 7, 8)),
        ("F", (4,)),
        ("G", (2,)),
    ]:
        for rank in ranks:
            for isog in ("sc", "ad"):
                yield build_root_datum(series, rank, isog)
    for rank in range(1, 8):
        yield _levi_of_a(rank)


def _levi_of_a(rank):
    """A_rank inside the lattice of A_(rank + 1): a rank-deficient datum,
    irreducible but not semisimple."""
    d = build_root_datum("A", rank + 1, "ad")
    return sub_datum_from_pairs(d.rank, [(r, rv) for r, rv in zip(d.roots, d.coroots) if r[-1] == 0])


def _height_by_solve(d, root):
    # one rational solve per root, independent of the cached inverse Cartan
    n = len(d.simple_indices)
    rows = [[sum(x * y for x, y in zip(d.simple_roots[j], d.simple_coroots[i])) for j in range(n)] for i in range(n)]
    b = [sum(x * y for x, y in zip(root, d.simple_coroots[i])) for i in range(n)]
    return solve_rational(rows, b)


def test_highest_root_and_coefficients_match_per_root_solve():
    for d in _all_data():
        best = None
        for r in d.roots:
            coeffs = _height_by_solve(d, r)
            assert d.simple_coefficients(r) == coeffs, (d, r)
            if best is None or sum(coeffs) > best[1]:
                best = (r, sum(coeffs))
        assert d.highest_root() == best[0], d
        assert d.highest_root() is d.highest_root()


def test_rank_of_span_matches_smith_form():
    rng = random.Random(5)
    for _ in range(300):
        r, c = rng.randint(1, 10), rng.randint(1, 6)
        basis = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(rng.randint(1, c))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(c)] for _ in range(r)]
        _, d, _ = smith_normal_form(IntMatrix(rows))
        assert _rank_of_span(rows, c) == sum(1 for i in range(min(r, c)) if d.at(i, i))
    assert _rank_of_span([], 3) == 0


def _rank_by_full_elimination(rows, dim):
    # Gauss-Jordan over Q on every row, no early stop
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(dim):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_of_span_matches_full_elimination():
    rng = random.Random(11)
    for trial in range(600):
        dim = rng.randint(1, 8)
        k = rng.randint(0, dim)
        basis = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        rows = [[sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(dim)]
                for _ in range(rng.randint(0, 12))]
        if rows and trial % 3 == 0:
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(1, 4))]
        if trial % 4 == 0:
            # the last vector is the one that can complete the rank
            rows.append([rng.randint(-5, 5) for _ in range(dim)])
        if trial % 4 == 1:
            rng.shuffle(rows)
        assert _rank_of_span(rows, dim) == _rank_by_full_elimination(rows, dim), (rows, dim)


def test_rank_of_span_counts_the_last_vector_and_stops_at_full_rank():
    for dim in range(1, 9):
        units = [[int(i == j) for j in range(dim)] for i in range(dim)]
        assert _rank_of_span(units[1:] + [units[0]], dim) == dim
        assert _rank_of_span(units[1:] * 2, dim) == dim - 1
        # nothing after full rank is read: list(None) would raise
        assert _rank_of_span(units + [None], dim) == dim


def _simple_by_all_pairs(pairs):
    # the positive system of sub_datum_from_pairs's big-base functional;
    # a positive root is simple when it is not a sum of two positive roots,
    # tested on every pair; indices into the sorted roots, in input order
    base = max(abs(x) for a, _ in pairs for x in a) + 2
    positives = [a for a, _ in pairs if sum(x * base**k for k, x in enumerate(a)) > 0]
    posset = set(positives)
    simple = [
        b for b in positives
        if not any(tuple(x - y for x, y in zip(b, g)) in posset for g in positives if g != b)
    ]
    roots = sorted(a for a, _ in pairs)
    return tuple(roots.index(b) for b in simple)


ATLAS_TYPES = (
    [("A", n) for n in range(1, 5)] + [("B", n) for n in range(2, 5)] + [("C", n) for n in range(2, 5)]
    + [("D", 4), ("F", 4), ("G", 2), ("E", 6), ("E", 7), ("E", 8)]
)


def _check_simple_search(rank, pairs):
    sub = sub_datum_from_pairs(rank, pairs)
    assert sub.simple_indices == _simple_by_all_pairs(pairs), pairs
    return sub


def test_simple_roots_match_all_pairs_search_on_pseudo_levis():
    for series, rank in ATLAS_TYPES:
        for isog in ("sc", "ad"):
            g = build_root_datum(series, rank, isog)
            d = dual_datum(g)
            _check_simple_search(d.rank, list(zip(d.roots, d.coroots)))
            ext = extended_dynkin(d)
            for vertex in range(ext.n_nodes):
                gens = [(ext.node_vectors[i], ext.node_coroots[i]) for i in range(ext.n_nodes) if i != vertex]
                sub = _check_simple_search(d.rank, reflection_closure(gens))
                assert pseudo_levi(g, vertex).simple_indices == sub.simple_indices


def test_simple_roots_match_all_pairs_search_on_kappa_subsystems():
    rng = random.Random(3)
    for series, rank in ATLAS_TYPES:
        for isog in ("sc", "ad"):
            d = dual_datum(build_root_datum(series, rank, isog))
            for _ in range(6):
                den = rng.choice((2, 3, 4, 5, 6))
                kappa = [Fraction(rng.randint(-den, den), den) for _ in range(d.rank)]
                pairs = [(r, rv) for r, rv in zip(d.roots, d.coroots)
                         if sum(x * k for x, k in zip(r, kappa)).denominator == 1]
                if pairs:
                    _check_simple_search(d.rank, pairs)


def test_levi_subsystem_is_not_semisimple():
    d = build_root_datum("E", 6, "ad")
    # roots with no alpha_1 component: a corank-one Levi subsystem
    pairs = [(r, rv) for r, rv in zip(d.roots, d.coroots) if r[0] == 0]
    sub = sub_datum_from_pairs(d.rank, pairs)
    assert sub.cartan_type() == "D5"
    assert not sub.is_semisimple()
    assert d.is_semisimple()
    with pytest.raises(ValueError, match="semisimple"):
        extended_dynkin(sub)


def test_cartan_inverse_matches_per_column_solve():
    for d in _all_data():
        c = d.cartan()
        n = len(c)
        den, rows = d._cartan_inverse()
        for k in range(n):
            col = solve_rational(c, [int(i == k) for i in range(n)])
            assert [Fraction(row[k], den) for row in rows] == list(col), (d, k)
