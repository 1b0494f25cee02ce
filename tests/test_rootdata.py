"""Root datum construction, duality, extended diagrams."""

import random
import re
from fractions import Fraction

import pytest

from liechar import root_datum
from liechar.endoscopy import center_alcove_action, pseudo_levi
from liechar.exact_math import IntMatrix, smith_normal_form
from liechar.exact_math.intmat import _gauss_jordan
from liechar.root_datum import (
    ROOT_BUDGET,
    ROOT_ENTRY_BOUND,
    RootDatum,
    _packing,
    build_root_datum,
    cartan_matrix,
    dual_datum,
    extended_dynkin,
    reflection_closure,
    sub_datum_from_pairs,
)
from reference_dynkin import reference_cartan_type
from reference_lattice import rank_of_span, solve_rational

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


def alcove_vertices(d):
    """The alcove vertices of d in Y tensor Q, as Fraction points: the origin
    for node 0, else omega_i^vee / m_i, omega_i^vee from row i of C^-1."""
    den, inv = d._cartan_inverse()
    marks = extended_dynkin(d).marks
    cov_cols = list(zip(*d.simple_coroots))
    vertices = [tuple(Fraction(0) for _ in range(d.rank))]
    for row, m in zip(inv, marks[1:]):
        vertices.append(tuple(Fraction(sum(x * y for x, y in zip(row, col)), den * m) for col in cov_cols))
    return vertices


def test_alcove_vertices():
    for series, rank in [("A", 2), ("B", 2), ("G", 2), ("F", 4), ("D", 4)]:
        d = build_root_datum(series, rank, "sc")
        vertices = alcove_vertices(d)
        theta = d.highest_root()
        assert len(vertices) == rank + 1
        assert vertices[0] == tuple(Fraction(0) for _ in range(rank))
        for k, v in enumerate(vertices):
            for a in d.simple_roots:
                assert sum(x * y for x, y in zip(a, v)) >= 0
            t = sum(x * y for x, y in zip(theta, v))
            assert t == (0 if k == 0 else 1)


def test_alcove_vertex_a1():
    assert alcove_vertices(build_root_datum("A", 1, "sc")) == [(Fraction(0),), (Fraction(1, 2),)]


def test_extended_cartan_columns():
    # columns[i] holds the nonzero entries of column i of A[j][i] =
    # <node_j, node_i^vee>: 2 on the diagonal, and the marks are its kernel
    for series, rank in ADMITTED:
        for isogeny in ("sc", "ad"):
            ext = extended_dynkin(build_root_datum(series, rank, isogeny))
            for i, entries in enumerate(ext.columns):
                col = [sum(x * y for x, y in zip(a, ext.node_coroots[i])) for a in ext.node_vectors]
                assert entries == tuple((j, t) for j, t in enumerate(col) if t)
                assert col[i] == 2
                assert sum(m * t for m, t in zip(ext.marks, col)) == 0


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
        build_root_datum("A", 9, "sc")
    with pytest.raises(ValueError):
        build_root_datum("E", 5, "sc")
    with pytest.raises(ValueError):
        build_root_datum("H", 2, "sc")
    for isogeny in ("simply", "gl-special"):
        with pytest.raises(ValueError, match="unknown isogeny"):
            build_root_datum("A", 2, isogeny)


def test_rank_budget_is_refused_before_the_series_is_read():
    # the rank is refused before `cartan_matrix` allocates its rank x rank
    # matrix, so an unknown series past the budget names the budget
    with pytest.raises(ValueError, match="^rank 9 exceeds the budget RANK_BUDGET = 8$"):
        build_root_datum("H", 9, "sc")
    with pytest.raises(ValueError, match="^unknown series 'H'$"):
        build_root_datum("H", 8, "sc")
    with pytest.raises(ValueError, match="^E_n needs rank 6, 7 or 8$"):
        build_root_datum("E", 5, "unknown")


def _neg(v):
    return tuple(-x for x in v)


@pytest.mark.parametrize(
    "root,coroot",
    [
        ((1, 0, 0), (2, 0)),  # a root longer than the rank
        ((1,), (2, 0)),  # shorter
        ((1, 0), (2, 0, 5)),  # a coroot longer than the rank
        ((1, 0), (2,)),  # shorter
        ((1, 0, 0), (1, 0)),  # longer, and <beta, beta^vee> = 1 on the zip
    ],
)
@pytest.mark.parametrize("route", ["constructor", "kappa"])
def test_root_or_coroot_without_rank_entries_is_refused_before_packing(monkeypatch, root, coroot, route):
    """Every root and coroot has rank entries. One of another length is
    refused with a ValueError naming the check, on the constructor route
    and on the kappa route, before any vector is packed: a zip or a
    pairing sum would drop the extra entries, and the packing would die
    in `struct`."""
    pairs = [(root, coroot), (_neg(root), _neg(coroot))]

    def no_packing(n):
        raise AssertionError("a vector was packed before its shape was checked")

    monkeypatch.setattr(root_datum, "_packing", no_packing)
    with pytest.raises(ValueError, match=r"does not have rank = 2 entries$"):
        if route == "constructor":
            RootDatum(2, [a for a, _ in pairs], [av for _, av in pairs], [0])
        else:
            sub_datum_from_pairs(2, pairs)


ADMITTED = [
    (series, rank)
    for series, ranks in [
        ("A", range(1, 9)),
        ("B", range(2, 9)),
        ("C", range(2, 9)),
        ("D", range(3, 9)),
        ("E", (6, 7, 8)),
        ("F", (4,)),
        ("G", (2,)),
    ]
    for rank in ranks
]


def test_dependent_simple_roots_are_refused():
    """Simple roots must be distinct and independent: the Cartan matrix is
    nonsingular. A repeated one reads [[2, 2], [2, 2]], which the root count
    of `cartan_type` takes for A2."""
    a2 = build_root_datum("A", 2, "sc")
    i, j = a2.simple_indices
    dependent = "^simple roots are linearly dependent: the Cartan matrix is singular$"
    with pytest.raises(ValueError, match=dependent):
        RootDatum(2, a2.roots, a2.coroots, [i, i])
    assert RootDatum(2, a2.roots, a2.coroots, [i, i], validate=False).cartan_type() == "A2"
    # alpha1, alpha2 and alpha1 + alpha2: three distinct roots in rank 2
    both = a2.roots.index(tuple(x + y for x, y in zip(a2.roots[i], a2.roots[j])))
    with pytest.raises(ValueError, match=dependent):
        RootDatum(2, a2.roots, a2.coroots, [i, j, both])
    # alpha1 and its negative
    minus = a2.roots.index(tuple(-x for x in a2.roots[i]))
    with pytest.raises(ValueError, match=dependent):
        RootDatum(2, a2.roots, a2.coroots, [i, minus])
    # as many simple roots as the rank: alpha1, alpha2, alpha1 + alpha2 in A3
    a3 = build_root_datum("A", 3, "sc")
    i, j, _ = a3.simple_indices
    both = a3.roots.index(tuple(x + y for x, y in zip(a3.roots[i], a3.roots[j])))
    with pytest.raises(ValueError, match=dependent):
        RootDatum(3, a3.roots, a3.coroots, [i, j, both])
    # every admitted datum's own simple roots pass
    for series, rank in ADMITTED:
        for isogeny in ("sc", "ad"):
            d = build_root_datum(series, rank, isogeny)
            RootDatum(d.rank, d.roots, d.coroots, d.simple_indices)


def test_gauss_jordan_refuses_exactly_the_singular_cartan_matrices():
    """The Bareiss elimination that decides a Cartan matrix nonsingular in
    validation, against the reference rank, on random small integer
    matrices up to 8 x 8, about a third of them with a last row that
    combines two earlier ones, with entries at the edges of the packed range
    too."""
    rng = random.Random(44)
    entries = (0, 0, 0, 1, -1, 2, -2, -3, ROOT_ENTRY_BOUND - 1, -ROOT_ENTRY_BOUND)
    for _ in range(600):
        n = rng.randrange(9)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(n - 1) // 2])]
        try:
            _gauss_jordan([r[:] for r in rows], n)
            nonsingular = True
        except ValueError:
            nonsingular = False
        assert nonsingular == (rank_of_span(rows, n) == n)


def test_build_root_datum_is_one_object_per_input():
    for series, rank in ADMITTED:
        sc, ad = (build_root_datum(series, rank, isog) for isog in ("sc", "ad"))
        assert build_root_datum(series, rank, "sc") is sc
        assert build_root_datum(series, rank, "ad") is ad
        assert sc is not ad
    size = build_root_datum.cache_info().currsize
    assert size == 2 * len(ADMITTED) == 66
    # one key per input: the arguments are positional only
    with pytest.raises(TypeError):
        build_root_datum("A", 2, isogeny="sc")
    # a rejected input raises every time and is never stored
    for args in (("A", 9, "sc"), ("A", 2, "gl"), ("E", 5, "sc")):
        for _ in range(2):
            with pytest.raises(ValueError):
                build_root_datum(*args)
    assert build_root_datum.cache_info().currsize == size


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
    cyc = _simple_roots_only(_bonded(3, [(0, 1, -1), (1, 2, -1), (2, 0, -1)]))
    for _ in range(2):
        with pytest.raises(ValueError, match="root count check"):
            cyc.cartan_type()
    assert "cartan_type" not in cyc.derived


def _bonded(n, bonds):
    """The n x n Cartan matrix with c[a][b] = x and c[b][a] = -1 for each
    bond (a, b, x), so that alpha_a is the short end when x < -1."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b, x in bonds:
        c[a][b], c[b][a] = x, -1
    return c


def _simple_roots_only(c):
    """An unvalidated datum in the weight basis whose roots are the simple
    roots of the Cartan matrix c, so that <alpha_j, alpha_i^vee> = c[i][j]."""
    n = len(c)
    roots = [tuple(c[i][j] for i in range(n)) for j in range(n)]
    coroots = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return RootDatum(n, roots, coroots, range(n), validate=False)


@pytest.mark.parametrize(
    "bonds",
    [
        [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 0, -1)],
        [(0, 1, -1), (0, 2, -1), (0, 3, -1), (0, 4, -1)],
        [(1, 0, -2), (1, 2, -2)],
        [(0, 1, -1), (2, 1, -2), (2, 3, -1), (3, 4, -1)],
        [(0, 1, -3), (1, 2, -1)],
    ],
    ids=["affine-A3-four-cycle", "affine-D4-degree-4", "affine-C2-two-double-bonds",
         "path-inner-double-bond", "g2-bond-with-tail"],
)
def test_diagram_of_no_finite_type_is_refused_by_the_root_count(bonds):
    d = _simple_roots_only(_bonded(1 + max(max(a, b) for a, b, _ in bonds), bonds))
    for _ in range(2):
        with pytest.raises(ValueError, match="root count check"):
            d.cartan_type()
    assert "cartan_type" not in d.derived
    # the leg-walking classifier refuses each of them as well
    with pytest.raises(ValueError, match="unrecognized|double edge"):
        reference_cartan_type(d)


def test_cartan_type_matches_the_leg_walking_classifier():
    # every datum, its dual, every pseudo-Levi of both, and the integral
    # roots of seeded kappa in both, which reach every type the library
    # admits and most of their sums
    rng = random.Random(11)
    seen = set()
    for g in (build_root_datum(s, n, isog) for s, n in ADMITTED for isog in ("sc", "ad")):
        for d in (g, dual_datum(g)):
            data = [d] + [pseudo_levi(d, node) for node in range(d.rank + 1)]
            for _ in range(12):
                # kappa = v / den, and <r, kappa> is integral when den divides <r, v>
                den = rng.choice((2, 3, 4, 5, 6))
                v = [rng.randint(-den, den) for _ in range(d.rank)]
                data.append(sub_datum_from_pairs(d.rank, [
                    (r, rv) for r, rv in zip(d.roots, d.coroots)
                    if sum(x * k for x, k in zip(r, v)) % den == 0
                ]))
            for sub in data:
                assert sub.cartan_type() == reference_cartan_type(sub), sub
                seen.update(sub.cartan_type().split("+"))
    assert len(seen) == 32  # "0" and the 31 irreducible types of rank <= 8


def _cartan_by_dots(d):
    """[[<alpha_j, alpha_i^vee> for j] for i] from the dot products."""
    return [[sum(x * y for x, y in zip(a, av)) for a in d.simple_roots] for av in d.simple_coroots]


def test_kept_cartan_matrix_is_the_dot_product_matrix():
    """Validation keeps the Cartan matrix it proved nonsingular as
    `cartan()`; an unvalidated datum forms it from dot products. Every
    admitted datum in both isogenies, its dual, every pseudo-Levi and the
    integral roots of seeded kappa, E8 included: row i holds the pairings
    with the simple coroot alpha_i^vee."""
    rng = random.Random(47)
    for series, rank in ADMITTED:
        for isog in ("sc", "ad"):
            g = build_root_datum(series, rank, isog)
            d = dual_datum(g)
            data = [g, d] + [pseudo_levi(g, node) for node in range(rank + 1)]
            for _ in range(4):
                den = rng.choice((2, 3, 4, 5, 6))
                v = [rng.randint(-den, den) for _ in range(rank)]
                pairs = [(r, rv) for r, rv in zip(d.roots, d.coroots) if sum(x * k for x, k in zip(r, v)) % den == 0]
                data.append(sub_datum_from_pairs(rank, pairs))
            for sub in data:
                assert [list(row) for row in sub.cartan()] == _cartan_by_dots(sub), (series, rank, isog, sub)


def _all_data():
    for series, rank in ADMITTED:
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
            assert all(type(c) is int for c in d.simple_coefficients(r)), (d, r)
            if best is None or sum(coeffs) > best[1]:
                best = (r, sum(coeffs))
        assert d.highest_root() == best[0], d
        assert d.highest_root() == d.highest_root()


def test_rank_of_span_matches_smith_form():
    rng = random.Random(5)
    for _ in range(300):
        r, c = rng.randint(1, 10), rng.randint(1, 6)
        basis = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(rng.randint(1, c))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(c)] for _ in range(r)]
        _, d, _ = smith_normal_form(IntMatrix(rows))
        assert rank_of_span(rows, c) == sum(1 for i in range(min(r, c)) if d.at(i, i))
    assert rank_of_span([], 3) == 0


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
        assert rank_of_span(rows, dim) == _rank_by_full_elimination(rows, dim), (rows, dim)


def test_rank_of_span_counts_the_last_vector_and_stops_at_full_rank():
    for dim in range(1, 9):
        units = [[int(i == j) for j in range(dim)] for i in range(dim)]
        assert rank_of_span(units[1:] + [units[0]], dim) == dim
        assert rank_of_span(units[1:] * 2, dim) == dim - 1
        # nothing after full rank is read: list(None) would raise
        assert rank_of_span(units + [None], dim) == dim


def test_is_semisimple_matches_the_rank_of_the_span():
    # every datum, its dual, every pseudo-Levi of both, and the integral
    # roots of seeded kappa in both, which reach coranks 0 to 5
    rng = random.Random(32)
    coranks = {}
    for g in (build_root_datum(s, n, isog) for s, n in ADMITTED for isog in ("sc", "ad")):
        for d in (g, dual_datum(g)):
            data = [d] + [pseudo_levi(d, node) for node in range(d.rank + 1)]
            for _ in range(12):
                den = rng.choice((2, 3, 4, 5, 6))
                v = [rng.randint(-den, den) for _ in range(d.rank)]
                data.append(sub_datum_from_pairs(d.rank, [
                    (r, rv) for r, rv in zip(d.roots, d.coroots)
                    if sum(x * k for x, k in zip(r, v)) % den == 0
                ]))
            for sub in data:
                rank = rank_of_span(sub.roots, sub.rank)
                assert sub.is_semisimple() == (rank == sub.rank and len(sub.roots) > 0), sub
                coranks[sub.rank - rank] = coranks.get(sub.rank - rank, 0) + 1
    assert coranks[0] > 500 and coranks[1] > 100 and max(coranks) == 5, coranks
    assert not sub_datum_from_pairs(3, []).is_semisimple()


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
    # the closure of the nodes other than the vertex is the reference: the
    # pseudo-Levi, read off the integral roots, has its roots, and its
    # simple roots are those nodes, in node order
    for series, rank in ADMITTED:
        for isog in ("sc", "ad"):
            g = build_root_datum(series, rank, isog)
            d = dual_datum(g)
            _check_simple_search(d.rank, list(zip(d.roots, d.coroots)))
            ext = extended_dynkin(d)
            nodes = list(zip(ext.node_vectors, ext.node_coroots))
            for vertex in range(ext.n_nodes):
                gens = nodes[:vertex] + nodes[vertex + 1:]
                sub = _check_simple_search(d.rank, reflection_closure(gens))
                levi = pseudo_levi(g, vertex)
                assert (levi.roots, levi.coroots) == (sub.roots, sub.coroots), (series, rank, isog, vertex)
                assert list(zip(levi.simple_roots, levi.simple_coroots)) == gens, (series, rank, isog, vertex)


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


# ---------------------------------------------------------------------------
# the packed closure against the tuple closure


def _tuple_closure(gens):
    """Reference: the closure of (root, coroot) pairs under their
    reflections on tuples, one dot product per reflection; sorted by root."""
    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    gens = [(tuple(a), tuple(av)) for a, av in gens]
    pairs = dict(gens)
    frontier = list(pairs)
    while frontier:
        nxt = []
        for b in frontier:
            bv = pairs[b]
            for a, av in gens:
                k = dot(b, av)
                if not k:
                    continue
                rb = tuple(x - k * y for x, y in zip(b, a))
                if rb not in pairs:
                    k = dot(a, bv)
                    pairs[rb] = tuple(x - k * y for x, y in zip(bv, av))
                    nxt.append(rb)
        frontier = nxt
    return sorted(pairs.items())


def _check_closure(gens):
    gens = list(gens)
    got = reflection_closure(gens)
    assert got == _tuple_closure(gens), gens
    return got


def test_packed_closure_matches_tuple_closure_on_every_datum_and_pseudo_levi():
    for series, rank in ADMITTED:
        for isog in ("sc", "ad"):
            g = build_root_datum(series, rank, isog)
            for d in (g, dual_datum(g)):
                assert _check_closure(zip(d.simple_roots, d.simple_coroots)) == sorted(zip(d.roots, d.coroots))
                ext = extended_dynkin(d)
                for vertex in range(ext.n_nodes):
                    _check_closure(
                        (ext.node_vectors[i], ext.node_coroots[i]) for i in range(ext.n_nodes) if i != vertex
                    )
                # every node at once: the closure is the whole system again
                assert _check_closure(zip(ext.node_vectors, ext.node_coroots)) == sorted(zip(d.roots, d.coroots))


def test_packed_closure_matches_tuple_closure_on_kappa_subsystems():
    rng = random.Random(7)
    for series, rank in ATLAS_TYPES:
        for isog in ("sc", "ad"):
            d = dual_datum(build_root_datum(series, rank, isog))
            for _ in range(6):
                den = rng.choice((2, 3, 4, 5, 6))
                kappa = [Fraction(rng.randint(-den, den), den) for _ in range(d.rank)]
                pairs = [(r, rv) for r, rv in zip(d.roots, d.coroots)
                         if sum(x * k for x, k in zip(r, kappa)).denominator == 1]
                if not pairs:
                    continue
                sub = sub_datum_from_pairs(d.rank, pairs)
                # the integral roots are closed: their simple roots give them back
                assert _check_closure(zip(sub.simple_roots, sub.simple_coroots)) == sorted(pairs)


def _affine_a1():
    # <a1, a2^vee> = <a2, a1^vee> = -2: the affine Weyl group of A1, whose
    # roots +-a1 + n delta grow by one entry per two roots
    return [((1, 0), (2, -2)), ((0, 1), (-2, 2))]


def test_closure_budget_refuses_an_infinite_reflection_group():
    with pytest.raises(ValueError, match=f"reflection closure exceeds ROOT_BUDGET = {ROOT_BUDGET} roots"):
        reflection_closure(_affine_a1())
    # hyperbolic: <a1, a2^vee> = <a2, a1^vee> = -3, entries grow
    # geometrically and leave the packed range before the budget
    with pytest.raises(ValueError, match="ROOT_ENTRY_BOUND"):
        reflection_closure([((1, 0), (2, -3)), ((0, 1), (-3, 2))])
    # E8 is exactly the budget
    e8 = build_root_datum("E", 8, "sc")
    assert len(reflection_closure(zip(e8.simple_roots, e8.simple_coroots))) == ROOT_BUDGET == 240


def test_closure_budget_boundary(monkeypatch):
    g2 = build_root_datum("G", 2, "sc")  # 12 roots
    b3 = build_root_datum("B", 3, "sc")  # 18 roots
    monkeypatch.setattr(root_datum, "ROOT_BUDGET", 12)
    assert len(reflection_closure(zip(g2.simple_roots, g2.simple_coroots))) == 12
    with pytest.raises(ValueError, match="ROOT_BUDGET = 12"):
        reflection_closure(zip(b3.simple_roots, b3.simple_coroots))


def test_packed_fields_at_the_range_boundary():
    low, high = -ROOT_ENTRY_BOUND, ROOT_ENTRY_BOUND - 1
    assert (low, high) == (-128, 127)
    for n in (1, 2, 5, 17):
        bias, pack, unpack, outside = _packing(n)
        for i in range(n):
            for x, inside in ((low, True), (high, True), (low - 1, False), (high + 1, False), (0, True)):
                v = [high if j % 2 else low for j in range(n)]
                v[i] = x
                code = pack(v)
                assert unpack(code) == tuple(v)
                assert code - bias == sum(y << (32 * j) for j, y in enumerate(v))
                assert (not outside(code)) == inside, (n, i, x)


def _a1_pair(x):
    # a rank-2 A1 whose root has entry x: <(x, 1), (0, 2)> = 2
    return [((x, 1), (0, 2)), ((-x, -1), (0, -2))]


def test_root_entry_just_inside_the_range_is_accepted_and_just_outside_refused():
    inside = ROOT_ENTRY_BOUND - 1
    assert reflection_closure(_a1_pair(inside)[:1]) == sorted(_a1_pair(inside))
    assert sub_datum_from_pairs(2, _a1_pair(inside)).cartan_type() == "A1"
    pairs = sorted(_a1_pair(inside))
    RootDatum(2, [a for a, _ in pairs], [av for _, av in pairs], [1])
    outside = ROOT_ENTRY_BOUND
    for call in (
        lambda: reflection_closure(_a1_pair(outside)[:1]),
        lambda: sub_datum_from_pairs(2, _a1_pair(outside)),
        lambda: RootDatum(2, [(-outside, -1), (outside, 1)], [(0, -2), (0, 2)], [1]),
    ):
        with pytest.raises(ValueError, match="ROOT_ENTRY_BOUND = 128"):
            call()


def test_pairing_just_inside_the_range_is_tested_and_just_outside_refused():
    # <a2, a1^vee> = 2 + (x - 2) = x with every entry below the bound: the
    # set {+-a1, +-a2} is not reflection-closed; a pairing in range reaches
    # the closure test, one outside is refused
    def datum(x):
        roots = [(1, 0), (-1, 0), (1, 1), (-1, -1)]
        coroots = [(2, x - 2), (-2, 2 - x), (1, 1), (-1, -1)]
        return RootDatum(2, roots, coroots, [0, 2])

    with pytest.raises(ValueError, match="not reflection-closed"):
        datum(ROOT_ENTRY_BOUND - 1)
    with pytest.raises(ValueError, match="ROOT_ENTRY_BOUND = 128"):
        datum(ROOT_ENTRY_BOUND)
    # a closure whose pairing field reaches the bound is refused too
    with pytest.raises(ValueError, match="ROOT_ENTRY_BOUND = 128"):
        reflection_closure([((1, 0), (2, ROOT_ENTRY_BOUND)), ((0, 1), (0, 2))])


_PAIRING_REFUSED = "root entry or pairing outside [-128, 128), ROOT_ENTRY_BOUND = 128"


@pytest.mark.parametrize(
    "k,closed,message",
    [
        (-129, False, _PAIRING_REFUSED),
        (-128, False, "root set not reflection-closed"),
        (127, False, "root set not reflection-closed"),
        (128, False, _PAIRING_REFUSED),
        (-129, True, _PAIRING_REFUSED),
        (-128, True, _PAIRING_REFUSED),  # s_a(b) pairs to 128
        (127, True, None),
        (128, True, _PAIRING_REFUSED),
    ],
)
def test_packed_pairing_range_at_both_ends(k, closed, message):
    """A rank-2 datum with simple root a = (1, 1) = a^vee and a root b with
    <b, a^vee> = k, every entry within the bound; closed adds s_a(b), whose
    pairing is -k. A pairing in [-128, 128) reaches the closure test, one
    outside is refused with the bound's text."""
    b, bv = {
        -129: ((-127, -2), (0, -1)),
        -128: ((-127, -1), (0, -2)),
        127: ((126, 1), (0, 2)),
        128: ((127, 1), (0, 2)),
    }[k]
    roots, coroots = [(1, 1), (-1, -1), b], [(1, 1), (-1, -1), bv]
    if closed:
        roots.append((b[0] - k, b[1] - k))
        coroots.append(tuple(x - sum(bv) for x in bv))
    if message is None:
        # reflection-closed, though no finite system (4 roots, one simple root)
        assert RootDatum(2, roots, coroots, [0]).simple_roots == ((1, 1),)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RootDatum(2, roots, coroots, [0])


def test_rank_just_inside_the_packed_range_is_accepted_and_just_outside_refused():
    # pairings of entries within the bound reach rank 2^14 and decode
    # exactly below rank 2^17
    for rank, ok in ((2**17 - 1, True), (2**17, False)):
        root = (1,) + (0,) * (rank - 1)
        coroot = (2,) + (0,) * (rank - 1)
        neg = tuple(-x for x in root), tuple(-x for x in coroot)
        if ok:
            assert RootDatum(rank, [root, neg[0]], [coroot, neg[1]], [0]).rank == rank
        else:
            with pytest.raises(ValueError, match="rank 131072 beyond the packed range"):
                RootDatum(rank, [root, neg[0]], [coroot, neg[1]], [0])
