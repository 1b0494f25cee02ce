import ast
import inspect
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import test_galois_tori
from liechar.exact_math import (
    IntMatrix,
    smith_normal_form,
    cokernel_group,
    FinAbGroup,
    abelian_subgroup_type,
    intmat,
)
from liechar.galois_tori import _block_frobenius_on_sum_zero
from liechar.root_datum import build_root_datum
from reference_lattice import (
    abelian_type_by_chains,
    kernel_basis,
    smith_normal_form_reference,
    solve_integer,
    solve_rational,
)
from test_rootdata import ADMITTED


def test_snf_identity():
    m = IntMatrix.identity(3)
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix.identity(3)


def test_snf_small_example():
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix([[2, 0], [0, 4]])
    assert u * m * v == d


def test_snf_negative_scalar():
    u, d, v = smith_normal_form(IntMatrix([[-2]]))
    assert d == IntMatrix([[2]])


def test_snf_rectangular():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert d.at(0, 0) == 1 and d.at(1, 1) == 3
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_snf_terminates_on_growth_prone_matrix():
    # floor-division-and-swap elimination doubled entry sizes at each pivot
    # step on this matrix and never returned
    m = IntMatrix(
        [
            [0, 20, 20, 0, 1, -17],
            [0, 0, -20, 0, -19, -20],
            [19, 20, -20, 0, -1, -20],
            [20, -20, -7, 0, 1, 20],
            [20, -9, -20, -20, 1, 0],
        ]
    )
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [d.at(i, i) for i in range(5)]
    assert d == IntMatrix([[diag[i] if i == j else 0 for j in range(6)] for i in range(5)])
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert diag == [1, 1, 1, 1, 3]


@st.composite
def small_matrices(draw):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    rows = [[draw(st.integers(-20, 20)) for _ in range(c)] for _ in range(r)]
    return IntMatrix(rows)


@settings(max_examples=120, deadline=None)
@given(small_matrices())
def test_snf_roundtrip_property(m):
    u, d, v = smith_normal_form(m)
    r, c = m.shape
    assert u * m * v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.at(i, i) for i in range(min(r, c))]
    # off-diagonal zero
    for i in range(r):
        for j in range(c):
            if i != j:
                assert d.at(i, j) == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def _seeded_matrix(rng):
    """An r x c integer matrix, 1 <= r, c <= 8, about 30 % zeros, entries
    bounded by 3, 30 or 10^12 (small bounds make ties for the pivot and
    exact multiples), and at times a zero row or a zero column."""
    r, c = rng.randint(1, 8), rng.randint(1, 8)
    bound = rng.choice((3, 30, 10**12))
    rows = [[rng.randint(-bound, bound) if rng.random() > 0.3 else 0 for _ in range(c)] for _ in range(r)]
    if rng.random() < 0.2:
        rows[rng.randrange(r)] = [0] * c
    if rng.random() < 0.2:
        j = rng.randrange(c)
        for row in rows:
            row[j] = 0
    return IntMatrix(rows)


def _compositions(k):
    if k == 0:
        yield ()
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def _library_inputs():
    """The matrices the library gives SNF: the transposed Cartan matrix of
    each registry datum (the center's presentation), and F - 1 for every
    square matrix written out in tests/test_galois_tori.py (the workload's
    lattices among them), for its fifty random tori, and for each SL_n
    torus with n <= 9 that sln_kappa_group builds."""
    cartans = [
        IntMatrix(build_root_datum(s, n, isog).cartan()).transpose()
        for s, n in ADMITTED
        for isog in ("sc", "ad")
    ]
    frobenius = []
    for node in ast.walk(ast.parse(inspect.getsource(test_galois_tori))):
        try:
            rows = ast.literal_eval(node) if isinstance(node, ast.List) else None
        except ValueError:
            continue
        if rows and all(isinstance(row, list) and len(row) == len(rows) for row in rows):
            if all(type(x) is int for row in rows for x in row):
                frobenius.append(IntMatrix(rows))
    rng = random.Random(20260819)
    frobenius += [test_galois_tori._random_finite_order(rng, rng.randint(1, 5)) for _ in range(50)]
    frobenius += [
        _block_frobenius_on_sum_zero(n, [m * d for d in degs])
        for n in range(2, 10)
        for m in range(2, n + 1)
        if n % m == 0
        for degs in _compositions(n // m)
    ]
    assert len(cartans) == 66 and len(frobenius) > 80
    return cartans + [f - IntMatrix.identity(f.shape[0]) for f in frobenius]


def test_snf_transforms_match_the_mirrored_eliminations():
    # the row routine on the transposes makes every column operation the
    # mirrored column elimination made, so U and V agree, not only D
    rng = random.Random(38)
    for m in [_seeded_matrix(rng) for _ in range(2000)] + _library_inputs():
        assert smith_normal_form(m) == smith_normal_form_reference(m), m


def _snf_variant(old, new):
    """A copy of smith_normal_form with one source line replaced."""
    src = inspect.getsource(intmat.smith_normal_form)
    assert src.count(old) == 1
    scope = dict(vars(intmat))
    exec(src.replace(old, new), scope)
    return scope["smith_normal_form"]


def test_snf_checks_the_shape_of_d():
    # with the row-t phase skipped, [[1, 2], [3, 4]] ends at D = [[1, 2],
    # [0, 2]] with U m V = D, a D whose diagonal reads as the right one
    skip_row_phase = _snf_variant("if any(a[t][t + 1 :]):", "if False:")
    with pytest.raises(AssertionError, match="SNF shape check failed"):
        skip_row_phase(IntMatrix([[1, 2], [3, 4]]))
    with pytest.raises(AssertionError, match="SNF shape check failed"):
        _snf_variant("if a[t][t] < 0:", "if False:")(IntMatrix([[-2]]))
    assert smith_normal_form(IntMatrix([[1, 2], [3, 4]]))[1] == IntMatrix([[1, 0], [0, 2]])
    # zeros end the diagonal, and a zero pivot raises no ZeroDivisionError
    for d in ([[0, 0], [0, 0]], [[2, 0, 0], [0, 0, 0]], [[1, 0], [0, 3], [0, 0]]):
        assert smith_normal_form(IntMatrix(d))[1] == IntMatrix(d)


def test_cokernel_examples():
    # Z^2 / im[[2,0],[0,3]] = Z/2 + Z/3 = Z/6
    pres = cokernel_group(IntMatrix([[2, 0], [0, 3]]))
    assert pres.group == FinAbGroup(torsion=(6,))
    # Z^2 / im[[1,0],[0,1]] trivial
    assert cokernel_group(IntMatrix.identity(2)).group == FinAbGroup()
    # free part: Z^2 / im of a single column
    pres = cokernel_group(IntMatrix([[1], [0]]))
    assert pres.group == FinAbGroup(free_rank=1)


def test_cokernel_coords_are_classes():
    m = IntMatrix([[2, 0], [0, 4]])
    pres = cokernel_group(m)
    assert pres.group.torsion == (2, 4)
    a = pres.torsion_coords((1, 1))
    b = pres.torsion_coords((1 + 2, 1 + 4))  # shifted by the image lattice
    assert a == b
    assert pres.torsion_coords((0, 0)) == pres.group.zero()


def test_cokernel_invariance_under_unimodular_change():
    m = IntMatrix([[2, 4], [6, 8]])
    g = cokernel_group(m).group
    # post-compose with a unimodular map: same cokernel up to isomorphism
    w = IntMatrix([[1, 1], [0, 1]])
    assert cokernel_group(w * m).group.serialize() == g.serialize()


def test_finab_group_basics():
    g = FinAbGroup(torsion=(2, 4))
    assert g.order == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.scale(2, (1, 2)) == g.zero()
    assert g.scale(2, (0, 1)) != g.zero() and g.scale(4, (0, 1)) == g.zero()
    assert g.serialize() == {"free_rank": 0, "torsion": [2, 4]}
    with pytest.raises(ValueError):
        FinAbGroup(torsion=(4, 2))


def test_solve_integer():
    m = IntMatrix([[2, 0], [0, 3]])
    x = solve_integer(m, (4, 9))
    assert x is not None and m.apply(x) == (4, 9)
    assert solve_integer(m, (1, 0)) is None


def test_kernel_basis():
    m = IntMatrix([[1, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for b in basis:
        assert sum(b) == 0


def test_abelian_subgroup_type():
    g = FinAbGroup(torsion=(2, 4))
    elems = [(a, b) for a in range(2) for b in range(4)]
    t = abelian_subgroup_type(elems, g.add, g.zero())
    assert t == g
    # subgroup {0, (0,2), (1,0), (1,2)} of Z/2 x Z/4 is Klein four
    sub = [(0, 0), (0, 2), (1, 0), (1, 2)]
    t = abelian_subgroup_type(sub, g.add, g.zero())
    assert t == FinAbGroup(torsion=(2, 2))
    # cyclic subgroup generated by (1, 1) has order 4
    sub = [(0, 0), (1, 1), (0, 2), (1, 3)]
    t = abelian_subgroup_type(sub, g.add, g.zero())
    assert t == FinAbGroup(torsion=(4,))


def _seeded_subgroup(rng):
    """A random finite abelian group of order <= 432 and the subgroup of it
    generated by one to three random elements, as an element list."""
    torsion = [rng.choice((2, 3, 4, 5, 6))]
    for _ in range(rng.randint(0, 2)):
        d = torsion[-1] * rng.choice((1, 1, 2, 3))
        if d * prod(torsion) <= 432:
            torsion.append(d)
    g = FinAbGroup(torsion=torsion)
    gens = [tuple(rng.randrange(d) for d in torsion) for _ in range(rng.randint(1, 3))]
    elems, frontier = {g.zero()}, {g.zero()}
    while frontier:
        frontier = {g.add(x, a) for x in frontier for a in gens} - elems
        elems |= frontier
    return g, sorted(elems)


def test_abelian_subgroup_type_matches_the_chain_search():
    rng = random.Random(32)
    types = set()
    for _ in range(400):
        g, elems = _seeded_subgroup(rng)
        t = abelian_subgroup_type(elems, g.add, g.zero())
        assert t == abelian_type_by_chains(elems, g.add, g.zero()), (g, elems)
        assert t.order == len(elems)
        types.add(t.torsion)
    assert len(types) > 40 and max(len(t) for t in types) == 3, types


def test_abelian_subgroup_type_refuses_a_set_that_is_no_group():
    g = FinAbGroup(torsion=(2, 6))
    # two involutions and not their sum: 3 of the 6 elements are killed by 2
    elems = [(0, 0), (1, 0), (0, 3), (0, 2), (0, 4), (1, 2)]
    with pytest.raises(AssertionError, match="not a power of 2"):
        abelian_subgroup_type(elems, g.add, g.zero())
    # an involution and two elements of order 3 in a set of 4: factors 2 * 3
    elems = [(0, 0), (1, 0), (0, 2), (0, 4)]
    with pytest.raises(AssertionError, match="do not multiply to 4"):
        abelian_subgroup_type(elems, g.add, g.zero())


def test_det_bareiss():
    assert IntMatrix([[2, 0], [0, 3]]).det() == 6
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).det() == 0


def test_solve_rational_overdetermined():
    rows = [[1, 2], [3, 4], [5, 6]]
    x = (Fraction(1, 2), Fraction(-1, 3))
    b = [sum(r * v for r, v in zip(row, x)) for row in rows]
    assert solve_rational(rows, b) == x
    with pytest.raises(ValueError, match="inconsistent"):
        solve_rational(rows, [b[0], b[1], b[2] + 1])
    with pytest.raises(ValueError, match="singular"):
        solve_rational([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
