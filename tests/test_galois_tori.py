"""Twisted tori: component groups, the evaluation pairing, and the SL_n
kappa subgroup."""

import random
from itertools import product

import pytest

from liechar.exact_math import (
    Cyclotomic,
    FinAbGroup,
    IntMatrix,
    cokernel_group,
)
from liechar import galois_tori
from liechar.exact_math import intmat
from liechar.galois_tori import (
    TwistedTorus,
    component_group_pi0,
    sln_kappa_group,
    tn_pairing,
)
from reference_lattice import kernel_basis, solve_integer

ONE = Cyclotomic.rational(1)
MINUS_ONE = Cyclotomic.rational(-1)


def _torus(rows):
    m = IntMatrix(rows)
    return TwistedTorus(m.shape[0], m)


# --- TwistedTorus validation ------------------------------------------------


def test_torus_rejects_non_unimodular():
    with pytest.raises(ValueError):
        TwistedTorus(2, IntMatrix([[2, 0], [0, 1]]))


def test_torus_rejects_wrong_shape():
    with pytest.raises(ValueError):
        TwistedTorus(3, IntMatrix([[1, 0], [0, 1]]))


def test_torus_rejects_infinite_order():
    # unipotent shear: unimodular but no finite order
    with pytest.raises(ValueError):
        TwistedTorus(2, IntMatrix([[1, 1], [0, 1]]))


def test_torus_refuses_rank_above_the_root_datum_cap(monkeypatch):
    # the identity has order 1, so only the rank budget can refuse it
    with pytest.raises(ValueError, match="frobenius rank 9 exceeds the budget RANK_BUDGET = 8"):
        TwistedTorus(9, IntMatrix.identity(9))
    assert TwistedTorus(8, IntMatrix.identity(8)).order == 1
    # SL_n data are refused before their (n - 1) x (n - 1) Frobenius is built
    def no_frobenius(n, block_sizes):
        raise AssertionError("Frobenius built")

    monkeypatch.setattr(galois_tori, "_block_frobenius_on_sum_zero", no_frobenius)
    for n, m, degrees in ((300, 2, (150,)), (10**6, 2, (5 * 10**5,))):
        with pytest.raises(ValueError, match=f"rank {n - 1} exceeds the budget RANK_BUDGET = 8"):
            sln_kappa_group(n, m, degrees)


def test_torus_refuses_large_entries_before_the_determinant(monkeypatch):
    def no_det(self):
        raise AssertionError("determinant computed")

    n = 10**300
    big = IntMatrix([[n + 1, n], [1, 1]])
    edge = IntMatrix([[10**6 + 1, 10**6], [1, 1]])
    monkeypatch.setattr(IntMatrix, "det", no_det)
    for m in (big, edge):
        with pytest.raises(
            ValueError, match=r"^frobenius entry exceeds the budget ENTRY_BUDGET = 1000000 in absolute value$"
        ):
            TwistedTorus(2, m)


def test_torus_refuses_a_power_whose_trace_exceeds_the_rank():
    # a finite-order integer matrix has roots of unity as eigenvalues, so
    # |tr F^k| <= rank for every k; [[2, 1], [1, 1]] has trace 3
    with pytest.raises(ValueError, match=r"infinite order: \|tr F\^1\| exceeds the rank 2"):
        TwistedTorus(2, IntMatrix([[2, 1], [1, 1]]))
    # trace -1, but F^2 = [[2, -1], [-1, 1]] has trace 3
    with pytest.raises(ValueError, match=r"infinite order: \|tr F\^2\| exceeds the rank 2"):
        TwistedTorus(2, IntMatrix([[-1, 1], [1, 0]]))
    # a unipotent keeps every trace at the rank: the order budget ends it
    uni = IntMatrix([[1 if i == j else 10**6 * (j > i) for j in range(8)] for i in range(8)])
    with pytest.raises(ValueError, match="frobenius order exceeds the budget FROBENIUS_ORDER_BUDGET = 1000"):
        TwistedTorus(8, uni)


def test_torus_order_found():
    assert _torus([[0, -1], [1, 0]]).order == 4
    assert _torus([[1]]).order == 1
    assert _torus([[-1]]).order == 2


# --- worked component groups ------------------------------------------------


def test_norm_one_torus():
    data = component_group_pi0(_torus([[-1]]))
    assert data.h1.torsion == (2,)
    assert data.invariant_factors == (2,)
    assert tn_pairing(data, (1,), (1,)) == MINUS_ONE
    assert tn_pairing(data, (0,), (1,)) == ONE


def test_split_torus_trivial():
    data = component_group_pi0(_torus([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert data.h1 == FinAbGroup()
    assert data.invariant_factors == ()


def test_induced_swap_trivial():
    data = component_group_pi0(_torus([[0, 1], [1, 0]]))
    assert data.h1 == FinAbGroup()


def test_rotation_order_four():
    data = component_group_pi0(_torus([[0, -1], [1, 0]]))
    assert data.h1.torsion == (2,)
    assert tn_pairing(data, (1,), (1,)) == MINUS_ONE


# --- pairing laws -----------------------------------------------------------


def _klein_data():
    # rotation of order 4 on Z^2 plus a norm-one line: torsion (2, 2)
    f = IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]])
    return component_group_pi0(TwistedTorus(3, f))


def _elements(grp):
    """Every element of a finite FinAbGroup, as torsion coordinates."""
    return list(product(*(range(d) for d in grp.torsion)))


def test_pairing_bilinear_and_perfect():
    data = _klein_data()
    assert data.h1.torsion == (2, 2)
    els = _elements(data.h1)
    for a in els:
        for b in els:
            for k in els:
                lhs = tn_pairing(data, data.h1.add(a, b), k)
                rhs = tn_pairing(data, a, k) * tn_pairing(data, b, k)
                assert lhs == rhs
    # perfect: every nonzero class pairs nontrivially with something
    zero = data.h1.zero()
    for a in els:
        if a == zero:
            continue
        assert any(tn_pairing(data, a, k) != ONE for k in els)
    for k in els:
        if k == zero:
            continue
        assert any(tn_pairing(data, a, k) != ONE for a in els)


# the Frobenius matrices of the query-serve workload's ten lattices
SERVE_LATTICES = [
    [[-1]],
    [[0, 1], [1, 0]],
    [[0, -1], [1, 0]],
    [[0, -1], [1, -1]],
    [[-1, 0], [0, -1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
    [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, -1], [1, 0, 0], [0, 1, 0]],
]


def test_pairing_is_the_product_of_the_coordinate_values():
    # one root of unity at conductor d_k against the product of the
    # zeta_(d_i)^(a_i k_i), in the same stored form, so the printed value
    # and conductor stay the same; every (inv, kappa) of every lattice, and
    # of -1 beside the order-4 cycle of the sum-zero lattice of Z^4, whose
    # factors (2, 4) differ
    factor_sets = set()
    for m in SERVE_LATTICES + [[[-1, 0, 0, 0], [0, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]]:
        data = component_group_pi0(_torus(m))
        factor_sets.add(data.invariant_factors)
        els = _elements(data.h1)
        for inv in els:
            for kappa in els:
                want = Cyclotomic.rational(1)
                for a, k, d in zip(inv, kappa, data.invariant_factors):
                    want = want * Cyclotomic.zeta(d, a * k)
                got = tn_pairing(data, inv, kappa)
                assert (got.n, got.num, got.den) == (want.n, want.num, want.den), (m, inv, kappa)
    # no factors, one, and two that divide each other occur
    assert {(), (2,), (2, 2), (2, 4)} <= factor_sets


def test_pairing_identity_is_one():
    data = _klein_data()
    z = data.h1.zero()
    for k in _elements(data.h1):  # pi0 has the invariant factors of h1
        assert tn_pairing(data, z, k) == ONE


def test_pairing_range_errors():
    data = component_group_pi0(_torus([[-1]]))
    with pytest.raises(ValueError):
        tn_pairing(data, (2,), (0,))
    with pytest.raises(ValueError):
        tn_pairing(data, (0,), (-1,))
    with pytest.raises(ValueError):
        tn_pairing(data, (0, 0), (0,))


def test_cochar_class_coordinates():
    # order-4 cycle on the sum-zero lattice of Z^4 gives Z/4
    f = IntMatrix([[0, 0, -1], [1, 0, -1], [0, 1, -1]])
    data = component_group_pi0(TwistedTorus(3, f))
    assert data.h1.torsion == (4,)
    cls = data.cochar_class((1, 0, 0))
    zero = data.h1.zero()
    assert [m for m in range(1, 5) if data.h1.scale(m, cls) == zero] == [4]


def test_pairing_data_is_cached_on_its_torus(monkeypatch):
    """One Smith form per torus however many pairings it serves, held by the
    torus itself: two tori with the same Frobenius share nothing."""
    snf_calls = []
    snf = intmat.smith_normal_form

    def counting(m):
        snf_calls.append(m)
        return snf(m)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    rows = [[0, 0, -1], [1, 0, -1], [0, 1, -1]]
    first, second = _torus(rows), _torus(rows)
    data = component_group_pi0(first)
    assert len(snf_calls) == 1
    for i in range(100):
        assert component_group_pi0(first) is data
        tn_pairing(component_group_pi0(first), (i % 4,), ((i // 4) % 4,))
    assert len(snf_calls) == 1
    assert any(v is data for v in first.derived.values())
    other = component_group_pi0(second)
    assert other is not data and other.presentation is not data.presentation
    assert len(snf_calls) == 2
    assert not any(v is data for v in second.derived.values())


# --- independent oracle: ker(norm)/im(F - 1) --------------------------------


def _oracle_group(f: IntMatrix, order):
    n = f.shape[0]
    acc = IntMatrix.identity(n)
    p = IntMatrix.identity(n)
    for _ in range(order - 1):
        p = p * f
        acc = acc + p
    ker = kernel_basis(acc)
    if not ker:
        return FinAbGroup()
    kmat = IntMatrix.from_columns([list(k) for k in ker])
    fm1 = f - IntMatrix.identity(n)
    cols = []
    for col in fm1.columns():
        sol = solve_integer(kmat, col)
        assert sol is not None, "im(F - 1) escapes ker(norm)"
        cols.append(list(sol))
    pres = cokernel_group(IntMatrix.from_columns(cols))
    assert pres.group.free_rank == 0
    return FinAbGroup(torsion=pres.group.torsion)


def _random_finite_order(rng, n):
    # signed permutation conjugated by a random unimodular shear product
    perm = list(range(n))
    rng.shuffle(perm)
    cols = []
    for j in range(n):
        col = [0] * n
        col[perm[j]] = rng.choice([1, -1])
        cols.append(col)
    f = IntMatrix.from_columns(cols)
    u = IntMatrix.identity(n)
    uinv = IntMatrix.identity(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        shear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        shear[i][j] = c
        unshear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        unshear[i][j] = -c
        u = u * IntMatrix(shear)
        uinv = IntMatrix(unshear) * uinv
    assert u * uinv == IntMatrix.identity(n)
    return u * f * uinv


def test_oracle_on_worked_examples():
    cases = [
        ([[-1]], (2,)),
        ([[0, -1], [1, 0]], (2,)),
        ([[0, 1], [1, 0]], ()),
        ([[0, 0, -1], [1, 0, -1], [0, 1, -1]], (4,)),
    ]
    for rows, torsion in cases:
        t = _torus(rows)
        assert _oracle_group(t.frobenius, t.order).torsion == torsion


def test_oracle_fifty_random_tori():
    rng = random.Random(20260819)
    for trial in range(50):
        n = rng.randint(1, 5)
        f = _random_finite_order(rng, n)
        torus = TwistedTorus(n, f)
        data = component_group_pi0(torus)
        oracle = _oracle_group(f, torus.order)
        assert data.h1.serialize() == oracle.serialize(), (trial, f.rows)
        # the order of h1, and of its dual pi0, is the torsion determinant
        # of SNF(F - 1)
        prod = 1
        for d in data.invariant_factors:
            prod *= d
        assert data.h1.order == prod


# --- SL_n kappa subgroup ----------------------------------------------------


def test_sln_n2_m2_is_z2():
    grp, wits = sln_kappa_group(2, 2, (1,))
    assert grp.torsion == (2,)
    assert len(wits) == 2
    assert len({cls for _, cls in wits}) == 2


def test_sln_m1_trivial():
    grp, wits = sln_kappa_group(5, 1, (2, 3))
    assert grp == FinAbGroup()
    assert wits == [((0, 0), ())]


def test_sln_n4_m2_two_blocks():
    grp, wits = sln_kappa_group(4, 2, (1, 1))
    assert grp.torsion == (2,)
    assert len(wits) == 4
    assert len({cls for _, cls in wits}) == 2


def test_sln_single_block_full_cycle():
    grp, _ = sln_kappa_group(4, 4, (1,))
    assert grp.torsion == (4,)
    grp, _ = sln_kappa_group(6, 2, (1, 2))
    assert grp.torsion == (2,)


def _partitions(k, largest=None):
    if k == 0:
        yield ()
        return
    if largest is None:
        largest = k
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def test_sln_closure_small_sweep():
    for n in range(1, 7):
        for m in range(1, n + 1):
            if n % m:
                continue
            for degs in _partitions(n // m):
                grp, wits = sln_kappa_group(n, m, degs)
                if m == 1:
                    assert grp == FinAbGroup()
                else:
                    assert grp.torsion == (m,)
                    assert len({c for _, c in wits}) == m


def test_sln_rejects_bad_input():
    with pytest.raises(ValueError):
        sln_kappa_group(4, 3, (1,))
    with pytest.raises(ValueError):
        sln_kappa_group(4, 2, (1, 2))
    with pytest.raises(ValueError):
        sln_kappa_group(4, 2, (0, 2))
    with pytest.raises(ValueError, match=r"^degrees block count 9 exceeds the budget BLOCK_BUDGET = 8$"):
        sln_kappa_group(18, 2, (1,) * 9)
    with pytest.raises(ValueError, match=r"^twist enumeration 5\^8 exceeds the budget TWIST_BUDGET = 100000$"):
        sln_kappa_group(40, 5, (1,) * 8)
    # the budgets' edges: 8 blocks and 10^5 twists are admitted
    assert galois_tori.BLOCK_BUDGET == 8 and galois_tori.TWIST_BUDGET == 10**5
    assert len(sln_kappa_group(8, 1, (1,) * 8)[1]) == 1
    with pytest.raises(ValueError, match=r"^twist enumeration 100001\^1 exceeds the budget TWIST_BUDGET = 100000$"):
        sln_kappa_group(100001, 100001, (1,))
