"""The shared exact algorithms of exact_math: the one-pass inverse over Q,
row reduction over Z/l and its three callers, the bounded prime tests, the
budgeted order search and the generator search."""

import random
from fractions import Fraction
from math import lcm

import pytest

from liechar.dl_spectra import _coords_in_basis, _nullspace_mod
from liechar.exact_math import (
    FiniteField,
    element_order,
    inverse_rational,
    is_prime,
    power,
    prime_factors,
    primitive_element,
    rref_mod,
    solve_rational,
)
from liechar.finite_lie import _quad_ext, build_finite_group
from liechar.exact_math.orders import ORDER_BUDGET
from liechar.exact_math.primes import PRIME_BOUND, TRIAL_BOUND
from liechar.padic import TruncatedMatrix


def inverse_by_columns(rows):
    """rows^-1 as Fraction rows, one solve_rational per column."""
    n = len(rows)
    cols = [solve_rational(rows, [int(i == k) for i in range(n)]) for k in range(n)]
    return [[col[i] for col in cols] for i in range(n)]


def check_inverse(rows):
    den, inv = inverse_rational(rows)
    assert den > 0
    scaled = [[Fraction(x, den) for x in row] for row in inv]
    assert scaled == inverse_by_columns(rows)
    assert den == lcm(1, *(x.denominator for row in scaled for x in row))


def test_inverse_matches_per_column_solves_on_random_matrices():
    rng = random.Random(10)
    done = 0
    while done < 60:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        try:
            inverse_by_columns(rows)
        except ValueError:
            continue
        check_inverse(rows)
        done += 1


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular system"):
        inverse_rational([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular system"):
        inverse_rational([[0, 0, 0], [1, 2, 3], [4, 5, 6]])


def random_matrix(rng, rows, cols, l, rank=None):
    """A random matrix mod l, as a product of two random factors when a rank
    bound is asked for."""
    if rank is None:
        return [[rng.randrange(l) for _ in range(cols)] for _ in range(rows)]
    a = [[rng.randrange(l) for _ in range(rank)] for _ in range(rows)]
    b = [[rng.randrange(l) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a[i][t] * b[t][j] for t in range(rank)) % l for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("l", [2, 3, 5, 7, 101])
def test_rref_mod_pivots_and_null_vectors(l):
    rng = random.Random(l)
    for _ in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        mat = random_matrix(rng, n, m, l, rank=rng.randint(0, min(n, m)))
        a, pivots = rref_mod(mat, l, m)
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert [a[r][c] for r in range(n)] == [int(r == i) for r in range(n)]
        assert not any(x for r in a[len(pivots):] for x in r)
        null = _nullspace_mod(mat, l)
        assert len(null) == m - len(pivots)
        for v in null:
            assert all(sum(x * y for x, y in zip(row, v)) % l == 0 for row in mat)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 101])
def test_coordinates_and_inverse_mod_p_round_trip(l):
    rng = random.Random(100 + l)
    for _ in range(30):
        k = rng.randint(1, 6)
        d = rng.randint(1, k)
        basis = random_matrix(rng, d, k, l)
        if len(rref_mod(basis, l, k)[1]) < d:
            with pytest.raises(AssertionError, match="basis is dependent"):
                _coords_in_basis(basis, [basis[0]], l)
            continue
        coords = [[rng.randrange(l) for _ in range(d)] for _ in range(3)]
        vecs = [[sum(c * b[r] for c, b in zip(cf, basis)) % l for r in range(k)] for cf in coords]
        assert _coords_in_basis(basis, vecs, l) == coords
        if d < k:
            outside = next(
                e for e in ([int(r == j) for r in range(k)] for j in range(k))
                if len(rref_mod(basis + [e], l, k)[1]) > d
            )
            with pytest.raises(AssertionError, match="vector outside the span"):
                _coords_in_basis(basis, [outside], l)
    # the inverse over Z/l^k is rref_mod on [A | I] mod l^k, pivoting on units
    for i in range(40):
        n, k = rng.randint(1, 4), 1 + i % 4
        m = TruncatedMatrix(n, l, k, random_matrix(rng, n, n, l**k))
        if not m.is_invertible():
            with pytest.raises(ZeroDivisionError, match="not invertible modulo p"):
                m.inverse()
            continue
        assert m.mul(m.inverse()) == TruncatedMatrix.identity(n, l, k)
    # a leading entry that is nonzero but not a unit is passed over
    assert TruncatedMatrix(2, l, 2, [[l, 1], [1, 0]]).inverse() == TruncatedMatrix(
        2, l, 2, [[0, 1], [1, -l]]
    )
    # det = l^2: nonzero mod l^3, but singular mod l, and no unit in column 0
    with pytest.raises(ZeroDivisionError, match="not invertible modulo p"):
        TruncatedMatrix(2, l, 3, [[l, 1], [l, 1 + l]]).inverse()


def cofactor_det(rows):
    """The determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def test_truncated_det_is_the_integer_det_mod_p_power():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = TruncatedMatrix(n, 5, 2, [[rng.randrange(25) for _ in range(n)] for _ in range(n)])
        assert m.det() == cofactor_det([list(r) for r in m.rows]) % 25


def test_is_prime_is_exact_and_bounded():
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for i in range(2, 20000):
        if sieve[i]:
            for j in range(i * i, 20000, i):
                sieve[j] = False
    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if sieve[n]]
    # strong pseudoprimes to several small bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    assert not is_prime(PRIME_BOUND + 1)  # even
    with pytest.raises(ValueError, match="PRIME_BOUND"):
        is_prime(2**89 - 1)


def test_prime_factors_trial_bound():
    assert prime_factors(1) == [] and prime_factors(360) == [2, 3, 5]
    assert prime_factors(2 * 3 * (10**18 + 3)) == [2, 3, 10**18 + 3]
    p = 1000003  # both factors above TRIAL_BOUND
    assert p > TRIAL_BOUND and is_prime(p)
    with pytest.raises(ValueError, match="TRIAL_BOUND"):
        prime_factors(p * p)


def test_order_search_budget_is_checked_before_stepping():
    steps = []

    def mul(a, b):
        steps.append(1)
        return a * b % 1000003

    with pytest.raises(ValueError, match="ORDER_BUDGET"):
        element_order(mul, 1, 2, ORDER_BUDGET + 1)
    assert not steps
    assert element_order(lambda a, b: a * b % 7, 1, 3, 6) == 6
    with pytest.raises(AssertionError, match="element order exceeds"):
        element_order(lambda a, b: a * b % 7, 1, 3, 5)
    assert power(lambda a, b: a * b % 101, 1, 3, 100) == 1
    assert power(lambda a, b: a * b % 101, 1, 3, 0) == 1


def _first_of_full_order(mul, identity, candidates, order):
    """The first candidate whose powers, stepped one by one, reach the
    identity only after `order` steps."""
    return next(x for x in candidates if element_order(mul, identity, x, order) == order)


def test_primitive_element_picks_what_each_search_picked():
    # the multiplicative generator of each field: the smallest code of full
    # order
    for p, f in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2)]:
        fld = FiniteField(p, f)
        want = _first_of_full_order(fld._mul_raw, 1, range(1, fld.q), fld.q - 1)
        assert fld.gen == want, (p, f)
        assert primitive_element(fld._mul_raw, 1, range(1, fld.q), fld.q - 1) == want
    # the primitive root of Dixon's modulus: every prime l < 20000
    for l in range(3, 20000, 2):
        if is_prime(l):
            fac = prime_factors(l - 1)
            want = next(g for g in range(2, l) if all(pow(g, (l - 1) // r, l) != 1 for r in fac))
            assert primitive_element(lambda a, b: a * b % l, 1, range(2, l), l - 1) == want, l
    assert primitive_element(lambda a, b: 1, 1, [1], 1) == 1
    # the generator of F_q^2, stepped over the elliptic-torus codes
    for q in (3, 5, 7, 9, 11, 13):
        g = build_finite_group("GL2", q)
        eps = g.field.non_residue
        points = [g.pack([[x, g.field.mul(eps, y)], [y, x]]) for y in range(q) for x in range(q)][2:]
        want = _first_of_full_order(g.mul, g.identity, points, q * q - 1)
        assert _quad_ext(g.field).gen == want, q
    with pytest.raises(AssertionError, match="order 4"):
        primitive_element(lambda a, b: a * b % 5, 1, [1, 4], 4)
