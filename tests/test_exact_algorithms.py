"""The shared exact algorithms of exact_math: the one-pass inverse over Q,
row reduction over F_l and its three callers, the bounded prime tests, the
budgeted order search and the generator search."""

import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from liechar.dl_spectra import _minimal_polynomial
from liechar.exact_math import (
    FiniteField,
    IntMatrix,
    inverse_rational,
    order_from_multiple,
    is_prime,
    power,
    powers,
    prime_factors,
    primitive_element,
    rref_mod,
)
from liechar.finite_lie import build_finite_group, tori_and_regularity
from liechar.exact_math.orders import ORDER_BUDGET
from liechar.exact_math.primes import PRIME_BOUND, TRIAL_BOUND
from liechar.padic import TruncatedMatrix
from reference_lattice import coords_in_basis, solve_rational
from reference_padic import matrix_power, matrix_product


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


def fraction_gauss_jordan(rows, rhs, n):
    """Reference: Gauss-Jordan over Fractions on [rows | rhs], pivot rows
    scaled to 1, on the first n columns. Returns the reduced rows, or the
    library's error text."""
    a = [[Fraction(x) for x in row] + [Fraction(v) for v in extra] for row, extra in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, len(a)) if a[r][col]), None)
        if piv is None:
            return "singular system"
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(len(a)):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return a


def reference_solve(rows, b):
    n = len(rows[0]) if rows else 0
    a = fraction_gauss_jordan(rows, [[v] for v in b], n)
    if isinstance(a, str):
        return a
    if any(a[r][n] for r in range(n, len(a))):
        return "inconsistent system"
    return tuple(a[r][n] for r in range(n))


def reference_inverse(rows):
    n = len(rows)
    a = fraction_gauss_jordan(rows, [[int(i == j) for j in range(n)] for i in range(n)], n)
    return a if isinstance(a, str) else [row[n:] for row in a]


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


# small entries, and now and then entries large enough that the minors pass
# 2^53, so an inexact division would show
entries = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def systems(draw):
    """(rows, b): square or overdetermined, consistent or not, of full
    column rank or singular, with int or Fraction right-hand sides."""
    n = draw(st.integers(0, 6))
    m = n + draw(st.integers(0, 3))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if n >= 2 and draw(st.booleans()):
        # a dependent column makes the system singular
        j, k, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(-3, 3))
        if j != k:
            for row in rows:
                row[j] = c * row[k]
    if draw(st.booleans()):
        x = [draw(fractions) for _ in range(n)]
        b = [sum(r * v for r, v in zip(row, x)) for row in rows]  # consistent
        if m > n and draw(st.booleans()):
            b[-1] += draw(st.sampled_from([1, Fraction(1, 3)]))  # inconsistent if columns are independent
    else:
        b = [draw(st.one_of(st.integers(-9, 9), fractions)) for _ in range(m)]
    return rows, b


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_rational_matches_fraction_gauss_jordan(system):
    rows, b = system
    got = outcome(solve_rational, rows, b)
    assert got == reference_solve(rows, b)
    if not isinstance(got, str):
        assert all(type(v) is Fraction for v in got)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_inverse_rational_matches_fraction_gauss_jordan(system):
    rows, _ = system
    n = len(rows[0]) if rows else 0
    square = rows[:n]
    got = outcome(inverse_rational, square)
    want = reference_inverse(square)
    if isinstance(want, str):
        assert got == want
        return
    den, inv = got
    assert den > 0 and den == lcm(1, *(x.denominator for row in want for x in row))
    assert [[Fraction(x, den) for x in row] for row in inv] == want


def test_solve_rational_scales_a_fraction_right_hand_side():
    # the smallest-conductor solve hands Fractions over; int() would floor them
    assert solve_rational([[2, 0], [0, 3]], [Fraction(1, 2), Fraction(-5, 7)]) == (Fraction(1, 4), Fraction(-5, 21))
    assert solve_rational([[1], [2]], [Fraction(1, 3), Fraction(2, 3)]) == (Fraction(1, 3),)
    with pytest.raises(ValueError, match="inconsistent system"):
        solve_rational([[1], [2]], [Fraction(1, 3), Fraction(1, 3)])


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
    # a column whose first entry is zero takes its pivot from a later row,
    # and a column that is zero below the pivots found takes none
    assert rref_mod([[0, 1, 1], [1, 0, 1]], l, 3) == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    assert rref_mod([[0, 1], [0, 2]], l, 2) == ([[0, 1], [0, 0]], [1])
    # the null vector of the Krylov matrix w, S w, ..., S^k w that Dixon's
    # split reads off its first dependent column: the minimal polynomial of
    # S on w, monic, killing w, of least degree
    for _ in range(40):
        k = rng.randint(1, 6)
        s_mat = random_matrix(rng, k, k, l, rank=rng.randint(0, k))
        krylov = [[rng.randrange(l) for _ in range(k)]]
        for _ in range(k):
            krylov.append([sum(x * y for x, y in zip(row, krylov[-1])) % l for row in s_mat])
        poly = _minimal_polynomial(krylov, l)
        d = len(poly) - 1
        assert poly[-1] == 1
        assert all(sum(c * v[i] for c, v in zip(poly, krylov)) % l == 0 for i in range(k))
        # w, ..., S^(d - 1) w are independent, so no monic polynomial of
        # lower degree kills w
        assert len(rref_mod(krylov[:d], l, k)[1]) == d
    with pytest.raises(AssertionError, match="a Krylov sequence does not close"):
        _minimal_polynomial([[1, 0], [0, 1]], l)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 101])
def test_coordinates_and_inverse_mod_p_round_trip(l):
    rng = random.Random(100 + l)
    for _ in range(30):
        k = rng.randint(1, 6)
        d = rng.randint(1, k)
        basis = random_matrix(rng, d, k, l)
        if len(rref_mod(basis, l, k)[1]) < d:
            with pytest.raises(AssertionError, match="basis is dependent"):
                coords_in_basis(basis, [basis[0]], l)
            continue
        coords = [[rng.randrange(l) for _ in range(d)] for _ in range(3)]
        vecs = [[sum(c * b[r] for c, b in zip(cf, basis)) % l for r in range(k)] for cf in coords]
        assert coords_in_basis(basis, vecs, l) == coords
        if d < k:
            outside = next(
                e for e in ([int(r == j) for r in range(k)] for j in range(k))
                if len(rref_mod(basis + [e], l, k)[1]) > d
            )
            with pytest.raises(AssertionError, match="vector outside the span"):
                coords_in_basis(basis, [outside], l)


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
        det = cofactor_det([list(r) for r in m.rows])
        assert IntMatrix(m.rows).det() % 25 == det % 25
        assert m.is_invertible() == (det % 5 != 0)


def _seeded_square(rng, n):
    """A random n x n integer matrix: full, of lower rank, or with a zero
    leading entry, so that the first column needs a row swap."""
    kind = rng.randrange(3)
    if kind == 1 and n > 1:
        r = rng.randint(1, n - 1)
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == 2:
        rows[0][0] = 0
    return rows


def test_det_is_the_cofactor_det():
    rng = random.Random(32)
    seen = {"singular": 0, "swap": 0, "negative": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = _seeded_square(rng, n)
        det = cofactor_det(rows)
        assert IntMatrix(rows).det() == det, rows
        seen["singular"] += det == 0
        seen["swap"] += rows[0][0] == 0 and det != 0
        seen["negative"] += det < 0
    assert min(seen.values()) >= 20, seen
    assert IntMatrix(()).det() == 1
    # one swap in the first column, and a cycle of three rows (two swaps)
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]).det() == 1
    with pytest.raises(ValueError, match="square"):
        IntMatrix([[1, 2]]).det()


def test_is_invertible_is_the_cofactor_det_mod_p():
    rng = random.Random(33)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n, p = rng.randint(1, 5), rng.choice((2, 3, 5, 7))
        k = rng.randint(1, 3)
        rows = random_matrix(rng, n, n, p**k, rank=rng.choice((None, None, rng.randint(1, n))))
        m = TruncatedMatrix(n, p, k, rows)
        invertible = cofactor_det([list(r) for r in m.rows]) % p != 0
        assert m.is_invertible() == invertible, (p, k, rows)
        seen[invertible] += 1
    assert min(seen.values()) >= 50, seen


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


def _stepped_powers(x, m):
    """[1, x, ..., x^(o - 1)] mod m, o the order of the unit x, stepped
    with pow."""
    out = [1]
    while pow(x, len(out), m) != 1:
        out.append(pow(x, len(out), m))
    return out


def test_powers_is_the_cyclic_group_stepped_one_power_at_a_time():
    for m in (7, 9, 16, 45, 97, 360):
        mul = lambda a, b, m=m: a * b % m
        for x in (x for x in range(1, m) if math.gcd(x, m) == 1):
            walk = powers(mul, 1, x, m)
            assert walk == _stepped_powers(x, m), (m, x)
            assert walk[-1] * x % m == 1, (m, x)


def test_order_from_multiple_matches_the_order_search():
    # every unit mod m, descending from a multiple of its order
    for m in (7, 9, 16, 45, 97, 360):
        mul = lambda a, b, m=m: a * b % m
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        multiple = len(units) * 12
        primes = prime_factors(multiple)
        for x in units:
            assert order_from_multiple(mul, 1, x, multiple, primes) == len(powers(mul, 1, x, m)), (m, x)
    with pytest.raises(AssertionError, match="not a multiple of the order"):
        order_from_multiple(lambda a, b: a * b % 7, 1, 3, 4, [2])
    with pytest.raises(AssertionError, match="not a multiple of the order"):
        order_from_multiple(lambda a, b: a * b % 7, 1, 3, 1, [])


def test_order_search_budget_is_checked_before_stepping():
    steps = []

    def mul(a, b):
        steps.append(1)
        return a * b % 1000003

    with pytest.raises(ValueError, match="ORDER_BUDGET"):
        powers(mul, 1, 2, ORDER_BUDGET + 1)
    assert not steps
    # an order of 6 takes 5 products, and any limit below 6 refuses it
    calls = []
    assert powers(lambda a, b: calls.append(1) or a * b % 7, 1, 3, 6) == [1, 3, 2, 6, 4, 5]
    assert len(calls) == 5
    for limit in (0, 1, 5):
        with pytest.raises(AssertionError, match="element order exceeds"):
            powers(lambda a, b: a * b % 7, 1, 3, limit)
    assert powers(None, 1, 1, 0) == [1]
    assert power(lambda a, b: a * b % 101, 1, 3, 100) == 1
    assert power(lambda a, b: a * b % 101, 1, 3, 0) == 1


def test_power_takes_no_product_with_the_identity_and_no_extra_square():
    # k takes bit_length(k) - 1 squares and popcount(k) - 1 products
    for k, products in [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3), (255, 14), (256, 8)]:
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a * b % 1000003

        assert power(mul, 1, 3, k) == pow(3, k, 1000003), k
        assert len(calls) == products, k
        assert all(1 not in pair for pair in calls), k
    # k = 0 returns the identity object as given, whatever it is
    marker = object()
    assert power(None, marker, 3, 0) is marker
    # a negative k is refused, where the shift loop would never end
    with pytest.raises(ValueError, match="nonnegative exponents only"):
        power(lambda a, b: a * b, 1, 3, -1)
    with pytest.raises(ValueError, match="nonnegative exponents only"):
        TruncatedMatrix(1, 3, 2, [[2]]).pow(-2)


def test_truncated_pow_is_repeated_mul():
    # mul and pow also against reference_padic's product over Z, which
    # shares no code with theirs: n = 2 takes the written-out case, every
    # other n the general one, and k = 64 gives entries of about 240 bits;
    # the second factor of each mul is a matrix that need not commute with m
    rng = random.Random(27)
    cases = [(1, 3, 2), (2, 5, 2), (2, 3, 4), (3, 7, 1)]
    cases += [(n, p, k) for n in (1, 2, 3, 4) for p in (2, 3, 13) for k in (1, 4, 64)]
    for n, p, k in cases:
        mod = p**k
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        other = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        m = TruncatedMatrix(n, p, k, rows)
        assert m.mul(TruncatedMatrix(n, p, k, other)).rows == matrix_product(rows, other, mod), (n, p, k)
        acc = TruncatedMatrix.identity(n, p, k)
        for e in range(21):
            assert m.pow(e) == acc, (n, p, k, e)
            assert acc.rows == matrix_power(rows, e, mod), (n, p, k, e)
            acc = acc.mul(m)


def _first_of_full_order(mul, identity, candidates, order):
    """The first candidate whose powers, stepped one by one, reach the
    identity only after `order` steps."""
    return next(x for x in candidates if len(powers(mul, identity, x, order)) == order)


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
        assert tori_and_regularity(g)[1].unit_points == (want,), q
    with pytest.raises(AssertionError, match="order 4"):
        primitive_element(lambda a, b: a * b % 5, 1, [1, 4], 4)
