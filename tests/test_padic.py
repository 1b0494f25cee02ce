"""Tests for truncated p-adic matrices, the topological Jordan split,
quasi-logarithm bijectivity at finite precision, and Hilbert symbols."""

import contextlib
import io
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import reference_padic as ref
from liechar.cli import main
from liechar.exact_math import IntMatrix, is_prime
from liechar.padic import (
    DiagQuadForm,
    TruncatedMatrix,
    _qlog_sets,
    hasse_invariant,
    hilbert_symbol,
    order_multiple,
    quasi_log_bijection_check,
    relevant_places,
    topological_jordan,
)


def rand_invertible(rng, n, p, k):
    mod = p**k
    while True:
        m = TruncatedMatrix(
            n, p, k, [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        )
        if m.is_invertible():
            return m


def _mod_p(m):
    """The reduction of m modulo p."""
    return TruncatedMatrix(m.n, m.p, 1, m.rows)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_matrix_ring_basics():
    m = TruncatedMatrix(2, 5, 3, [[126, 1], [0, 1]])
    # entries live mod 125
    assert m.rows == ((1, 1), (0, 1))
    i = TruncatedMatrix.identity(2, 5, 3)
    assert m.mul(i) == m and i.mul(m) == m
    assert m.pow(0) == i
    assert m.pow(3) == m.mul(m).mul(m)


def test_det_and_invertibility():
    m = TruncatedMatrix(3, 3, 2, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    # det = 1*(1-0) - 2*(0-1) = 3, zero mod 3
    assert IntMatrix(m.rows).det() == 3
    assert not m.is_invertible()
    m2 = TruncatedMatrix(2, 7, 2, [[7, 1], [1, 0]])
    # reduction [[0,1],[1,0]] has det -1, a unit
    assert m2.is_invertible()


def test_hensel_inverse():
    rng = random.Random(3)
    for p, k, n in [(3, 4, 2), (5, 3, 3), (7, 2, 4)]:
        ident = TruncatedMatrix.identity(n, p, k)
        for _ in range(5):
            m = rand_invertible(rng, n, p, k)
            inv = m.inverse()
            assert m.mul(inv) == ident
            assert inv.mul(m) == ident


def test_inverse_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        TruncatedMatrix(2, 3, 3, [[3, 0], [0, 1]]).inverse()


def test_mixed_rings_rejected():
    a = TruncatedMatrix.identity(2, 3, 2)
    b = TruncatedMatrix.identity(2, 3, 3)
    with pytest.raises(ValueError):
        a.mul(b)


@pytest.mark.parametrize(
    "n,p,k,rows",
    [
        (2, 5, 2, [[1.5, True], ["4", 1]]),
        (2, 5, 2, [[1.0, 0], [0, 1]]),
        (2, 5, 2, [[True, 0], [0, 1]]),
        (2, 5, 2, [["4", 0], [0, 1]]),
        (2, 5, 2, [[1, 0], [0]]),
        (2, 4, 2, [[1, 0], [0, 1]]),
        (2, 5.0, 2, [[1, 0], [0, 1]]),
        (2, 5, 0, [[1, 0], [0, 1]]),
        (2, 5, 2.0, [[1, 0], [0, 1]]),
        (0, 5, 2, []),
    ],
)
def test_constructor_refuses_inexact_or_malformed_input(n, p, k, rows):
    with pytest.raises(ValueError):
        TruncatedMatrix(n, p, k, rows)


def test_constructor_refuses_the_empty_matrix_and_admits_n_1():
    with pytest.raises(ValueError, match=r"^rows must form an n x n matrix with n >= 1$"):
        TruncatedMatrix(0, 5, 2, [])
    assert TruncatedMatrix(1, 5, 2, [[7]]).rows == ((7,),)


def test_arithmetic_results_stay_reduced():
    m = TruncatedMatrix(2, 3, 2, [[8, 4], [-1, 5]])
    assert m.rows == ((8, 4), (8, 5))
    for r in (m.mul(m), m.pow(5), m.inverse()):
        assert all(type(x) is int and 0 <= x < 9 for row in r.rows for x in row)
        assert r == TruncatedMatrix(2, 3, 2, r.rows)


# ---------------------------------------------------------------------------
# topological Jordan decomposition


def test_tjd_identity_trivial():
    i = TruncatedMatrix.identity(2, 3, 4)
    assert topological_jordan(i) == (i, i)


def test_tjd_gl1_mod_25():
    # 2 has order 4 mod 5, so N = 4 * 5 = 20 and delta = 2^e with e = 1
    # mod 4 and e = 0 mod 5: delta = 2^5 = 32 = 7 mod 25, and
    # u = 7^(-1) * 2 = 18 * 2 = 36 = 11 mod 25
    g = TruncatedMatrix(1, 5, 2, [[2]])
    delta, u = topological_jordan(g)
    assert delta.rows == ((7,),)
    assert u.rows == ((11,),)
    assert pow(7, 4, 25) == 1
    assert pow(11, 5, 25) == 1


def test_tjd_finite_order_prime_to_p():
    refl = TruncatedMatrix(2, 3, 4, [[0, 1], [1, 0]])
    delta, u = topological_jordan(refl)
    assert delta == refl
    assert u == TruncatedMatrix.identity(2, 3, 4)


def test_tjd_rejects_singular_and_deep_precision():
    with pytest.raises(ValueError):
        topological_jordan(TruncatedMatrix(2, 3, 4, [[3, 0], [0, 1]]))
    with pytest.raises(ValueError):
        topological_jordan(TruncatedMatrix.identity(1, 3, 65))


def test_tjd_refuses_the_order_budget_before_the_determinant(monkeypatch):
    # 3^40 - 1 is past ORDER_BUDGET: the refusal comes before the question
    # of invertibility, so a singular matrix gets it too
    def no_rank(self):
        raise AssertionError("invertibility decided before the order budget was checked")

    monkeypatch.setattr(TruncatedMatrix, "is_invertible", no_rank)
    rng = random.Random(40)
    rows = [[rng.randrange(3) for _ in range(40)] for _ in range(40)]
    for m in (TruncatedMatrix(40, 3, 1, rows), TruncatedMatrix(40, 3, 1, [[0] * 40] * 40)):
        with pytest.raises(ValueError, match=f"order bound {3**40 - 1} exceeds the budget ORDER_BUDGET"):
            topological_jordan(m)


def test_precision_cap_is_checked_by_the_constructor():
    with pytest.raises(ValueError, match="precision"):
        TruncatedMatrix(1, 3, 65, [[2]])
    with pytest.raises(ValueError, match="^precision k = 10000000 exceeds the budget PRECISION_BUDGET = 64$"):
        TruncatedMatrix(1, 3, 10**7, [[2]])
    assert TruncatedMatrix(1, 3, 64, [[2]]).mod == 3**64


def test_precision_refusal_writes_a_long_k_by_its_digit_count():
    # past 64 digits k is written by its digit count: str() refuses an int
    # past 4300 digits, and a message must not
    for k, text in [
        (10**64 - 1, "k = " + "9" * 64),
        (10**64, "k = <65 digits>"),
        (2**20000, "k = <6021 digits>"),
        (10**5000 - 1, "k = <5000 digits>"),
        (10**5000, "k = <5001 digits>"),
    ]:
        with pytest.raises(ValueError) as err:
            TruncatedMatrix(1, 3, k, [[2]])
        assert str(err.value) == f"precision {text} exceeds the budget PRECISION_BUDGET = 64"


def _mult_order(m, ident, bound):
    acc = m
    for r in range(1, bound + 1):
        if acc == ident:
            return r
        acc = acc.mul(m)
    raise AssertionError("no order found")


@pytest.mark.parametrize("p,k", [(3, 4), (5, 4)])
def test_tjd_random_posts(p, k):
    rng = random.Random(100 * p + k)
    ident = TruncatedMatrix.identity(2, p, k)
    for _ in range(100):
        g = rand_invertible(rng, 2, p, k)
        delta, u = topological_jordan(g)
        assert delta.mul(u) == g
        assert u.mul(delta) == g
        r = _mult_order(delta, ident, p**k * 100)
        assert r % p != 0
        # u is topologically unipotent: repeated p-th powers reach 1
        acc = u
        for _ in range(k + 8):
            if acc == ident:
                break
            acc = acc.pow(p)
        assert acc == ident
        # uniqueness within the cyclic group generated by delta: any other
        # finite-order candidate leaves a non-unipotent cofactor
        cand = ident
        hits = 0
        for _ in range(r):
            u2 = cand.inverse().mul(g)
            red = _mod_p(u2)
            tr = sum(red.rows[i][i] for i in range(red.n)) % p
            det = IntMatrix(red.rows).det() % p
            if tr == 2 % p and det == 1 % p:
                hits += 1
                assert cand == delta
            cand = cand.mul(delta)
        assert hits == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tjd_gl1_uniqueness_exhaustive(p):
    # in (Z/p^4)* every element has a unique split into a part of order
    # prime to p and a part that is 1 mod p; confirm by full enumeration
    k = 4
    mod = p**k
    units = [x for x in range(1, mod) if x % p]
    prime_to_p = []
    for d in units:
        r = 1
        acc = d
        while acc != 1:
            acc = acc * d % mod
            r += 1
        if r % p:
            prime_to_p.append((d, pow(d, -1, mod)))
    for g in units:
        delta, u = topological_jordan(TruncatedMatrix(1, p, k, [[g]]))
        found = [
            (d, dinv * g % mod)
            for d, dinv in prime_to_p
            if dinv * g % p == 1
        ]
        assert found == [(delta.rows[0][0], u.rows[0][0])]


def _power_iteration_jordan(gamma):
    """The split as the limit of gamma^(p^t), t the order of p modulo the
    prime-to-p part r of the reduction's order: the construction
    topological_jordan used before the one CRT power, kept as a reference."""
    p, n, k = gamma.p, gamma.n, gamma.k
    red = _mod_p(gamma)
    ident1 = TruncatedMatrix.identity(n, p, 1)
    order, acc = 1, red
    while acc != ident1:
        acc = acc.mul(red)
        order += 1
    r = order
    while r % p == 0:
        r //= p
    t, acc = 1, p % r
    while r > 1 and acc != 1:
        acc = acc * p % r
        t += 1
    cur = gamma
    for _ in range(k + 8):
        nxt = cur.pow(p**t)
        if nxt == cur:
            break
        cur = nxt
    else:
        raise AssertionError("power iteration did not stabilize")
    return cur, cur.inverse().mul(gamma)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tjd_matches_power_iteration(n, p):
    rng = random.Random(1000 * n + p)
    for k in range(1, 5):
        for _ in range(12 if n < 3 else 3):
            g = rand_invertible(rng, n, p, k)
            assert topological_jordan(g) == _power_iteration_jordan(g)
        # times the scalar 1 + p, of order p^(k-1) mod p^k for odd p, the
        # unipotent part usually reaches the largest order that N allows
        scalar = [[1 + p if i == j else 0 for j in range(n)] for i in range(n)]
        g = rand_invertible(rng, n, p, k).mul(TruncatedMatrix(n, p, k, scalar))
        assert topological_jordan(g) == _power_iteration_jordan(g)


def _jordan_block_conjugate(rng, n, p, k):
    """h J h^-1 for J the n x n Jordan block at a random unit: its reduction
    has a unipotent part of order p^c, the least p-power >= n."""
    mod = p**k
    lam = rng.choice([x for x in range(1, mod) if x % p])
    block = TruncatedMatrix(n, p, k, [[lam if i == j else int(j == i + 1) for j in range(n)] for i in range(n)])
    h = rand_invertible(rng, n, p, k)
    return h.mul(block).mul(h.inverse())


def test_order_multiple_is_a_multiple_of_every_order():
    # every element of GL_2(Z/4), GL_2(Z/9) and GL_3(Z/2): N kills it
    for n, p, k in [(2, 2, 2), (2, 3, 2), (3, 2, 1)]:
        mod, big = p**k, order_multiple(n, p, k)
        for entries in itertools.product(range(mod), repeat=n * n):
            g = TruncatedMatrix(n, p, k, [entries[i * n:(i + 1) * n] for i in range(n)])
            if g.is_invertible():
                assert g.pow(big) == TruncatedMatrix.identity(n, p, k), (n, p, k, entries)
    # L = lcm(p^d - 1, d <= n) times p^(c + k - 1), p^c the least p-power >= n
    assert order_multiple(1, 2, 1) == 1
    assert order_multiple(3, 2, 4) == 21 * 2**5
    assert order_multiple(2, 7, 3) == 48 * 7**3


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_tjd_matches_the_order_search_reference(p):
    # the reference finds the reduction's order by a linear search and
    # inverts delta by row reduction; a Jordan-block conjugate has the
    # largest unipotent part the order multiple must cover
    rng = random.Random(500 + p)
    for n in range(1, 5):
        for k in range(1, 6):
            cases = [rand_invertible(rng, n, p, k) for _ in range(4 if n < 3 else 1)]
            if n > 1:
                cases.append(_jordan_block_conjugate(rng, n, p, k))
            for g in cases:
                assert topological_jordan(g) == ref.topological_jordan(g), (n, p, k, g)


def _tjd_document(g):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["tjd", "--p", str(g.p), "--k", str(g.k), "--matrix", json.dumps(g.rows)]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tjd_order_r_matches_the_linear_order_search(p):
    rng = random.Random(600 + p)
    for n in range(1, 5 if p < 5 else 4):
        for k in range(1, 4):
            cases = [rand_invertible(rng, n, p, k)]
            if n > 1:
                cases.append(_jordan_block_conjugate(rng, n, p, k).mul(rand_invertible(rng, n, p, k)))
            for g in cases:
                delta, u = ref.topological_jordan(g)
                doc = _tjd_document(g)
                assert (doc["delta"], doc["u"]) == ([list(r) for r in delta.rows], [list(r) for r in u.rows])
                assert doc["order_r"] == ref.delta_order(delta), (n, p, k, g)


def _rational_at(rng, v):
    """A random nonzero rational whose valuation at the prime v is in
    [-3, 3], so both parities of each valuation occur."""
    x = Fraction(rng.choice((1, -1)) * rng.randint(1, 400), rng.randint(1, 300))
    return x * Fraction(v) ** rng.randint(-3, 3)


def test_hilbert_matches_the_fraction_reference():
    rng = random.Random(31)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 1009, 10007]
    for _ in range(10000):
        v = rng.choice(primes)
        a, b = _rational_at(rng, v), _rational_at(rng, v)
        want = ref.hilbert_symbol(a, b, v)
        assert hilbert_symbol(a, b, v) == want, (a, b, v)
        # the same place as decimal digits, and the same arguments as text
        assert hilbert_symbol(str(a), str(b), "0" + str(v)) == want, (a, b, v)
        assert hilbert_symbol(a, b, "inf") == ref.hilbert_symbol(a, b, "inf")
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a and b:
                for v in ("inf", 2, 3, 5, 7, 11):
                    assert hilbert_symbol(a, b, v) == ref.hilbert_symbol(a, b, v), (a, b, v)


def test_tjd_conjugation_equivariance():
    rng = random.Random(42)
    for p, k in [(3, 4), (5, 3)]:
        for _ in range(20):
            g = rand_invertible(rng, 2, p, k)
            h = rand_invertible(rng, 2, p, k)
            hinv = h.inverse()
            delta, u = topological_jordan(g)
            d2, u2 = topological_jordan(h.mul(g).mul(hinv))
            assert d2 == h.mul(delta).mul(hinv)
            assert u2 == h.mul(u).mul(hinv)


# ---------------------------------------------------------------------------
# quasi-logarithm bijectivity at finite precision


def test_qlog_sl2_p3_k1():
    rep = quasi_log_bijection_check("SL2", 3, 1)
    assert rep["unipotent_count"] == 9
    assert rep["nilpotent_count"] == 9
    assert rep["pass"]


def test_qlog_sl2_p3_k2():
    rep = quasi_log_bijection_check("SL2", 3, 2)
    # 9 unipotents mod 3, each with 3^3 lifts per extra digit
    assert rep["unipotent_count"] == 9 * 27
    assert rep["nilpotent_count"] == 9 * 27
    assert rep["identity_to_zero"]
    assert rep["pass"]


def test_qlog_sl2_p5_k1():
    rep = quasi_log_bijection_check("SL2", 5, 1)
    assert rep["unipotent_count"] == 25
    assert rep["pass"]


def test_qlog_gl2():
    rep = quasi_log_bijection_check("GL2", 3, 1)
    assert rep["unipotent_count"] == 9
    assert rep["pass"]


def test_qlog_guards():
    with pytest.raises(ValueError):
        quasi_log_bijection_check("SL2", 2, 1)
    with pytest.raises(ValueError, match=r"^enumeration 7\^9 exceeds the budget _QL_BUDGET = 10000000$"):
        quasi_log_bijection_check("SL2", 7, 3)
    with pytest.raises(ValueError, match=r"^enumeration 3\^16 exceeds the budget _QL_BUDGET = 10000000$"):
        quasi_log_bijection_check("GL2", 3, 4)
    with pytest.raises(ValueError):
        quasi_log_bijection_check("E8", 3, 1)
    # p > 2, so an exponent k dim at the budget's bit length or past it is
    # refused before p^(k dim) is formed (3^(3 10^7) took 14 s), and an
    # exponent of 10^64 or more is written by its digit count
    for k, exponent in ((5, "15"), (10**7, "30000000"), (10**5000, "<5001 digits>")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^enumeration 3\^{exponent} exceeds the budget _QL_BUDGET = 10000000$"):
            quasi_log_bijection_check("SL2", 3, k)
        assert time.perf_counter() - start < 1
    # Z/p^0 is no ring, and a negative, fractional or bool precision is no
    # precision: each is refused with the constructor's text, before the
    # budget is computed from it
    for kind in ("SL2", "GL2"):
        for k in (0, -1, 1.5, True, False, "1"):
            with pytest.raises(ValueError, match="^precision must be a positive integer$"):
                quasi_log_bijection_check(kind, 3, k)
    with pytest.raises(ValueError, match="^precision must be a positive integer$"):
        TruncatedMatrix(1, 3, 0, [[1]])
    # a p that is not an int is refused as the constructor refuses it, not
    # with a TypeError from the primality test
    for p in (3.0, "3", True):
        with pytest.raises(ValueError, match="^p must be prime$"):
            quasi_log_bijection_check("SL2", p, 1)


def _brute_qlog_sets(kind, p, k):
    """(unipotents, nilpotents) by their definitions, filtered from all
    p^(dim k) tuples: determinant 1 mod p^k (SL2 only) and trace 2 mod p for
    a unipotent reduction; characteristic polynomial x^2 mod p, that is
    trace and determinant 0 mod p, for a nilpotent one."""
    mod = p**k
    entries = range(mod)

    def unipotent(a, b, c, d):
        det = a * d - b * c
        if kind == "SL2":
            return det % mod == 1 and (a + d - 2) % p == 0
        # over F_p: char poly (x - 1)^2, so trace 2 and determinant 1
        return (a + d - 2) % p == 0 and (det - 1) % p == 0

    uni = {g for g in itertools.product(entries, repeat=4) if unipotent(*g)}
    if kind == "SL2":
        nil = {t for t in itertools.product(entries, repeat=3) if (t[0] * t[0] + t[1] * t[2]) % p == 0}
    else:
        nil = {
            t for t in itertools.product(entries, repeat=4)
            if (t[0] + t[3]) % p == 0 and (t[0] * t[3] - t[1] * t[2]) % p == 0
        }
    return uni, nil


@pytest.mark.parametrize("kind", ["SL2", "GL2"])
@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_qlog_sets_are_their_definitions(kind, p, k):
    uni, nil = _qlog_sets(kind, p, k)
    want_uni, want_nil = _brute_qlog_sets(kind, p, k)
    assert len(uni) == len(set(uni)) and set(uni) == want_uni
    assert len(nil) == len(set(nil)) and set(nil) == want_nil


def _admitted(dim, budget):
    """Every (p, k), p an odd prime and k >= 1, with p^(dim k) <= budget."""
    for p in range(3, int(budget ** (1 / dim)) + 2, 2):
        k = 1
        while is_prime(p) and p ** (dim * k) <= budget:
            yield p, k
            k += 1


def test_qlog_counts_are_the_closed_forms():
    # p^2 nilpotent (or unipotent) reductions, each with p^(dim (k - 1))
    # lifts: p^(3k - 1) for SL2 and p^(4k - 2) for GL2
    for kind, dim in (("SL2", 3), ("GL2", 4)):
        for p, k in _admitted(dim, 10**6):
            rep = quasi_log_bijection_check(kind, p, k)
            want = p ** (dim * k - dim + 2)
            assert (rep["unipotent_count"], rep["nilpotent_count"]) == (want, want), (kind, p, k)
            assert rep["pass"], (kind, p, k)


# ---------------------------------------------------------------------------
# Hilbert symbol and Hasse invariant


@pytest.mark.parametrize("v", ["inf", 2, 3, 5, 7])
def test_hilbert_one_is_trivial(v):
    for b in [Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-1, 6)]:
        assert hilbert_symbol(1, b, v) == 1


def test_hilbert_pinned_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    # 3^2 = 2 mod 7, so 2 is a square unit at 7
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(2, 2, "inf") == 1


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 5)


@pytest.mark.parametrize("place", ["x", "4", "-5", " 5", "5.0", "", "1_3", 4, 1])
def test_hilbert_refuses_every_bad_place_with_one_text(place):
    with pytest.raises(ValueError, match=r"^place must be a prime or 'inf'$"):
        hilbert_symbol(2, 3, place)


_BOUND_TEXT = "is decided only below PRIME_BOUND = 3317044064679887385961981"


@pytest.mark.parametrize(
    "place,digits",
    [
        ("2" + "0" * 25, 26),
        (str(10**30 + 57), 31),
        ("1" * 4300, 4300),
        ("1" * 5000, 5000),
        ("0" + "1" * 4300, 4300),
    ],
    ids=["even-26", "no-small-factor-31", "4300", "5000", "4300-after-a-zero"],
)
def test_hilbert_refuses_a_place_longer_than_prime_bound_before_converting_it(place, digits):
    # PRIME_BOUND has 25 digits, and no place at or above it is admitted; a
    # longer one is refused by its digit count, never by int()'s 4300-digit
    # conversion limit, and never printed whole
    with pytest.raises(ValueError) as info:
        hilbert_symbol(2, 3, place)
    assert str(info.value) == f"primality of a {digits}-digit place {_BOUND_TEXT}"


def test_hilbert_counts_a_place_without_its_leading_zeros():
    # 25 significant digits still reach is_prime, which names the number
    with pytest.raises(ValueError) as info:
        hilbert_symbol(2, 3, "0" * 10 + "3317044064679887385961981")
    assert str(info.value) == f"primality of 3317044064679887385961981 {_BOUND_TEXT}"
    for a, b in ((2, 3), (-1, -1), (5, 7)):
        assert hilbert_symbol(a, b, "0" * 5000 + "7") == hilbert_symbol(a, b, 7)
        # Arabic-Indic zeros are leading zeros too
        assert hilbert_symbol(a, b, "\u0660" * 30 + "7") == hilbert_symbol(a, b, 7)


def test_hilbert_reads_a_decimal_place():
    for v in (2, 3, 5, 7):
        for a, b in ((2, 3), (-1, -1), (5, 7)):
            assert hilbert_symbol(a, b, str(v)) == hilbert_symbol(a, b, v)


def test_hilbert_symmetric_and_bimultiplicative():
    rng = random.Random(19)
    for _ in range(60):
        a = Fraction(rng.randrange(1, 50)) * rng.choice([1, -1])
        b = Fraction(rng.randrange(1, 50)) * rng.choice([1, -1])
        c = Fraction(rng.randrange(1, 50)) * rng.choice([1, -1])
        for v in ["inf", 2, 3, 5, 7]:
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * b, c, v) == hilbert_symbol(
                a, c, v
            ) * hilbert_symbol(b, c, v)


def test_hilbert_reciprocity():
    rng = random.Random(23)
    for _ in range(200):
        a = Fraction(rng.randrange(-60, 61) or 1, rng.randrange(1, 40))
        b = Fraction(rng.randrange(-60, 61) or 1, rng.randrange(1, 40))
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_hasse_pinned_values():
    ones = DiagQuadForm([1, 1, 1, 1])
    for v in ["inf", 2, 3, 5]:
        assert hasse_invariant(ones, v) == 1
    assert hasse_invariant(DiagQuadForm([-1, -1]), 2) == -1
    assert hasse_invariant(DiagQuadForm([2, 7]), 7) == 1


def test_hasse_square_scaling_invariance():
    rng = random.Random(29)
    for _ in range(40):
        cs = [Fraction(rng.randrange(1, 30)) * rng.choice([1, -1]) for _ in range(3)]
        scaled = [c * rng.randrange(1, 10) ** 2 for c in cs]
        for v in ["inf", 2, 3, 5, 7, 11]:
            assert hasse_invariant(DiagQuadForm(cs), v) == hasse_invariant(
                DiagQuadForm(scaled), v
            )


def test_diag_form_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        DiagQuadForm([1, 0, 2])
