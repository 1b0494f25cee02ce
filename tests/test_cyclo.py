from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st
from reference_cyclo import Cyclotomic as RefCyclotomic, smallest_conductor_by_search

from liechar.exact_math import Cyclotomic, smallest_conductor
from liechar.exact_math.cyclo import CONDUCTOR_BUDGET, _phi_terms


def _cyc(n, coeffs, den=1):
    """Cyclotomic(n, coeffs, den) for int or Fraction coefficients, which
    the constructor does not take: the coefficients times the lcm m of their
    denominators are the numerators, over den * m."""
    coeffs = {e: Fraction(v) for e, v in coeffs.items()}
    m = lcm(1, *(v.denominator for v in coeffs.values()))
    return Cyclotomic(n, {e: v.numerator * (m // v.denominator) for e, v in coeffs.items()}, den * m)


def _at(v, m):
    """v stored at conductor m, a multiple of v.n: zeta_n^e = zeta_m^(e m / n)."""
    assert m % v.n == 0
    return Cyclotomic(m, {e * (m // v.n): c for e, c in v.num.items()}, v.den)


def test_phi_polynomials():
    assert _phi_terms(1)[0] == (-1, 1)
    assert _phi_terms(2)[0] == (1, 1)
    assert _phi_terms(3)[0] == (1, 1, 1)
    assert _phi_terms(4)[0] == (1, 0, 1)
    assert _phi_terms(6)[0] == (1, -1, 1)
    assert _phi_terms(12)[0] == (1, 0, -1, 0, 1)


def _divisor_product(n):
    """prod over d | n of Phi_d, by plain products of sparse polynomials."""
    out = {0: 1}
    for d in range(1, n + 1):
        if n % d == 0:
            phi = [(j, c) for j, c in enumerate(_phi_terms(d)[0]) if c]
            prod = {}
            for i, a in out.items():
                for j, b in phi:
                    prod[i + j] = prod.get(i + j, 0) + a * b
            out = {e: c for e, c in prod.items() if c}
    return out


def test_phi_divisor_product_is_x_to_the_n_minus_one():
    for n in [*range(1, 401), 2184, 4620]:
        assert _divisor_product(n) == {0: -1, n: 1}, n


def test_zeta4_squared_is_minus_one():
    i = Cyclotomic.zeta(4)
    assert i * i == Cyclotomic.rational(-1)
    assert i * i == -1


def test_zeta3_sum_vanishes():
    z = Cyclotomic.zeta(3)
    assert (1 + z + z * z) == 0


def test_zeta6_equals_one_plus_zeta3():
    # both are primitive 6th roots: zeta_6 = -zeta_3^2 = 1 + zeta_3
    z6 = Cyclotomic.zeta(6)
    z3 = Cyclotomic.zeta(3)
    assert z6 == Cyclotomic.rational(1) + z3
    # and it satisfies Phi_6
    assert (z6 * z6 - z6 + 1) == 0


def test_cross_conductor_equality():
    assert Cyclotomic.zeta(4, 2) == Cyclotomic.zeta(2, 1)
    assert Cyclotomic.zeta(8, 4) == -1
    assert Cyclotomic.zeta(5) != Cyclotomic.zeta(7)


def test_conjugate_and_abs2():
    z = Cyclotomic.zeta(5)
    assert Cyclotomic.hermitian_sum([1], [Cyclotomic.rational(1)], [z]) == Cyclotomic.zeta(5, 4)
    # |zeta| = 1
    assert Cyclotomic.hermitian_sum([1], [z], [z]) == 1
    # |1 + zeta_4|^2 = 2
    x = 1 + Cyclotomic.zeta(4)
    assert Cyclotomic.hermitian_sum([1], [x], [x]) == 2


def test_rational_detection():
    z = Cyclotomic.zeta(3)
    s = z + Cyclotomic.zeta(3, 2)  # = -1
    assert s.rational_value() == -1
    with pytest.raises(ValueError, match="not a rational value"):
        z.rational_value()
    half = Cyclotomic.rational(Fraction(1, 2))
    assert half.rational_value() == Fraction(1, 2)


def _order(x, bound):
    """Multiplicative order of x if it is at most bound, else None."""
    y = x
    for m in range(1, bound + 1):
        if y == 1:
            return m
        y = y * x
    return None


def test_as_root_of_unity():
    # each value is zeta_m^k with gcd(k, m) = 1 at a smaller conductor m,
    # and has order exactly m
    assert Cyclotomic.zeta(12, 3) == Cyclotomic.zeta(4, 1)
    assert _order(Cyclotomic.zeta(12, 3), 12) == 4
    assert Cyclotomic.rational(1) == Cyclotomic.zeta(1, 0)
    assert _order(Cyclotomic.rational(1), 2) == 1
    assert Cyclotomic.rational(-1) == Cyclotomic.zeta(2, 1)
    assert _order(Cyclotomic.rational(-1), 2) == 2
    assert Cyclotomic.zeta(3) + 1 == Cyclotomic.zeta(6, 1)
    assert _order(Cyclotomic.zeta(3) + 1, 6) == 6
    # 2 is no root of unity: |2|^2 = 4 != 1
    two = Cyclotomic.rational(2)
    assert Cyclotomic.hermitian_sum([1], [two], [two]) == 4
    assert _order(two, 12) is None


small_cyclo = st.builds(
    lambda n, pairs: _cyc(n, {e: Fraction(c) for e, c in pairs}),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.lists(st.tuples(st.integers(0, 11), st.integers(-3, 3)), max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(small_cyclo, small_cyclo, small_cyclo)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=60, deadline=None)
@given(small_cyclo, small_cyclo)
def test_norm_multiplicative(a, b):
    def abs2(x):
        return Cyclotomic.hermitian_sum([1], [x], [x])

    assert abs2(a * b) == abs2(a) * abs2(b)


def test_gauss_sum_square():
    # classical: (sum of legendre(t) zeta_p^t)^2 = (-1)^((p-1)/2) p
    for p in (3, 5, 7, 11):
        g = Cyclotomic.zero()
        for t in range(1, p):
            leg = pow(t, (p - 1) // 2, p)
            sign = 1 if leg == 1 else -1
            g = g + sign * Cyclotomic.zeta(p, t)
        target = p if p % 4 == 1 else -p
        assert g * g == target


def test_smallest_conductor_examples():
    # zeta_10 = -zeta_5^3
    z10 = Cyclotomic.zeta(10)
    assert smallest_conductor(z10) == (5, [0, 0, 0, -1])
    # i written in conductor 24
    i24 = _at(Cyclotomic.zeta(4), 24)
    assert smallest_conductor(i24) == (4, [0, 1])
    # sqrt(-3) = 2 zeta_3 + 1, written in conductor 12
    s = _at(Cyclotomic.zeta(3) * 2 + 1, 12)
    assert smallest_conductor(s) == (3, [1, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 7, 8, 9, 12]),
    st.integers(1, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=12),
)
def test_smallest_conductor_roundtrip(d, m, coeffs):
    v = Cyclotomic(d, dict(enumerate(coeffs)))
    n = d * m
    e, red = smallest_conductor(_at(v, n))
    assert d % e == 0 and e % 4 != 2
    assert _cyc(e, dict(enumerate(red))) == v
    assert red == _cyc(e, dict(enumerate(red))).reduced()


def _conductor_text(d, coeffs):
    """The text of a value, not rational, at its smallest conductor d with
    these coefficients."""
    return f"cyc{d}[" + ",".join(str(c) for c in coeffs) + "]"


@st.composite
def sums_at_divisors(draw):
    """A sum of up to three values at divisors of n <= 420, each over a
    denominator, written at conductor n: as the sum's stored form, or as
    its reduction modulo Phi_n, which spreads a value of a smaller field
    over exponents prime to n."""
    n = draw(st.integers(1, 420))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    v = Cyclotomic.zero()
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from(divisors))
        coeffs = draw(st.dictionaries(st.integers(0, d - 1), st.integers(-4, 4), max_size=4))
        v = v + Cyclotomic(d, coeffs, draw(st.integers(1, 6)))
    v = _at(v, n)
    return _cyc(n, dict(enumerate(v.reduced()))) if draw(st.booleans()) else v


@settings(max_examples=300, deadline=None)
@given(sums_at_divisors())
def test_descent_matches_the_search(v):
    """The descent by relative traces prints what the search over units and
    the rational solve printed."""
    want = smallest_conductor_by_search(v.n, v.reduced())
    assert _conductor_text(*smallest_conductor(v)) == _conductor_text(*want)


# equal values in different stored forms, and the one text each prints
ONE_TEXT = {
    "phi3-is-zero": (Cyclotomic(3, {0: 1, 1: 1, 2: 1}), Cyclotomic.zero(), "0"),
    "i-squared": (Cyclotomic.zeta(4) * Cyclotomic.zeta(4), Cyclotomic.rational(-1), "-1"),
    "zeta12-power": (Cyclotomic.zeta(12, 4), Cyclotomic.zeta(3), "cyc3[0,1]"),
    "zeta6-power": (Cyclotomic.zeta(6, 2), Cyclotomic.zeta(3), "cyc3[0,1]"),
    "halved-zeta3": (Cyclotomic(6, {2: 1}, 2), Cyclotomic(3, {1: 1}, 2), "cyc3[0,1/2]"),
    "halved-rational": (Cyclotomic(6, {1: 1, 5: 1}, 2), Cyclotomic.rational(Fraction(1, 2)), "1/2"),
}


@pytest.mark.parametrize("a,b,text", ONE_TEXT.values(), ids=ONE_TEXT)
def test_equal_values_of_different_stored_forms_have_one_repr(a, b, text):
    assert (a.n, a.den, a.num) != (b.n, b.den, b.num)
    assert a == b
    assert (repr(a), repr(b), repr(a)) == (text, text, text)


def test_inexact_coefficients_are_refused():
    with pytest.raises(ValueError):
        Cyclotomic(1, {0: 0.1})
    with pytest.raises(ValueError):
        Cyclotomic(1, {0: True})
    with pytest.raises(ValueError):
        Cyclotomic(3, {1.0: 1})
    with pytest.raises(ValueError):
        Cyclotomic.rational(0.5)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + 0.5


def test_fraction_coefficients_are_refused_and_rational_clears_them():
    # den is the value's one rational: the constructor takes int numerators,
    # and `rational` reads a Fraction into numerator and denominator
    with pytest.raises(ValueError, match="coefficients must be ints"):
        Cyclotomic(3, {0: Fraction(1, 2)})
    half = Cyclotomic.rational(Fraction(1, 2))
    assert half == Cyclotomic(1, {0: 1}, 2)
    assert (half.n, half.num, half.den) == (1, {0: 1}, 2)
    with pytest.raises(ValueError, match="int or a Fraction"):
        Cyclotomic.rational(True)


def test_denominator_is_reduced_and_kept_through_reduction():
    # (1 + zeta_3 + zeta_3^2) / 2 = 0, and (3 + zeta_3 + zeta_3^2) / 2 = 1
    assert Cyclotomic(3, {0: 1, 1: 1, 2: 1}, 2) == 0
    one = Cyclotomic(3, {0: 3, 1: 1, 2: 1}, 2)
    assert one.reduced() == [1, 0] and all(type(c) is int for c in one.reduced())
    assert Cyclotomic(4, {0: 2, 1: 4}, 6).den == 3
    half = _cyc(4, {1: Fraction(1, 2)})
    assert half.reduced() == [0, Fraction(1, 2)]
    assert repr(half) == "cyc4[0,1/2]"
    assert Cyclotomic(1, {0: 3}, 6).rational_value() == Fraction(1, 2)


# -- the integer-numerator class against the dict-of-Fractions oracle

ref_coeffs = st.lists(
    st.tuples(
        st.integers(-30, 30),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
    ),
    max_size=5,
)


@st.composite
def cyclo_pairs(draw):
    """The same value built by Cyclotomic and by the oracle."""
    n = draw(st.integers(1, 24))
    coeffs = {}
    for e, c in draw(ref_coeffs):
        coeffs[e] = coeffs.get(e, 0) + c
    return _cyc(n, coeffs), RefCyclotomic(n, coeffs)


def _oracle_text(old):
    """The one text of an oracle value: its rational, or its coefficients at
    the smallest conductor that the search finds."""
    if old.is_rational():
        return str(old.rational_value())
    return _conductor_text(*smallest_conductor_by_search(old.n, old.reduced()))


def _same(new, old):
    assert new.n == old.n
    assert new.reduced() == old.reduced()
    assert repr(new) == _oracle_text(old)
    assert (new == 0) == old.is_zero()
    if old.is_rational():
        assert new.rational_value() == old.rational_value()
    else:
        with pytest.raises(ValueError):
            new.rational_value()


@settings(max_examples=60, deadline=None)
@given(cyclo_pairs(), cyclo_pairs(), st.fractions(min_value=-5, max_value=5, max_denominator=9))
def test_matches_fraction_oracle(x, y, c):
    (a, ra), (b, rb) = x, y
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(-a, -ra)
    _same(Cyclotomic.hermitian_sum([1], [Cyclotomic.rational(1)], [a]), ra.conjugate())
    _same(a * c, ra * c)
    _same(c * a, c * ra)
    _same(a + c, ra + c)
    _same(c - a, c - ra)
    _same(Cyclotomic.hermitian_sum([1], [a], [a]), ra * ra.conjugate())
    assert (a == b) == (ra == rb)
    assert (a == c) == (ra == c)
    assert (a * b - b * a) == 0


def _conj(y):
    """Complex conjugation, zeta -> zeta^(-1), term by term."""
    return Cyclotomic(y.n, {-e: v for e, v in y.num.items()}, y.den)


# conductors whose lcm stays at most 120, denominators up to 12
mixed_cyclo = st.builds(
    _cyc,
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    st.dictionaries(
        st.integers(-12, 12), st.fractions(min_value=-4, max_value=4, max_denominator=12), max_size=4
    ),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), mixed_cyclo, mixed_cyclo), max_size=5))
def test_hermitian_sum_is_the_fold(terms):
    """One numerator dict over the common conductor and denominator is the
    value, and the representation, of the term-by-term fold."""
    weights, xs, ys = ([t[i] for t in terms] for i in range(3))
    fold = Cyclotomic.zero()
    for w, x, y in zip(weights, xs, ys):
        fold = fold + x * _conj(y) * w
    got = Cyclotomic.hermitian_sum(weights, xs, ys)
    assert got == fold
    assert (got.n, got.num, got.den) == (fold.n, fold.num, fold.den)
    assert repr(got) == repr(fold)


# five terms with conductors 1-24: the lcm of the terms reaches 5.3 * 10^9
wide_cyclo = st.builds(
    _cyc,
    st.integers(1, 24),
    st.dictionaries(
        st.integers(-24, 24), st.fractions(min_value=-4, max_value=4, max_denominator=12), max_size=4
    ),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), wide_cyclo, wide_cyclo), min_size=5, max_size=5))
def test_a_conductor_past_the_budget_is_refused(terms):
    """The Hermitian sum of wide conductors equals its fold, or, when their
    lcm is past CONDUCTOR_BUDGET, the comparison is refused before a dense
    list that long is made."""
    weights, xs, ys = ([t[i] for t in terms] for i in range(3))
    fold = Cyclotomic.zero()
    for w, x, y in zip(weights, xs, ys):
        fold = fold + x * _conj(y) * w
    got = Cyclotomic.hermitian_sum(weights, xs, ys)
    assert got.n == fold.n
    if got.n <= CONDUCTOR_BUDGET:
        assert got == fold
    else:
        with pytest.raises(ValueError, match="CONDUCTOR_BUDGET"):
            got == fold


def test_reduction_refuses_a_conductor_past_the_budget():
    assert Cyclotomic.zeta(CONDUCTOR_BUDGET) != 1
    past = Cyclotomic.zeta(CONDUCTOR_BUDGET + 1, 5)
    for check in (past.reduced, past.rational_value, lambda: past == 0, lambda: repr(past)):
        with pytest.raises(ValueError, match="CONDUCTOR_BUDGET"):
            check()


def test_equality_across_conductors_sharing_at_most_two():
    z3, z4, z5 = Cyclotomic.zeta(3), Cyclotomic.zeta(4), Cyclotomic.zeta(5)
    assert z3 + Cyclotomic.zeta(3, 2) == Cyclotomic.zeta(4, 2)  # both are -1
    assert Cyclotomic.zeta(4, 2) == Cyclotomic.zeta(6, 3)  # gcd 2, both -1
    assert (z5 + Cyclotomic.zeta(5, 4)) * Fraction(1, 2) != z3 * Fraction(1, 2)
    # no two non-rational values whose conductors share at most 2 are equal
    values = [z3, -z3, z3 + 2, z4, z4 * 3, z5, z5 + Cyclotomic.zeta(5, 4), Cyclotomic.zeta(10)]
    for a in values:
        for b in values:
            if gcd(a.n, b.n) <= 2:
                assert a != b and b != a, (a, b)
    # rationals at coprime conductors compare by value
    assert Cyclotomic(3, {0: 3, 1: 1, 2: 1}, 4) == Cyclotomic(5, {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}, 2)
    assert Cyclotomic(3, {0: 3, 1: 1, 2: 1}, 4) != Cyclotomic(5, {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}, 4)


def test_equality_across_conductors_sharing_more():
    assert Cyclotomic.zeta(3) == Cyclotomic.zeta(6, 2)
    assert Cyclotomic.zeta(12, 3) == Cyclotomic.zeta(8, 2)  # both are i
    assert Cyclotomic.zeta(3) != Cyclotomic.zeta(6, 4)
    assert Cyclotomic.zeta(12, 4) * Fraction(1, 3) == Cyclotomic.zeta(9, 3) * Fraction(1, 3)


def test_reduced_hands_out_a_fresh_list():
    for v in (Cyclotomic.zeta(5) * 2, Cyclotomic(7, {1: 3, 2: 1}, 2), Cyclotomic.rational(4)):
        text = repr(v)
        twin = Cyclotomic(v.n, dict(v.num), v.den)
        red = v.reduced()
        red[0] += 5
        red.append(99)
        assert repr(v) == text
        assert v == twin and twin == v
        assert v.reduced() == twin.reduced() != red


def test_equality_classes_cross_conductors():
    # -1 written at conductors 1, 2 and 4, zeta_3, 1/2 at conductors 3 and
    # 1, and 1 as -(zeta_3 + zeta_3^2): their texts split them into the
    # classes of ==, numbered by first appearance
    values = [
        Cyclotomic.rational(-1),
        Cyclotomic.zeta(3),
        Cyclotomic.zeta(2),
        _cyc(3, {0: Fraction(1, 2)}),
        Cyclotomic.zeta(4, 2),
        Cyclotomic.rational(Fraction(1, 2)),
        Cyclotomic(3, {1: 1, 2: 1}, 1) * -1,
    ]
    texts = [repr(v) for v in values]
    firsts = list(dict.fromkeys(texts))
    assert [firsts.index(t) for t in texts] == [0, 1, 0, 2, 0, 2, 3]
    for a, ta in zip(values, texts):
        assert [ta == tb for tb in texts] == [a == b for b in values]
