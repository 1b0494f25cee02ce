import pytest

from liechar.exact_math import FiniteField


def test_f3_generator():
    k = FiniteField(3)
    assert k.q == 3 and k.gen == 2


def test_f5_generator():
    k = FiniteField(5)
    assert k.gen == 2  # ord(2) = 4 mod 5


def test_f9_structure():
    k = FiniteField(3, 2)
    assert k.q == 9
    assert len(k.exp_table) == 8
    assert len({k.mul(k.gen, x) for x in range(1, 9)}) == 8
    # Frobenius fixes exactly the prime field
    fixed = [x for x in range(9) if k.pow(x, 3) == x if x != 0] + [0]
    assert sorted(fixed) == [0, 1, 2]


def test_field_axioms_f27():
    k = FiniteField(3, 3)
    xs = list(range(k.q))
    for a in xs[:9]:
        for b in xs[:9]:
            assert k.mul(a, b) == k.mul(b, a)
            assert k.add(a, b) == k.add(b, a)
            assert k.mul(a, k.add(b, 1)) == k.add(k.mul(a, b), a)
    for a in range(1, k.q):
        assert k.mul(a, k.inv(a)) == 1


def test_bad_inputs():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(2, 4)
    with pytest.raises(ValueError):
        FiniteField(127, 3)  # 127^3 > 2^14


def test_trace_additive_and_surjective():
    k = FiniteField(3, 2)
    traces = set()
    for a in range(9):
        for b in range(9):
            assert k.trace(k.add(a, b)) == (k.trace(a) + k.trace(b)) % 3
        traces.add(k.trace(a))
    assert traces == {0, 1, 2}


def test_non_residue():
    assert FiniteField(3).non_residue == 2
    assert FiniteField(5).non_residue == 2
    assert FiniteField(7).non_residue == 3
    assert FiniteField(11).non_residue == 2
    assert FiniteField(13).non_residue == 2


def _digitwise(k, a, b, sign):
    """a + sign*b by base-p digits, the encoding's own definition."""
    out, w = 0, 1
    for _ in range(k.f):
        out += ((a % k.p + sign * (b % k.p)) % k.p) * w
        a, b, w = a // k.p, b // k.p, w * k.p
    return out


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_zech_addition_matches_digits(p, f):
    k = FiniteField(p, f)
    for a in range(k.q):
        assert k.neg(a) == _digitwise(k, 0, a, -1)
        for b in range(k.q):
            assert k.add(a, b) == _digitwise(k, a, b, 1)
            assert k.sub(a, b) == _digitwise(k, a, b, -1)
