import re
from pathlib import Path

import pytest

from liechar.exact_math import FiniteField, ffield


def test_f3_generator():
    k = FiniteField(3)
    assert k.q == 3 and k.gen == 2


def test_f5_generator():
    k = FiniteField(5)
    assert k.gen == 2  # ord(2) = 4 mod 5


def test_a_generator_short_of_full_order_is_refused(monkeypatch):
    # the square of the generator walks only half of F_q^*
    find = ffield.primitive_element

    def square_of_generator(mul, *args):
        gen = find(mul, *args)
        return mul(gen, gen)

    monkeypatch.setattr(ffield, "primitive_element", square_of_generator)
    for p, f in [(3, 1), (7, 1), (3, 2)]:
        with pytest.raises(AssertionError, match="generator does not have full order"):
            FiniteField(p, f)


def test_f9_structure():
    k = FiniteField(3, 2)
    assert k.q == 9
    assert len(k.exp_table) == 8
    assert len({k.mul(k.gen, x) for x in range(1, 9)}) == 8
    # Frobenius fixes exactly the prime field
    fixed = [x for x in range(9) if k.pow(x, 3) == x if x != 0] + [0]
    assert sorted(fixed) == [0, 1, 2]


def test_field_axioms_f9():
    k = FiniteField(3, 2)
    xs = list(range(k.q))
    for a in xs:
        for b in xs:
            assert k.mul(a, b) == k.mul(b, a)
            assert k.add(a, b) == k.add(b, a)
            for c in xs:
                assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
                assert k.add(a, k.add(b, c)) == k.add(k.add(a, b), c)
    for a in range(1, k.q):
        assert k.mul(a, k.inv(a)) == 1


def test_bad_inputs():
    # not a prime, characteristic 2, f > 2 or q > MAX_Q: refused before any
    # table is built, by the first of q <= MAX_Q, f in (1, 2), p odd and p
    # prime that fails
    refusals = {
        (4, 1): "q = 4: p = 4 is even",
        (6, 1): "q = 6: p = 6 is even",
        (2, 4): "q = 16: f = 4 is not 1 or 2",
        (127, 3): "q = 2048383: q exceeds MAX_Q = 16",
        (2, 1): "q = 2: p = 2 is even",
        (2, 2): "q = 4: p = 2 is even",
        (3, 3): "q = 27: q exceeds MAX_Q = 16",
        (5, 2): "q = 25: q exceeds MAX_Q = 16",
        (17, 1): "q = 17: q exceeds MAX_Q = 16",
        (9, 1): "q = 9: p = 9 is not prime",
        (15, 1): "q = 15: p = 15 is not prime",
        (3, 0): "q = 3^0: f = 0 is not 1 or 2",
        (3, -1): "q = 3^-1: f = -1 is not 1 or 2",
        (3, 10**9): "q = 3^1000000000: f = 1000000000 is not 1 or 2",
    }
    for (p, f), reason in refusals.items():
        with pytest.raises(ValueError, match=rf"^no field F_q with {re.escape(reason)}$"):
            FiniteField(p, f)


def test_p_and_f_that_are_not_ints_are_refused():
    # int() would read FiniteField(3.9) and FiniteField(3, True) as F_3
    cases = (((3.9,), "p", "3.9"), ((3, True), "f", "True"), ((True,), "p", "True"), ((3, 2.0), "f", "2.0"))
    for args, name, value in cases:
        with pytest.raises(ValueError, match=rf"^no field F_q: {name} = {re.escape(value)} is not an int$"):
            FiniteField(*args)


def test_no_primality_test_past_max_q(monkeypatch):
    # a q past MAX_Q is refused before p's primality is tested, so a huge p
    # costs nothing
    def no_primality(n):
        raise AssertionError("primality tested")

    monkeypatch.setattr(ffield, "is_prime", no_primality)
    for p in (17, 10**18 + 3, 10**40 + 1):
        with pytest.raises(ValueError, match=rf"^no field F_q with q = {p}: q exceeds MAX_Q = 16$"):
            FiniteField(p)


def test_max_q_is_defined_once():
    root = Path(__file__).resolve().parents[1] / "src" / "liechar"
    defs = [
        path.name
        for path in root.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.match(r"\s*MAX_Q\s*=", line)
    ]
    assert defs == ["ffield.py"]


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


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_addition_table_matches_digits(p, f):
    k = FiniteField(p, f)
    for a in range(k.q):
        assert k.neg(a) == _digitwise(k, 0, a, -1)
        for b in range(k.q):
            assert k.add(a, b) == _digitwise(k, a, b, 1)
            assert k.sub(a, b) == _digitwise(k, a, b, -1)
