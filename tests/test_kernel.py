"""Packed 2 x 2 matrix kernels over F_q, prime q and F_9 alike, checked
against a digit-wise arithmetic of the test's own, which reads no table of
the field or of the kernels."""

import ast
import random
from pathlib import Path

import pytest

from liechar import _kernels
from liechar.dl_spectra import conjugacy_classes
from liechar.exact_math import FiniteField
from liechar.finite_lie import build_finite_group

# q -> (p, f)
FIELDS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 11: (11, 1), 13: (13, 1)}
QS = list(FIELDS)

# The kernel module under test. Case ids keep the form of the earlier
# two-backend suite, "q-n-backend" with n = 2 the matrix size; the
# pure-Python backend named there, liechar._kernels_py, is now the one
# kernel module, liechar._kernels.
KERNEL = pytest.mark.parametrize("kern", [_kernels], ids=["liechar._kernels_py"])
Q_CASES = pytest.mark.parametrize("q", QS, ids=lambda q: f"{q}-2")


def _setup(q):
    fld = FiniteField(*FIELDS[q])
    return fld, _kernels.Tables(fld)


def _pack(m, q):
    out, w = 0, 1
    for row in m:
        for x in row:
            out += x * w
            w *= q
    return out


def _unpack(a, q):
    d = [a % q, a // q % q, a // q**2 % q, a // q**3]
    return [d[:2], d[2:]]


def _add(fld, x, y):
    """x + y by the base-p digits of the codes, the encoding's definition."""
    p = fld.p
    (x1, x0), (y1, y0) = divmod(x, p), divmod(y, p)
    return (x0 + y0) % p + p * ((x1 + y1) % p)


def _neg(fld, x):
    p = fld.p
    x1, x0 = divmod(x, p)
    return -x0 % p + p * (-x1 % p)


def _mul(fld, x, y):
    """x y by the digits in F_3[i]/(i^2 + 1) for q = 9, the code x0 + 3 x1
    standing for x0 + x1 i; in F_p the high digits are 0."""
    p = fld.p
    (x1, x0), (y1, y0) = divmod(x, p), divmod(y, p)
    return (x0 * y0 - x1 * y1) % p + p * ((x0 * y1 + x1 * y0) % p)


def _ref_mul(fld, a, b):
    return [
        [_add(fld, _mul(fld, a[i][0], b[0][j]), _mul(fld, a[i][1], b[1][j])) for j in range(2)]
        for i in range(2)
    ]


def _ref_det(fld, m):
    return _add(fld, _mul(fld, m[0][0], m[1][1]), _neg(fld, _mul(fld, m[0][1], m[1][0])))


def _ref_trace(fld, m):
    return _add(fld, m[0][0], m[1][1])


def _sl2_elements(fld):
    q = fld.q
    return [a for a in range(q**4) if _ref_det(fld, _unpack(a, q)) == 1]


def _sl2_gens(fld):
    q = fld.q
    gens = set()
    for c in {1, fld.gen}:
        gens.add(_pack([[1, c], [0, 1]], q))
        gens.add(_pack([[1, 0], [c, 1]], q))
    return sorted(gens)


@KERNEL
@Q_CASES
def test_mat_mul_matches_reference(kern, q):
    fld, t = _setup(q)
    rng = random.Random(q)
    for _ in range(200):
        a = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
        b = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
        got = kern.mat_mul(_pack(a, q), _pack(b, q), t)
        assert _unpack(got, q) == _ref_mul(fld, a, b)


@KERNEL
@Q_CASES
def test_mat_inv_roundtrip(kern, q):
    fld, t = _setup(q)
    rng = random.Random(10 * q)
    ident = _pack([[1, 0], [0, 1]], q)
    found = 0
    while found < 50:
        m = rng.randrange(q**4)
        if _ref_det(fld, _unpack(m, q)) == 0:
            with pytest.raises(ZeroDivisionError):
                kern.mat_inv(m, t)
            continue
        found += 1
        mi = kern.mat_inv(m, t)
        assert kern.mat_mul(m, mi, t) == ident
        assert kern.mat_mul(mi, m, t) == ident


@KERNEL
def test_mat_inv_singular_raises(kern):
    for q in QS:
        _, t = _setup(q)
        with pytest.raises(ZeroDivisionError):
            kern.mat_inv(_pack([[1, 1], [1, 1]], q), t)


@KERNEL
def test_sl2_f3_conjugacy_classes(kern):
    fld, t = _setup(3)
    els = _sl2_elements(fld)
    assert len(els) == 24
    orbits = kern.conjugacy_partition(els, _sl2_gens(fld), t)
    assert len(orbits) == 7
    assert sorted(map(len, orbits)) == [1, 1, 4, 4, 4, 4, 6]
    assert sorted(x for orbit in orbits for x in orbit) == sorted(els)


@pytest.mark.parametrize("q", QS)
def test_sl2_conjugacy_class_sizes(q):
    # SL2(F_q), q odd: the two central classes, four unipotent classes of
    # size (q^2 - 1)/2, (q - 3)/2 split classes of size q(q + 1) and
    # (q - 1)/2 elliptic classes of size q(q - 1); for q = 3 that is
    # 1, 1, 4, 4, 4, 4, 6
    fld, t = _setup(q)
    els = _sl2_elements(fld)
    assert len(els) == q * (q * q - 1)
    orbits = _kernels.conjugacy_partition(els, _sl2_gens(fld), t)
    sizes = sorted(map(len, orbits))
    expected = (
        [1, 1]
        + [(q * q - 1) // 2] * 4
        + [q * (q + 1)] * ((q - 3) // 2)
        + [q * (q - 1)] * ((q - 1) // 2)
    )
    assert sizes == sorted(expected)


@KERNEL
def test_partition_labels_deterministic(kern):
    for q in QS:
        fld, t = _setup(q)
        els = _sl2_elements(fld)
        orbits1 = kern.conjugacy_partition(els, _sl2_gens(fld), t)
        orbits2 = kern.conjugacy_partition(els, _sl2_gens(fld), t)
        assert orbits1 == orbits2
        # each orbit a sorted tuple, and orbit k + 1 starts at the first
        # element, in the order of els, that no earlier orbit holds
        assert all(type(o) is tuple and list(o) == sorted(set(o)) for o in orbits1)
        position = {e: i for i, e in enumerate(els)}
        firsts = [min(position[x] for x in o) for o in orbits1]
        seen = set()
        for o, first in zip(orbits1, firsts):
            assert first == min(i for i, e in enumerate(els) if e not in seen)
            seen.update(o)
        assert len(seen) == len(els)


@KERNEL
def test_partition_rejects_unclosed_set(kern):
    for q in QS:
        fld, t = _setup(q)
        els = _sl2_elements(fld)
        with pytest.raises(ValueError, match="not closed"):
            kern.conjugacy_partition(els[:5], _sl2_gens(fld), t)


def _ref_sl2_conj(fld, h, x):
    """h x h^-1 for det h = 1, h^-1 = [[d, -b], [-c, a]], by the digits."""
    (a, b), (c, d) = h
    hi = [[d, _neg(fld, b)], [_neg(fld, c), a]]
    return _pack(_ref_mul(fld, _ref_mul(fld, h, x), hi), fld.q)


@KERNEL
@pytest.mark.parametrize("q", [3, 5, 9], ids=lambda q: f"{q}-2")
def test_orbits_and_classes_match_reference_conjugation(kern, q):
    # conjugation by the reference generators, through orbit_of and
    # conjugacy_partition, against h x h^-1 over every h in SL2 by the
    # digit arithmetic
    fld, t = _setup(q)
    els = _sl2_elements(fld)
    group = [_unpack(h, q) for h in els]

    def ref_orbit(x):
        m = _unpack(x, q)
        return tuple(sorted({_ref_sl2_conj(fld, h, m) for h in group}))

    orbits = kern.conjugacy_partition(els, _sl2_gens(fld), t)
    for orbit in orbits:
        assert orbit == ref_orbit(orbit[0])
    assert sorted(x for orbit in orbits for x in orbit) == sorted(els)
    rng = random.Random(q)
    for x in [rng.randrange(q**4) for _ in range(10)]:
        assert kern.orbit_of(x, _sl2_gens(fld), t) == ref_orbit(x)


@KERNEL
def test_orbit_of_identity_is_fixed(kern):
    for q in QS:
        fld, t = _setup(q)
        ident = _pack([[1, 0], [0, 1]], q)
        assert kern.orbit_of(ident, _sl2_gens(fld), t) == (ident,)


@KERNEL
def test_histogram_total_and_values(kern):
    for q in QS:
        fld, t = _setup(q)
        fixed = _pack([[0, 1], [0, 0]], q)
        hist = kern.pair_histogram(fixed, range(q**4), t)
        # Tr(fixed y) = y[1][0]: uniform over the field
        assert hist == [q**3] * q
        rng = random.Random(q)
        fixed = rng.randrange(q**4)
        space = [rng.randrange(q**4) for _ in range(300)]
        hist = kern.pair_histogram(fixed, space, t)
        assert sum(hist) == len(space)
        ref = [0] * q
        for y in space:
            ref[_ref_trace(fld, _ref_mul(fld, _unpack(fixed, q), _unpack(y, q)))] += 1
        assert hist == ref


@pytest.mark.parametrize("q", [3, 9])
def test_exhaustive_against_digit_arithmetic(q):
    # every matrix through det_code and trace_code; every pair of matrices
    # through mat_mul and pairing_code for F_3, and for F_9 every matrix
    # once on each side (a bijection pairs them), with every entry of the
    # dot and column tables checked on its own
    fld, t = _setup(q)
    n = q**4
    mats = [_unpack(a, q) for a in range(n)]
    for a, m in enumerate(mats):
        assert _kernels.det_code(a, t) == _ref_det(fld, m)
        assert _kernels.trace_code(a, t) == _ref_trace(fld, m)
        assert _unpack(t.col0[a] + q * q * t.col1[a], q) == [list(c) for c in zip(*m)]
    for r in range(q * q):
        for c in range(q * q):
            row = [[r % q, r // q], [0, 0]]
            col = [[c % q, 0], [c // q, 0]]
            assert t.dot[r * q * q + c] == _ref_mul(fld, row, col)[0][0]
    pairs = (
        [(a, b) for a in range(n) for b in range(n)]
        if q == 3
        else [(a, (4093 * a + 17) % n) for a in range(n)]
    )
    for a, b in pairs:
        prod = _ref_mul(fld, mats[a], mats[b])
        assert _unpack(_kernels.mat_mul(a, b, t), q) == prod
        assert _kernels.pairing_code(a, b, t) == _ref_trace(fld, prod)


def _dot_by_generator(fld):
    """The dot table as a generator of q^4 steps builds it: for each row
    r = r0 + r1 q, r0 c0 + r1 c1 over c = c0 + c1 q, off the field's own
    addition table and mul."""
    q = fld.q
    codes = range(q)
    prod = [fld.mul(x, y) for x in codes for y in codes]
    add = fld.add_table
    dot = bytearray()
    for r1 in codes:
        for r0 in codes:
            a, b = prod[r0 * q : r0 * q + q], prod[r1 * q : r1 * q + q]
            dot += bytes(add[a[c0] * q + b[c1]] for c1 in codes for c0 in codes)
    return bytes(dot)


@Q_CASES
def test_every_table_entry_against_digit_arithmetic(q):
    # dot, col0 and col1 entry by entry, q^4 <= 28,561 entries each, and
    # the translate-built dot against the generator
    fld, t = _setup(q)
    q2 = q * q
    assert len(t.dot) == len(t.col0) == len(t.col1) == q2 * q2
    for r in range(q2):
        for c in range(q2):
            want = _add(fld, _mul(fld, r % q, c % q), _mul(fld, r // q, c // q))
            assert t.dot[r * q2 + c] == want
    for m in range(q2 * q2):
        (m00, m01), (m10, m11) = _unpack(m, q)
        assert (t.col0[m], t.col1[m]) == (m00 + m10 * q, m01 + m11 * q)
    assert t.dot == _dot_by_generator(fld)


@pytest.mark.parametrize("kind,q", [(kind, q) for kind in ("GL2", "SL2") for q in QS])
def test_right_products_match_mat_mul(kind, q):
    # every element times the generators, every class representative and
    # one non-invertible Lie point, whose row map is not a permutation
    g = build_finite_group(kind, q)
    t = g.tables
    m1 = g.field.neg(1)
    singular = g.pack([[1, 1], [m1, m1]])
    assert g.det_code(singular) == 0
    assert singular in g.lie_points()
    xs = g.elements
    ys = [*g.gens, *conjugacy_classes(g).reps, singular]
    got = list(_kernels.right_products(xs, ys, t))
    assert got == [[_kernels.mat_mul(x, y, t) for x in xs] for y in ys]


def test_tables_refuse_large_fields():
    # a field past the kernels' limit is refused itself, before any table
    # is built
    with pytest.raises(ValueError, match="MAX_Q = 16"):
        FiniteField(17)


LIBRARY = Path(__file__).resolve().parents[1] / "src" / "liechar"


def test_only_the_kernels_read_the_code_layout():
    # the tables' layout attributes are read in _kernels alone, so a change
    # of the code layout touches one module
    layout = {"dot", "col0", "col1", "q2", "q3"}
    reads = [
        f"{path.relative_to(LIBRARY)}:{node.lineno}: .{node.attr}"
        for path in sorted(LIBRARY.rglob("*.py"))
        if path.name != "_kernels.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in layout
    ]
    assert not reads, "layout read outside _kernels:\n" + "\n".join(reads)


@pytest.mark.parametrize("kind,q", [(kind, q) for kind in ("GL2", "SL2") for q in QS])
def test_pack_inverts_unpack_on_every_code(kind, q):
    g = build_finite_group(kind, q)
    for c in range(q**4):
        rows = g.unpack(c)
        assert rows == _unpack(c, q)
        assert g.pack(rows) == c


@pytest.mark.parametrize("q", QS)
def test_pack_and_unpack_refuse_what_is_not_a_code(q):
    g = build_finite_group("SL2", q)
    for bad in (q**4, -1, 126.0):
        with pytest.raises(ValueError, match=f"is not a matrix code over F_{q}$"):
            g.unpack(bad)
    for bad in (1.5, True, q):
        with pytest.raises(ValueError, match=f"is not a field code of F_{q}$"):
            g.pack([[1, 0], [bad, 1]])
