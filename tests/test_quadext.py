"""The quadratic extension, the quasi-logarithm and the class families on
the packed 2 x 2 tables, against the entry-wise arithmetic they replaced
(tests/reference_quadext.py), over every element of GL2 and SL2 for odd
q <= 13."""

from fractions import Fraction

import pytest

import liechar.finite_lie as finite_lie
import reference_quadext as ref
from liechar.dl_spectra import _gauss_sum, classical_table_oracle, conjugacy_classes
from liechar.finite_lie import _QuadExt, _quad_ext, build_finite_group, quasi_logarithm

QS = (3, 5, 7, 9, 11, 13)
GROUPS = [(kind, q) for kind in ("GL2", "SL2") for q in QS]


def packed(g, code):
    """The elliptic-torus matrix [[x, eps y], [y, x]] of the reference code
    x + q y."""
    fld = g.field
    x, y = code % g.q, code // g.q
    return g.pack([[x, fld.mul(fld.non_residue, y)], [y, x]])


@pytest.mark.parametrize("q", QS)
def test_quad_ext_matches_reference(q):
    g = build_finite_group("GL2", q)
    ext, want = _quad_ext(g.field), ref.QuadExt(g.field)
    assert ext.gen == packed(g, want.gen)
    norm_one_gen = next(z for z, k in ext.norm_one_log.items() if k == 1)
    assert norm_one_gen == packed(g, want.norm_one_gen)
    assert len(ext.log) == len(want.log) == q * q - 1
    assert len(ext.norm_one_log) == len(want.norm_one_log) == q + 1
    for code in range(1, q * q):
        z = packed(g, code)
        assert ext.log[z] == want.log[code]
        assert ext.norm_one_log.get(z) == want.norm_one_log.get(code)
        assert g.det_code(z) == want.norm(code)


def test_a_generator_short_of_full_order_is_refused(monkeypatch):
    # the square of the generator walks only half of F_q^2^*
    find = finite_lie.primitive_element

    def square_of_generator(mul, *args):
        gen = find(mul, *args)
        return mul(gen, gen)

    monkeypatch.setattr(finite_lie, "primitive_element", square_of_generator)
    for q in (3, 5, 9):
        with pytest.raises(AssertionError, match="generator order is wrong"):
            _QuadExt(build_finite_group("GL2", q).field)


@pytest.mark.parametrize("kind,q", GROUPS)
def test_quasi_logarithm_matches_reference(kind, q):
    g = build_finite_group(kind, q)
    for x in g.elements:
        assert quasi_logarithm(g, x) == ref.quasi_logarithm(g, x)


@pytest.mark.parametrize("kind,q", GROUPS)
def test_class_shapes_match_reference(kind, q):
    """The classical table against the closed forms on the reference class
    shapes. Each Steinberg row over its linear character is q, 0, 1, -1 on
    the central, jordan, split and elliptic classes, so it reads the family
    partition. SL2's four half characters, the principal pair and then the
    cuspidal pair, each + before -, read the square class of the unipotent
    part and the norm-one logarithm."""
    g = build_finite_group(kind, q)
    fld = g.field
    shapes = ref.class_shapes(g, conjugacy_classes(g), ref.QuadExt(fld))
    rows = classical_table_oracle(kind, q).rows
    pairs = q - 1 if kind == "GL2" else 1
    st_over_linear = {"central": q, "jordan": 0, "split": 1, "elliptic": -1}
    for linear, st in zip(rows[0 : 2 * pairs : 2], rows[1 : 2 * pairs : 2]):
        for shape, a, b in zip(shapes, linear.values, st.values):
            assert b == a * st_over_linear[shape["family"]]
    if kind == "GL2":
        return
    tau = _gauss_sum(fld)
    chi_minus_one = 1 if fld.is_square(fld.neg(1)) else -1
    halves = [(c, pm) for c in (1, -1) for pm in (1, -1)]
    for (c, pm), row in zip(halves, rows[-4:]):
        for shape, v in zip(shapes, row.values):
            fam = shape["family"]
            lam = 1 if shape.get("x") == 1 else c * chi_minus_one
            if fam == "central":
                want = (q + c) // 2 * lam
            elif fam == "jordan":
                s = 1 if shape["unit_square"] else -1
                want = (tau * (pm * s) + c) * Fraction(lam, 2)
            elif fam == "split":
                want = (1 if fld.is_square(shape["x"]) else -1) if c == 1 else 0
            else:
                want = 0 if c == 1 else -((-1) ** shape["norm_one_log"])
            assert v == want, (c, pm, shape)


def test_gl2_and_sl2_share_one_extension():
    for q in QS:
        gl, sl = build_finite_group("GL2", q), build_finite_group("SL2", q)
        assert gl.field is sl.field
        assert _quad_ext(gl.field) is _quad_ext(sl.field)
        assert gl.field.derived["quad_ext"] is _quad_ext(sl.field)
