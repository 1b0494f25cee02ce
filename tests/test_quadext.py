"""The quadratic extension, the quasi-logarithm and the class families on
the packed 2 x 2 tables, against the entry-wise arithmetic they replaced
(tests/reference_quadext.py), over every element of GL2 and SL2 for odd
q <= 13."""

from fractions import Fraction

import pytest

import liechar.finite_lie as finite_lie
import reference_quadext as ref
from liechar.dl_spectra import _gauss_sum, classical_table_oracle, conjugacy_classes
from liechar.finite_lie import build_finite_group, quasi_logarithm, tori_and_regularity

QS = (3, 5, 7, 9, 11, 13)
GROUPS = [(kind, q) for kind in ("GL2", "SL2") for q in QS]


def packed(g, code):
    """The elliptic-torus matrix [[x, eps y], [y, x]] of the reference code
    x + q y."""
    fld = g.field
    x, y = code % g.q, code // g.q
    return g.pack([[x, fld.mul(fld.non_residue, y)], [y, x]])


def elliptic_torus(kind, q):
    g = build_finite_group(kind, q)
    return g, next(t for t in tori_and_regularity(g) if t.tag == "elliptic")


@pytest.mark.parametrize("q", QS)
def test_quad_ext_matches_reference(q):
    # GL2's elliptic torus is F_q^2^* in the logarithm of its generator,
    # SL2's the norm-one subgroup in that of gen^(q - 1)
    want = ref.QuadExt(build_finite_group("GL2", q).field)
    for kind, gen, log, order in (
        ("GL2", want.gen, want.log, q * q - 1),
        ("SL2", want.norm_one_gen, want.norm_one_log, q + 1),
    ):
        g, ell = elliptic_torus(kind, q)
        assert ell.unit_points == (packed(g, gen),)
        assert ell.order == ell.char_order == len(log) == order
        assert ell.log == {packed(g, code): (k,) for code, k in log.items()}
    g = build_finite_group("GL2", q)
    for code in range(1, q * q):
        assert g.det_code(packed(g, code)) == want.norm(code)


def test_a_generator_short_of_full_order_is_refused(monkeypatch):
    # the square of the generator walks only half of F_q^2^*
    find = finite_lie.primitive_element

    def square_of_generator(mul, *args):
        gen = find(mul, *args)
        return mul(gen, gen)

    monkeypatch.setattr(finite_lie, "primitive_element", square_of_generator)
    for kind in ("GL2", "SL2"):
        for q in (3, 5, 9):
            with pytest.raises(AssertionError, match="generator order is wrong"):
                finite_lie._build_tori(build_finite_group(kind, q))


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
    # gen^k has norm 1 exactly when q - 1 divides k, and it is step
    # k / (q - 1) of the norm-one subgroup's generator
    for q in QS:
        gl, gl_ell = elliptic_torus("GL2", q)
        sl, sl_ell = elliptic_torus("SL2", q)
        assert gl.field is sl.field
        norm_one = {z: k for z, (k,) in gl_ell.log.items() if gl.det_code(z) == 1}
        assert all(k % (q - 1) == 0 for k in norm_one.values())
        assert sl_ell.log == {z: (k // (q - 1),) for z, k in norm_one.items()}
