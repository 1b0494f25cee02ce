"""The quadratic extension, the quasi-logarithm and the class shapes on the
packed 2 x 2 tables, against the entry-wise arithmetic they replaced
(tests/reference_quadext.py), over every element of GL2 and SL2 for odd
q <= 13."""

import pytest

import reference_quadext as ref
from liechar.dl_spectra import _class_shapes, conjugacy_classes
from liechar.finite_lie import _quad_ext, build_finite_group, quasi_logarithm

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


@pytest.mark.parametrize("kind,q", GROUPS)
def test_quasi_logarithm_matches_reference(kind, q):
    g = build_finite_group(kind, q)
    for x in g.elements:
        assert quasi_logarithm(g, x) == ref.quasi_logarithm(g, x)


@pytest.mark.parametrize("kind,q", GROUPS)
def test_class_shapes_match_reference(kind, q):
    g = build_finite_group(kind, q)
    want = ref.class_shapes(g, conjugacy_classes(g), ref.QuadExt(g.field))
    for shape in want:
        if shape["family"] == "elliptic":
            shape["z"] = packed(g, shape["z"])
    assert list(_class_shapes(g)) == want


def test_gl2_and_sl2_share_one_extension():
    for q in QS:
        gl, sl = build_finite_group("GL2", q), build_finite_group("SL2", q)
        assert gl.field is sl.field
        assert _quad_ext(gl.field) is _quad_ext(sl.field)
        assert gl.field.derived["quad_ext"] is _quad_ext(sl.field)
