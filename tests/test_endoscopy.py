"""Center action on extended diagrams, elliptic triple enumeration,
pseudo-Levi extraction, kappa construction, estimate diagram facts."""

from fractions import Fraction

import pytest

from liechar.endoscopy import (
    center_alcove_action,
    endoscopic_from_kappa,
    enumerate_split_elliptic,
    estimate_diagram_check,
    pseudo_levi,
    triple_symmetries,
)
from liechar.exact_math import FinAbGroup
from liechar.root_datum import build_root_datum


def _sc(series, rank):
    return build_root_datum(series, rank, "sc")


def _golden(triples):
    """Comparable summary: set of (ord_s, H type, lambda torsion, orbit)."""
    return {
        (t.ord_s, t.h_type, t.lam.torsion, tuple(sorted(t.vertex_orbit)))
        for t in triples
    }


# ---------------------------------------------------------------------------
# center action


def test_action_a1_swap():
    act = center_alcove_action(_sc("A", 1))
    assert act.group.torsion == (2,)
    nontriv = [p for z, p in act.permutations.items() if z != act.group.zero()]
    assert nontriv == [(1, 0)]


def test_action_a2_three_cycle():
    act = center_alcove_action(_sc("A", 2))
    assert act.group.torsion == (3,)
    perms = set(act.permutations.values())
    assert (0, 1, 2) in perms
    cycles = perms - {(0, 1, 2)}
    assert cycles == {(1, 2, 0), (2, 0, 1)}


def test_action_b2_tilde_from_sp4():
    # dual of Sp4 is SO5; the nontrivial center element swaps the two
    # mark-1 nodes of the extended diagram and fixes the mark-2 node
    act = center_alcove_action(_sc("C", 2))
    assert act.ext.marks == [1, 1, 2]
    nontriv = [p for z, p in act.permutations.items() if z != act.group.zero()]
    assert nontriv == [(1, 0, 2)]


def test_action_trivial_for_g2_f4():
    for series, rank in (("G", 2), ("F", 4)):
        act = center_alcove_action(_sc(series, rank))
        assert act.group.is_trivial
        assert list(act.permutations.values()) == [tuple(range(act.ext.n_nodes))]


def test_action_d4_klein():
    act = center_alcove_action(_sc("D", 4))
    assert act.group.torsion == (2, 2)
    # simply transitive on the four mark-1 ends, fixing the branch node
    ends = [i for i in range(5) if act.ext.marks[i] == 1]
    assert len(ends) == 4
    for z, p in act.permutations.items():
        assert p[2] == 2
        if z != act.group.zero():
            assert all(p[i] != i for i in ends)


# ---------------------------------------------------------------------------
# golden tables for the enumeration


def test_enumerate_type_a():
    for rank in (1, 2, 3, 4):
        g = _sc("A", rank)
        triples = enumerate_split_elliptic(g)
        assert len(triples) == 1
        t = triples[0]
        assert t.ord_s == 1
        assert t.h_type == f"A{rank}"
        assert t.lam.is_trivial
        assert t.vertex_orbit == frozenset(range(rank + 1))
        assert t.elliptic


def test_enumerate_spin5():
    triples = enumerate_split_elliptic(_sc("B", 2))
    assert _golden(triples) == {
        (1, "B2", (), (0, 2)),
        (2, "A1+A1", (2,), (1,)),
    }


def test_enumerate_sp4():
    triples = enumerate_split_elliptic(_sc("C", 2))
    assert _golden(triples) == {
        (1, "B2", (), (0, 1)),
        (2, "A1+A1", (2,), (2,)),
    }


def test_enumerate_spin8():
    triples = enumerate_split_elliptic(_sc("D", 4))
    assert _golden(triples) == {
        (1, "D4", (), (0, 1, 3, 4)),
        (2, "A1+A1+A1+A1", (2, 2), (2,)),
    }


def test_enumerate_g2():
    triples = enumerate_split_elliptic(_sc("G", 2))
    assert {(t.ord_s, t.h_type) for t in triples} == {
        (1, "G2"),
        (2, "A1+A1"),
        (3, "A2"),
    }
    assert all(t.lam.is_trivial for t in triples)


def test_enumerate_f4():
    triples = enumerate_split_elliptic(_sc("F", 4))
    assert {(t.ord_s, t.h_type) for t in triples} == {
        (1, "F4"),
        (2, "C4"),
        (2, "B3+A1"),
        (3, "A2+A2"),
        (4, "A3+A1"),
    }
    assert all(t.lam.is_trivial for t in triples)
    # dual-side subsystems are the Borel-de Siebenthal ones
    assert {(t.ord_s, t.levi_datum.cartan_type()) for t in triples} == {
        (1, "F4"),
        (2, "B4"),
        (2, "C3+A1"),
        (3, "A2+A2"),
        (4, "A3+A1"),
    }


def test_enumerate_e6():
    triples = enumerate_split_elliptic(_sc("E", 6))
    assert _golden(triples) == {
        (1, "E6", (), (0, 1, 6)),
        (2, "A5+A1", (), (2, 3, 5)),
        (3, "A2+A2+A2", (3,), (4,)),
    }


def test_enumerate_e7_count():
    triples = enumerate_split_elliptic(_sc("E", 7))
    assert len(triples) == 5
    assert sorted(t.ord_s for t in triples) == [1, 2, 2, 3, 4]


def test_enumerate_ad_matches_sc():
    for series, rank in (("C", 2), ("A", 2), ("D", 4)):
        sc = enumerate_split_elliptic(build_root_datum(series, rank, "sc"))
        ad = enumerate_split_elliptic(build_root_datum(series, rank, "ad"))
        assert [t.serialize() for t in sc] == [t.serialize() for t in ad]


def test_enumerate_rejects_gl_special():
    with pytest.raises(ValueError):
        enumerate_split_elliptic(build_root_datum("A", 2, "gl-special"))


def test_center_action_is_cached_per_datum():
    g = _sc("E", 6)
    act = center_alcove_action(g)
    assert center_alcove_action(g) is act
    # a fresh datum of the same type gets its own, equal action
    other = center_alcove_action(_sc("E", 6))
    assert other is not act
    assert other.permutations == act.permutations


def test_center_action_error_is_not_cached():
    gl = build_root_datum("A", 2, "gl-special")
    for _ in range(2):
        with pytest.raises(ValueError):
            center_alcove_action(gl)


# ---------------------------------------------------------------------------
# pseudo-Levi


def test_pseudo_levi_examples():
    # Sp4: dual side B2, removing the mark-2 node leaves orthogonal long roots
    sub = pseudo_levi(_sc("C", 2), 2)
    assert sub.cartan_type() == "A1+A1"
    # G2: removing the mark-3 node leaves a chain of two nodes
    g2 = _sc("G", 2)
    from liechar.root_datum import dual_datum, extended_dynkin

    marks = extended_dynkin(dual_datum(g2)).marks
    node3 = marks.index(3)
    assert pseudo_levi(g2, node3).cartan_type() == "A2"
    # removing the affine node recovers the original finite type
    for series, rank in (("B", 3), ("F", 4), ("A", 3)):
        g = _sc(series, rank)
        assert pseudo_levi(g, 0).cartan_type() == dual_datum(g).cartan_type()


def test_pseudo_levi_full_rank():
    for series, rank in (("B", 2), ("C", 3), ("D", 4), ("G", 2)):
        g = _sc(series, rank)
        n_nodes = rank + 1
        for v in range(n_nodes):
            sub = pseudo_levi(g, v)
            assert sub.is_semisimple()
            assert sub.rank == rank


def test_pseudo_levi_bad_vertex():
    with pytest.raises(ValueError):
        pseudo_levi(_sc("A", 2), 9)


# ---------------------------------------------------------------------------
# kappa route


def test_kappa_zero_is_trivial():
    g = _sc("C", 2)
    t = endoscopic_from_kappa(g, (0, 0))
    assert t.elliptic
    assert t.ord_s == 1
    assert t.h_type == "B2"
    assert 0 in t.vertex_orbit


def test_kappa_sp4_vertex():
    g = _sc("C", 2)
    act = center_alcove_action(g)
    v = act.ext.vertices[2]
    t = endoscopic_from_kappa(g, v)
    assert t.elliptic
    assert t.ord_s == 2
    assert t.h_type == "A1+A1"
    assert t.lam.torsion == (2,)


def test_kappa_sl2_midpoint_not_elliptic():
    t = endoscopic_from_kappa(_sc("A", 1), (Fraction(1, 2),))
    assert not t.elliptic
    assert t.ord_s == 2
    assert t.h_type == "0"
    assert t.H_datum.roots == ()
    with pytest.raises(ValueError):
        triple_symmetries(t)


def test_kappa_rejects_floats():
    with pytest.raises(TypeError):
        endoscopic_from_kappa(_sc("A", 1), (0.5,))


def test_kappa_vertex_sweep_small_ranks():
    # every alcove vertex must reproduce the enumerated triple of its orbit
    types = [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
        ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
        ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6),
        ("D", 4), ("D", 5), ("D", 6),
        ("G", 2), ("F", 4), ("E", 6),
    ]
    for series, rank in types:
        g = _sc(series, rank)
        act = center_alcove_action(g)
        triples = enumerate_split_elliptic(g)
        by_node = {}
        for t in triples:
            for node in t.vertex_orbit:
                by_node[node] = t
        for node, v in enumerate(act.ext.vertices):
            got = endoscopic_from_kappa(g, v)
            assert got.same_triple(by_node[node]), (series, rank, node)


# ---------------------------------------------------------------------------
# symmetry groups


def test_triple_symmetries():
    sp4 = enumerate_split_elliptic(_sc("C", 2))
    so4 = next(t for t in sp4 if t.ord_s == 2)
    lam, z = triple_symmetries(so4)
    assert lam.torsion == (2,) and z.torsion == (2,)
    sl2 = enumerate_split_elliptic(_sc("A", 1))[0]
    lam, z = triple_symmetries(sl2)
    assert lam.is_trivial and z.is_trivial


# ---------------------------------------------------------------------------
# estimate diagram facts


def test_estimate_d_series_empty():
    for n in (4, 5, 6, 7, 8):
        rep = estimate_diagram_check(_sc("D", n))
        assert rep["large_nonspecial_orbits"] == [], n


def test_estimate_e6():
    rep = estimate_diagram_check(_sc("E", 6))
    assert rep["center_order"] == 3
    orbs = rep["large_nonspecial_orbits"]
    assert len(orbs) == 1
    assert orbs[0]["size"] == 3
    assert orbs[0]["ord_s"] == 2
    assert orbs[0]["gcd_with_center"] == 1


def test_estimate_c2_vacuous():
    rep = estimate_diagram_check(_sc("C", 2))
    assert rep["large_nonspecial_orbits"] == []


def test_estimate_rejects_type_a():
    with pytest.raises(ValueError):
        estimate_diagram_check(_sc("A", 3))


# ---------------------------------------------------------------------------
# structural invariants not already asserted inside the constructors


def test_orbit_count_identity():
    for series, rank in (("B", 3), ("C", 3), ("D", 5), ("E", 6)):
        g = _sc(series, rank)
        act = center_alcove_action(g)
        assert len(enumerate_split_elliptic(g)) == len(act.orbits())


def test_lambda_is_fin_ab_group():
    for t in enumerate_split_elliptic(_sc("D", 4)):
        assert isinstance(t.lam, FinAbGroup)
        assert t.lam == t.z_of_E
