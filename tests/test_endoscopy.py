"""Center action on extended diagrams, elliptic triple enumeration,
pseudo-Levi extraction, kappa construction, estimate diagram facts."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from liechar.endoscopy import (
    _kappa_pairings,
    center_alcove_action,
    endoscopic_from_kappa,
    enumerate_split_elliptic,
    estimate_diagram_check,
    fold_to_alcove,
    pseudo_levi,
)
from liechar.exact_math import FinAbGroup
from liechar.root_datum import build_root_datum, dual_datum, extended_dynkin, sub_datum_from_pairs


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
        assert act.group == FinAbGroup()
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
        assert t.lam == FinAbGroup()
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
    assert all(t.lam == FinAbGroup() for t in triples)


def test_enumerate_f4():
    triples = enumerate_split_elliptic(_sc("F", 4))
    assert {(t.ord_s, t.h_type) for t in triples} == {
        (1, "F4"),
        (2, "C4"),
        (2, "B3+A1"),
        (3, "A2+A2"),
        (4, "A3+A1"),
    }
    assert all(t.lam == FinAbGroup() for t in triples)
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


def _levi_a2():
    """A2 inside the lattice of A3: rank-deficient, so not semisimple."""
    d = build_root_datum("A", 3, "ad")
    return sub_datum_from_pairs(d.rank, [(r, rv) for r, rv in zip(d.roots, d.coroots) if r[-1] == 0])


def test_enumerate_rejects_a_non_semisimple_datum():
    levi = _levi_a2()
    assert levi.cartan_type() == "A2" and not levi.is_semisimple()
    with pytest.raises(ValueError, match="semisimple"):
        enumerate_split_elliptic(levi)


def test_center_action_is_cached_per_datum():
    g = _sc("E", 6)
    act = center_alcove_action(g)
    assert center_alcove_action(g) is act
    # a fresh datum of the same type gets its own, equal action
    other = center_alcove_action(_sc("E", 6))
    assert other is not act
    assert other.permutations == act.permutations


def test_center_action_error_is_not_cached():
    levi = _levi_a2()
    for _ in range(2):
        with pytest.raises(ValueError, match="semisimple"):
            center_alcove_action(levi)
    assert "center_alcove_action" not in levi.derived


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
    assert t.lam == FinAbGroup()


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
            want = by_node[node]
            assert (got.vertex_orbit, got.h_type, got.ord_s) == (
                want.vertex_orbit, want.h_type, want.ord_s
            ), (series, rank, node)


# ---------------------------------------------------------------------------
# symmetry groups


def test_triple_symmetries():
    # Lambda, the stabilizer of the vertex under the center action
    sp4 = enumerate_split_elliptic(_sc("C", 2))
    so4 = next(t for t in sp4 if t.ord_s == 2)
    assert so4.elliptic and so4.lam.torsion == (2,)
    sl2 = enumerate_split_elliptic(_sc("A", 1))[0]
    assert sl2.elliptic and sl2.lam == FinAbGroup()


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
        assert len(enumerate_split_elliptic(g)) == len(act.orbits)


def test_lambda_is_fin_ab_group():
    for t in enumerate_split_elliptic(_sc("D", 4)):
        assert isinstance(t.lam, FinAbGroup)


# ---------------------------------------------------------------------------
# alcove folding against a Fraction reference


def _qdot(u, w):
    return sum(a * b for a, b in zip(u, w))


def _fraction_fold(d, ext, x, budget=10**4):
    """Reference fold: Fraction arithmetic, no coroot translation."""
    x = tuple(Fraction(v) for v in x)
    simple = list(zip(d.simple_roots, d.simple_coroots))
    theta = tuple(-t for t in ext.node_vectors[0])
    theta_cov = tuple(-t for t in ext.node_coroots[0])
    for _ in range(budget):
        moved = False
        for a, av in simple:
            t = _qdot(a, x)
            if t < 0:
                x = tuple(xi - t * ci for xi, ci in zip(x, av))
                moved = True
        t = _qdot(theta, x)
        if t > 1:
            x = tuple(xi - (t - 1) * ci for xi, ci in zip(x, theta_cov))
            moved = True
        if not moved:
            return x
    raise RuntimeError("reference fold exceeded its budget")


FOLD_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
    ("E", 6), ("E", 7), ("E", 8),
]


@lru_cache(maxsize=None)
def _dual_and_ext(series, rank, isogeny):
    d = dual_datum(build_root_datum(series, rank, isogeny))
    return d, extended_dynkin(d)


def _random_point(rng, rank, size=2):
    den = rng.choice([1, 2, 3, 4, 5, 6, 7, 12])
    return tuple(Fraction(rng.randint(-size * den, size * den), den) for _ in range(rank))


def _in_closed_alcove(ext, x):
    theta = tuple(-t for t in ext.node_vectors[0])
    return all(_qdot(a, x) >= 0 for a in ext.node_vectors[1:]) and _qdot(theta, x) <= 1


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
@pytest.mark.parametrize("series,rank", FOLD_TYPES)
def test_fold_matches_fraction_reference(series, rank, isogeny):
    d, ext = _dual_and_ext(series, rank, isogeny)
    rng = random.Random(f"{series}{rank}{isogeny}")
    for _ in range(6):
        x = _random_point(rng, rank)
        got = fold_to_alcove(d, ext, x)
        assert got == _fraction_fold(d, ext, x), x
        assert all(type(v) is Fraction for v in got)
        assert _in_closed_alcove(ext, got), x


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 4), ("C", 3), ("F", 4), ("E", 8)])
def test_fold_is_invariant_under_large_coroot_translations(series, rank, isogeny):
    # the coroot lattice lies in the affine Weyl group, so a far translate
    # folds to the same point, within the step budget
    d, ext = _dual_and_ext(series, rank, isogeny)
    rng = random.Random(f"{series}{rank}{isogeny}")
    for _ in range(4):
        x = _random_point(rng, rank)
        coef = [rng.randint(-10**6, 10**6) for _ in d.simple_coroots]
        shift = [sum(c * av[k] for c, av in zip(coef, d.simple_coroots)) for k in range(rank)]
        far = tuple(a + b for a, b in zip(x, shift))
        assert fold_to_alcove(d, ext, far) == fold_to_alcove(d, ext, x)


def test_from_kappa_far_translate_matches_vertex():
    # an E8 vertex moved by a large coroot-lattice vector still folds onto it
    g = _sc("E", 8)
    act = center_alcove_action(g)
    d = act.dual
    far = tuple(x + 10**6 * c for x, c in zip(act.ext.vertices[4], d.simple_coroots[2]))
    assert endoscopic_from_kappa(g, far) is endoscopic_from_kappa(g, act.ext.vertices[4])


def _fraction_pairings(d, kappa):
    pairings = [_qdot(r, kappa) for r in d.roots]
    integral = [r for r, p in zip(d.roots, pairings) if p.denominator == 1]
    return integral, lcm(1, *(p.denominator for p in pairings))


@settings(max_examples=150, deadline=None)
@given(
    data=st.sampled_from([(s, r, i) for s, r in FOLD_TYPES for i in ("sc", "ad")]),
    den=st.integers(min_value=1, max_value=30),
    nums=st.lists(st.integers(min_value=-100, max_value=100), min_size=8, max_size=8),
)
def test_integer_pairings_match_fraction_lcm(data, den, nums):
    series, rank, isogeny = data
    d, _ = _dual_and_ext(*data)
    kappa = tuple(Fraction(a, den) for a in nums[:rank])
    pairs, ord_s = _kappa_pairings(d, kappa)
    integral, order = _fraction_pairings(d, kappa)
    assert [r for r, _ in pairs] == integral
    assert all(d.coroot_of(r) == rv for r, rv in pairs)
    assert ord_s == order


# ---------------------------------------------------------------------------
# elliptic triples are built once per datum and orbit


def _stored_triples(g):
    """{smallest orbit node: triple} of the elliptic triples cached on g."""
    return {
        key[1]: value
        for key, value in g.derived.items()
        if isinstance(key, tuple) and key[0] == "elliptic_triple"
    }


def test_kappa_in_one_orbit_share_the_enumerated_triple():
    for series, rank in (("C", 2), ("E", 6), ("D", 4)):
        g = _sc(series, rank)
        act = center_alcove_action(g)
        for t in enumerate_split_elliptic(g):
            for node in t.vertex_orbit:
                assert endoscopic_from_kappa(g, act.ext.vertices[node]) is t
        # one entry per orbit, under its smallest node
        stored = _stored_triples(g)
        assert sorted(stored) == sorted(min(o) for o in act.orbits)
        assert all(min(t.vertex_orbit) == node for node, t in stored.items())


def test_non_elliptic_kappa_is_never_stored():
    g = _sc("C", 3)
    for kappa in ((Fraction(1, 7), 0, 0), (Fraction(1, 2), Fraction(1, 3), 0)):
        t = endoscopic_from_kappa(g, kappa)
        assert not t.elliptic
    assert _stored_triples(g) == {}
    t = endoscopic_from_kappa(g, (0, 0, 0))
    assert _stored_triples(g) == {0: t}
