"""Center action on extended diagrams, elliptic triple enumeration,
pseudo-Levi extraction, kappa construction, estimate diagram facts."""

import random
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import liechar.endoscopy as endoscopy
from liechar.endoscopy import (
    _clear_denominators,
    _kappa_pairings,
    center_alcove_action,
    endoscopic_from_kappa,
    enumerate_split_elliptic,
    estimate_diagram_check,
    fold_to_alcove,
    pseudo_levi,
)
from liechar.exact_math import FinAbGroup, IntMatrix, cokernel_group
from liechar.root_datum import (
    ROOT_ENTRY_BOUND,
    RootDatum,
    build_root_datum,
    dual_datum,
    extended_dynkin,
    sub_datum_from_pairs,
)
from test_rootdata import ADMITTED, alcove_vertices


def _sc(series, rank):
    return build_root_datum(series, rank, "sc")


def _fresh(d):
    """A datum equal to d with nothing derived yet, apart from the registry."""
    return RootDatum(d.rank, d.roots, d.coroots, d.simple_indices, label=d.label)


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


# (ord_s, H) of every split elliptic triple of the exceptional types, from
# Borel-de Siebenthal: deleting the node of mark m from the extended diagram
# of the dual leaves the dual of H, at an element of order m (one triple per
# center orbit of nodes). H is the dual of that subsystem, so F4's B4 and
# C3+A1 read C4 and B3+A1 here.
EXCEPTIONAL_H_TYPES = {
    ("G", 2): [(1, "G2"), (2, "A1+A1"), (3, "A2")],
    ("F", 4): [(1, "F4"), (2, "C4"), (2, "B3+A1"), (3, "A2+A2"), (4, "A3+A1")],
    ("E", 6): [(1, "E6"), (2, "A5+A1"), (3, "A2+A2+A2")],
    ("E", 7): [(1, "E7"), (2, "D6+A1"), (2, "A7"), (3, "A5+A2"), (4, "A3+A3+A1")],
    ("E", 8): [
        (1, "E8"), (2, "D8"), (2, "E7+A1"), (3, "A8"), (3, "E6+A2"),
        (4, "A7+A1"), (4, "D5+A3"), (5, "A4+A4"), (6, "A5+A2+A1"),
    ],
}


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
@pytest.mark.parametrize("series, rank", list(EXCEPTIONAL_H_TYPES))
def test_enumerate_exceptional_matches_borel_de_siebenthal(series, rank, isogeny):
    triples = enumerate_split_elliptic(build_root_datum(series, rank, isogeny))
    got = sorted((t.ord_s, t.h_type) for t in triples)
    assert got == sorted(EXCEPTIONAL_H_TYPES[series, rank])


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
    # a datum built apart from the registry gets its own, equal action
    other = center_alcove_action(_fresh(g))
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


def test_pseudo_levi_refuses_a_planted_dependent_node_set():
    """The last node of every pseudo-Levi of every admitted datum past A1
    (whose one node is the first and the last) replaced by the first node,
    and by its negative: the datum's validation refuses each. The root
    count of `cartan_type`, once the only refusal left, passes some of both
    plants."""
    missed = [0, 0]
    for series, rank in [t for t in ADMITTED if t != ("A", 1)]:
        for isogeny in ("sc", "ad"):
            g = build_root_datum(series, rank, isogeny)
            for vertex in range(rank + 1):
                sub = pseudo_levi(g, vertex)
                nodes = list(sub.simple_indices)
                minus = sub.roots.index(tuple(-x for x in sub.roots[nodes[0]]))
                for plant, last in enumerate((nodes[0], minus)):
                    planted = nodes[:-1] + [last]
                    with pytest.raises(ValueError, match="linearly dependent"):
                        RootDatum(sub.rank, sub.roots, sub.coroots, planted)
                    unchecked = RootDatum(sub.rank, sub.roots, sub.coroots, planted, validate=False)
                    try:
                        unchecked.cartan_type()
                    except ValueError:
                        continue
                    missed[plant] += 1
    assert missed[0] > 0 and missed[1] > 0


def test_pseudo_levi_bad_vertex():
    with pytest.raises(ValueError, match="out of range"):
        pseudo_levi(_sc("A", 2), 9)
    # a vertex is an int: a float or a bool passes the range check, where
    # 1.5 names no node and 2.0 and True would read as nodes 2 and 1
    for vertex in (1.5, 2.0, True):
        with pytest.raises(ValueError, match=f"vertex {vertex!r} is not an int"):
            pseudo_levi(_sc("B", 3), vertex)


def test_origin_pseudo_levi_is_the_dual_and_passes_validation():
    """Deleting the affine node leaves the whole dual, so the origin's
    pseudo-Levi is the dual object itself, with sorted roots like every
    datum. The dual is built unvalidated; a validated copy accepts it, the
    only check the F4 and G2 duals get, since they equal no registry datum."""
    for series, rank in ADMITTED:
        for isogeny in ("sc", "ad"):
            g = build_root_datum(series, rank, isogeny)
            d = dual_datum(g)
            assert pseudo_levi(g, 0) is d
            assert list(d.roots) == sorted(d.roots)
            RootDatum(d.rank, d.roots, d.coroots, d.simple_indices)


def test_no_datum_is_validated_twice(monkeypatch):
    """Every admitted datum in both isogenies, built outside the registry so
    that nothing is cached yet, then enumerated, all in one process: each
    (rank, roots, coroots, simple indices) is validated once."""
    seen = []
    validate = RootDatum._validate

    def counted(d, codes):
        seen.append((d.rank, d.roots, d.coroots, d.simple_indices))
        validate(d, codes)

    monkeypatch.setattr(RootDatum, "_validate", counted)
    data = [build_root_datum.__wrapped__(s, r, isogeny) for s, r in ADMITTED for isogeny in ("sc", "ad")]
    for g in data:
        enumerate_split_elliptic(g)
    assert len(seen) > len(data)
    repeated = {key for key in seen if seen.count(key) > 1}
    assert not repeated, [(rank, len(roots)) for rank, roots, _, _ in repeated]


# ---------------------------------------------------------------------------
# kappa route


def _vertex_pairs(series, rank, node):
    """The (root, coroot) pairs of the dual of the simply connected datum
    whose roots pair integrally with the alcove vertex of the node: the
    input that `endoscopic_from_kappa` gives `sub_datum_from_pairs`."""
    d = dual_datum(_sc(series, rank))
    pairs, _ = _kappa_pairings(d, *_clear_denominators(alcove_vertices(d)[node]))
    return d.rank, pairs


_RANGE_REFUSED = "root entry or pairing outside [-128, 128), ROOT_ENTRY_BOUND = 128"


@pytest.mark.parametrize("series,rank,node", [("B", 3, 3), ("C", 4, 2), ("F", 4, 2), ("G", 2, 2), ("E", 6, 4)])
def test_kappa_route_refuses_what_validation_refuses(series, rank, node):
    """The kappa route, called directly, still runs every check of
    validation, with its text. Without the pair of -alpha for a simple root
    alpha the positive roots, so the simple roots, are unchanged, and the
    set is not reflection-closed (s_alpha alpha = -alpha). With the
    coroots of alpha and -alpha swapped, <alpha, -alpha^vee> = -2. A pair
    with an entry at either end of the packed range, appended with a
    coroot that fails <beta, beta^vee> = 2 as well, is refused by the
    range budget, the first check of the route."""
    n, pairs = _vertex_pairs(series, rank, node)
    sub = sub_datum_from_pairs(n, pairs)
    assert 0 < len(sub.simple_indices) <= n
    for a, av in zip(sub.simple_roots, sub.simple_coroots):
        neg = (tuple(-x for x in a), tuple(-x for x in av))
        k, kneg = pairs.index((a, av)), pairs.index(neg)
        with pytest.raises(ValueError, match="^root set not reflection-closed$"):
            sub_datum_from_pairs(n, pairs[:kneg] + pairs[kneg + 1:])
        swapped = list(pairs)
        swapped[k], swapped[kneg] = (a, neg[1]), (neg[0], av)
        first = pairs[min(k, kneg)][0]
        with pytest.raises(ValueError, match=f"^{re.escape(f'<beta, beta^vee> != 2 for {first}')}$"):
            sub_datum_from_pairs(n, swapped)
    for entry in (ROOT_ENTRY_BOUND, -ROOT_ENTRY_BOUND - 1):
        far = ((entry,) + (1,) * (n - 1), (0,) * n)
        with pytest.raises(ValueError, match=f"^{re.escape(_RANGE_REFUSED)}$"):
            sub_datum_from_pairs(n, pairs + [far])


def test_warm_kappa_call_validates_its_subsystem_once(monkeypatch):
    """A warm `endoscopic_from_kappa` call validates one datum, its kappa
    subsystem, once: at an alcove vertex (elliptic), at the origin and at a
    point whose integral roots do not span, counted as
    `test_no_datum_is_validated_twice` counts."""
    calls = []
    for series, rank in [("A", 2), ("B", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2), ("E", 8)]:
        g = _sc(series, rank)
        vertex = alcove_vertices(dual_datum(g))[rank]
        levi = (Fraction(1, 7),) + (Fraction(0),) * (rank - 1)
        for kappa, elliptic in ((vertex, True), ((0,) * rank, True), (levi, False)):
            assert endoscopic_from_kappa(g, kappa).elliptic == elliptic
            calls.append((g, kappa))
    seen = []
    validate = RootDatum._validate

    def counted(d, codes):
        seen.append((d.rank, d.roots, d.coroots, d.simple_indices))
        validate(d, codes)

    monkeypatch.setattr(RootDatum, "_validate", counted)
    for g, kappa in calls:
        seen.clear()
        endoscopic_from_kappa(g, kappa)
        assert len(seen) == 1, (g, kappa, len(seen))


def test_kappa_zero_is_trivial():
    g = _sc("C", 2)
    t = endoscopic_from_kappa(g, (0, 0))
    assert t.elliptic
    assert t.ord_s == 1
    assert t.h_type == "B2"
    assert 0 in t.vertex_orbit


def test_kappa_sp4_vertex():
    g = _sc("C", 2)
    v = alcove_vertices(dual_datum(g))[2]
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


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
def test_kappa_vertex_sweep_every_datum(isogeny):
    # every alcove vertex, as is and moved by a far coroot-lattice vector
    # (which keeps its integral roots), must reproduce the enumerated triple
    # of its orbit
    rng = random.Random(f"vertex-sweep-{isogeny}")
    for series, rank in ADMITTED:
        g = build_root_datum(series, rank, isogeny)
        d = dual_datum(g)
        act = center_alcove_action(g)
        by_node = {}
        for t in enumerate_split_elliptic(g):
            for node in t.vertex_orbit:
                by_node[node] = t
        for node, v in enumerate(alcove_vertices(d)):
            coef = [rng.randint(-10**6, 10**6) for _ in d.simple_coroots]
            shift = [sum(c * av[k] for c, av in zip(coef, d.simple_coroots)) for k in range(rank)]
            far = tuple(a + b for a, b in zip(v, shift))
            for kappa in (v, far):
                got = endoscopic_from_kappa(g, kappa)
                assert got is by_node[node], (series, rank, node, kappa)
                assert got.ord_s == act.ext.marks[node]


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


def _fold_point(d, ext, x):
    """`fold_to_alcove` on a Fraction point x of Y tensor Q: its Kac
    coordinates at scale n, the lcm of the denominators, in, and the point
    sum_i (m_i p_i / n) vertex_i back out, vertex_i from `alcove_vertices`."""
    x = tuple(Fraction(v) for v in x)
    n = lcm(1, *(v.denominator for v in x))
    y = [int(v * n) for v in x]
    p = fold_to_alcove(d, ext, [n * (i == 0) + _qdot(a, y) for i, a in enumerate(ext.node_vectors)])
    assert all(type(t) is int and t >= 0 for t in p)
    assert sum(m * t for m, t in zip(ext.marks, p)) == n
    vertices = alcove_vertices(d)
    return tuple(
        sum((Fraction(m * t, n) * vert[k] for m, t, vert in zip(ext.marks, p, vertices)), Fraction(0))
        for k in range(d.rank)
    )


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
        got = _fold_point(d, ext, x)
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
        assert _fold_point(d, ext, far) == _fraction_fold(d, ext, x)


def test_fold_stays_far_below_its_budget(monkeypatch):
    # the coroot translation bounds the passes over the nodes independently
    # of the point: every datum's alcove vertices stay put and far points
    # land in the closed alcove within 32 passes (20 at most measured)
    monkeypatch.setattr(endoscopy, "FOLD_BUDGET", 32)
    for series, rank in ADMITTED:
        for isogeny in ("sc", "ad"):
            d = build_root_datum(series, rank, isogeny)
            ext = extended_dynkin(d)
            vertices = alcove_vertices(d)
            for v in vertices:
                assert _fold_point(d, ext, v) == v
            rng = random.Random(f"{series}{rank}{isogeny}")
            for _ in range(8):
                x = _random_point(rng, rank, size=10**6)
                assert _in_closed_alcove(ext, _fold_point(d, ext, x)), x


def test_fold_budget_is_named(monkeypatch):
    monkeypatch.setattr(endoscopy, "FOLD_BUDGET", 1)
    d, ext = _dual_and_ext("A", 2, "sc")
    with pytest.raises(AssertionError, match=r"step budget FOLD_BUDGET = 1$"):
        _fold_point(d, ext, (Fraction(-5, 2), Fraction(7, 3)))


def _fraction_center_action(g):
    """Reference center action: translate each Fraction alcove vertex by each
    mark-1 vertex and fold it with `_fraction_fold`, the vertex found by
    lookup; classes from the omega-vee coordinates of the translation."""
    d = dual_datum(g)
    ext = extended_dynkin(d)
    pres = cokernel_group(IntMatrix(d.cartan()).transpose())
    vertices = alcove_vertices(d)
    index = {v: i for i, v in enumerate(vertices)}
    perms = {}
    for mu, mark in zip(vertices, ext.marks):
        if mark != 1:
            continue
        coords = [_qdot(a, mu) for a in d.simple_roots]
        assert all(c.denominator == 1 for c in coords)
        cls = pres.torsion_coords([int(c) for c in coords])
        perms[cls] = tuple(
            index[_fraction_fold(d, ext, tuple(a + b for a, b in zip(v, mu)))] for v in vertices
        )
    return perms


def _closure_orbits(perms, n_nodes):
    """Orbits of the nodes under the group generated by the permutations,
    by a breadth-first closure, in the order of their smallest nodes."""
    orbits, seen = [], set()
    for start in range(n_nodes):
        if start in seen:
            continue
        orb, frontier = {start}, [start]
        while frontier:
            i = frontier.pop()
            for p in perms:
                if p[i] not in orb:
                    orb.add(p[i])
                    frontier.append(p[i])
        orbits.append(frozenset(orb))
        seen |= orb
    return orbits


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
def test_center_action_matches_fraction_translate_and_fold(isogeny):
    # the action reads each orbit off its table as {p[i]}; the reference
    # closes each node under the permutations of the Fraction action
    for series, rank in ADMITTED:
        g = build_root_datum(series, rank, isogeny)
        act = center_alcove_action(g)
        perms = _fraction_center_action(g)
        assert act.permutations == perms, (series, rank)
        orbits = _closure_orbits(perms.values(), act.ext.n_nodes)
        assert act.orbits == orbits, (series, rank)
        assert act.orbit_of == {i: o for o in orbits for i in o}, (series, rank)


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
    pairs, ord_s = _kappa_pairings(d, *_clear_denominators(kappa))
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
        vertices = alcove_vertices(dual_datum(g))
        for t in enumerate_split_elliptic(g):
            for node in t.vertex_orbit:
                assert endoscopic_from_kappa(g, vertices[node]) is t
        # one entry per orbit, under its smallest node
        stored = _stored_triples(g)
        assert sorted(stored) == sorted(min(o) for o in act.orbits)
        assert all(min(t.vertex_orbit) == node for node, t in stored.items())


def test_non_elliptic_kappa_is_never_stored():
    g = _fresh(_sc("C", 3))
    for kappa in ((Fraction(1, 7), 0, 0), (Fraction(1, 2), Fraction(1, 3), 0)):
        t = endoscopic_from_kappa(g, kappa)
        assert not t.elliptic
    assert _stored_triples(g) == {}
    t = endoscopic_from_kappa(g, (0, 0, 0))
    assert _stored_triples(g) == {0: t}
