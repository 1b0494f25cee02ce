"""Acceptance battery: ten end-to-end criteria, one test per criterion.

Each test prints a single [C#] PASS line with coverage numbers when it
succeeds; a failed assertion is the fail line.  Time budgets are enforced
with monotonic clocks; every numeric comparison is exact (Fractions and
cyclotomic integers), no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from liechar.dl_spectra import (
    character_table_dixon,
    classical_table_oracle,
    dl_jordan_reduction_check,
    nonsingular_characters,
    springer_check,
    tables_match,
)
from liechar.endoscopy import enumerate_split_elliptic, estimate_diagram_check
from liechar.exact_math import FinAbGroup, IntMatrix
from liechar.finite_lie import (
    build_finite_group,
    is_strongly_regular,
    tori_and_regularity,
)
from liechar.galois_tori import TwistedTorus, component_group_pi0, sln_kappa_group
from liechar.padic import (
    TruncatedMatrix,
    hilbert_symbol,
    quasi_log_bijection_check,
    relevant_places,
    topological_jordan,
)
from liechar.root_datum import build_root_datum

from test_galois_tori import _oracle_group, _random_finite_order


def test_c01_springer_trace_identity_exact():
    """Exact trace identity rho(u) = (1/q) * Fourier sum over the adjoint
    orbit, for every torus class, non-singular character, strongly regular
    point, and unipotent class; SL2 and GL2 at q in {3,5,7,11}."""
    start = time.monotonic()
    cases = 0
    for kind in ("SL2", "GL2"):
        for q in (3, 5, 7, 11):
            g = build_finite_group(kind, q)
            tori = tori_and_regularity(g)
            assert len(tori) == 2
            for torus in tori:
                thetas = nonsingular_characters(torus)
                points = [t for t in torus.lie_points() if is_strongly_regular(g, t)]
                assert points, (kind, q, torus.tag)
                for theta in thetas:
                    for t in points:
                        rep = springer_check(g, torus, theta, t, all_unipotent=True)
                        assert rep["pass"], rep
                        cases += len(rep["cases"])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert cases > 40000
    print(f"[C1] PASS - trace identity: {cases} exact cases in {elapsed:.2f}s")


def test_c02_reduction_identity_mixed_classes():
    """Exact reduction identity on every mixed class (central times
    non-trivial unipotent) of GL2 at q in {3,5}, all non-singular
    characters of both tori."""
    start = time.monotonic()
    cases = 0
    for q in (3, 5):
        g = build_finite_group("GL2", q)
        mixed = [g.pack([[x, 1], [0, x]]) for x in range(1, q)]
        for torus in tori_and_regularity(g):
            for theta in nonsingular_characters(torus):
                for gamma in mixed:
                    rep = dl_jordan_reduction_check(g, torus, theta, gamma)
                    assert rep["pass"], rep
                    assert rep["delta_kind"] == "central"
                    cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[C2] PASS - reduction identity: {cases} mixed cases in {elapsed:.2f}s")


def _golden(triples):
    return {
        (t.ord_s, t.h_type, t.lam.torsion, tuple(sorted(t.vertex_orbit)))
        for t in triples
    }


def test_c03_split_elliptic_enumeration_goldens():
    """Enumerated elliptic data match the derived golden tables."""
    for rank in (1, 2, 3, 4):
        triples = enumerate_split_elliptic(build_root_datum("A", rank, "sc"))
        assert len(triples) == 1
        t = triples[0]
        assert t.ord_s == 1 and t.h_type == f"A{rank}" and t.lam == FinAbGroup()
    assert _golden(enumerate_split_elliptic(build_root_datum("B", 2, "sc"))) == {
        (1, "B2", (), (0, 2)),
        (2, "A1+A1", (2,), (1,)),
    }
    sp4 = enumerate_split_elliptic(build_root_datum("C", 2, "sc"))
    assert _golden(sp4) == {
        (1, "B2", (), (0, 1)),
        (2, "A1+A1", (2,), (2,)),
    }
    assert _golden(enumerate_split_elliptic(build_root_datum("D", 4, "sc"))) == {
        (1, "D4", (), (0, 1, 3, 4)),
        (2, "A1+A1+A1+A1", (2, 2), (2,)),
    }
    f4 = enumerate_split_elliptic(build_root_datum("F", 4, "sc"))
    assert {(t.ord_s, t.h_type) for t in f4} == {
        (1, "F4"),
        (2, "C4"),
        (2, "B3+A1"),
        (3, "A2+A2"),
        (4, "A3+A1"),
    }
    g2 = enumerate_split_elliptic(build_root_datum("G", 2, "sc"))
    assert {(t.ord_s, t.h_type) for t in g2} == {(1, "G2"), (2, "A1+A1"), (3, "A2")}
    assert sorted(t.ord_s for t in g2) == [1, 2, 3]
    assert _golden(enumerate_split_elliptic(build_root_datum("E", 6, "sc"))) == {
        (1, "E6", (), (0, 1, 6)),
        (2, "A5+A1", (), (2, 3, 5)),
        (3, "A2+A2+A2", (3,), (4,)),
    }
    print("[C3] PASS - enumeration goldens: A1-A4, B2, C2, D4, F4, G2, E6")


def test_c04_center_orbit_diagram_facts():
    """D_n (4 <= n <= 8) has no non-special center orbit of size > 2;
    E6 has exactly one, of order 2, with center of order 3."""
    for n in range(4, 9):
        rep = estimate_diagram_check(build_root_datum("D", n, "sc"))
        assert rep["large_nonspecial_orbits"] == [], rep
    rep = estimate_diagram_check(build_root_datum("E", 6, "sc"))
    large = rep["large_nonspecial_orbits"]
    assert len(large) == 1
    assert large[0]["ord_s"] == 2
    assert rep["center_order"] == 3
    print("[C4] PASS - diagram facts: D4-D8 empty, E6 single orbit of order 2")


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_c05_sln_kappa_group_closure():
    """Witness class sets form subgroups for every n <= 6, m | n, and
    every degree partition; the library raises if closure fails."""
    start = time.monotonic()
    combos = 0
    for n in range(1, 7):
        for m in range(1, n + 1):
            if n % m:
                continue
            for degs in _partitions(n // m):
                grp, wits = sln_kappa_group(n, m, degs)
                assert len({cls for _, cls in wits}) == grp.order
                combos += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[C5] PASS - kappa-class closure: {combos} (n, m, partition) combos in {elapsed:.2f}s")


def test_c06_coinvariant_torsion_oracle():
    """Torsion of Frobenius coinvariants matches the ker(norm)/im(F-1)
    oracle on 50 random finite-order lattices, and the norm-one torus
    gives exactly Z/2."""
    rng = random.Random(60)
    for trial in range(50):
        n = rng.randint(1, 5)
        f = _random_finite_order(rng, n)
        torus = TwistedTorus(n, f)
        data = component_group_pi0(torus)
        oracle = _oracle_group(f, torus.order)
        assert data.h1.serialize() == oracle.serialize(), (trial, f.rows)
    norm_one = component_group_pi0(TwistedTorus(1, IntMatrix([[-1]])))
    assert list(norm_one.invariant_factors) == [2]
    print("[C6] PASS - coinvariant torsion: 50 random lattices + norm-one torus")


def test_c07_quasi_log_bijection():
    """|U_k| = |N_k| and the quasi-logarithm is a bijection for SL2 at
    (p, k) in {(3,1), (3,2), (5,1)}, by exhaustive enumeration."""
    expected = {(3, 1): 9, (3, 2): 243, (5, 1): 25}
    for (p, k), count in expected.items():
        rep = quasi_log_bijection_check("SL2", p, k)
        assert rep["pass"], rep
        assert rep["unipotent_count"] == count
        assert rep["nilpotent_count"] == count
    print("[C7] PASS - quasi-log bijection: SL2 at (3,1), (3,2), (5,1)")


def test_c08_topological_jordan_random():
    """Existence, commutation, order and unipotence post-conditions, and
    uniqueness for 100 random invertible matrices per (p, k) in
    {(3,4), (5,4)}."""
    for p, k in [(3, 4), (5, 4)]:
        rng = random.Random(800 + p)
        mod = p**k
        ident = TruncatedMatrix.identity(2, p, k)
        for _ in range(100):
            while True:
                g = TruncatedMatrix(
                    2, p, k, [[rng.randrange(mod) for _ in range(2)] for _ in range(2)]
                )
                if g.is_invertible():
                    break
            delta, u = topological_jordan(g)
            assert delta.mul(u) == g and u.mul(delta) == g
            r = 1
            acc = delta
            while acc != ident:
                acc = acc.mul(delta)
                r += 1
            assert r % p != 0
            acc = u
            for _ in range(k + 8):
                if acc == ident:
                    break
                acc = acc.pow(p)
            assert acc == ident
            # uniqueness: among all finite-order elements of <delta>, only
            # delta itself leaves a topologically unipotent cofactor
            cand = ident
            hits = []
            for _ in range(r):
                red = TruncatedMatrix(2, p, 1, cand.inverse().mul(g).rows)
                trace = red.rows[0][0] + red.rows[1][1]
                if trace % p == 2 % p and IntMatrix(red.rows).det() % p == 1 % p:
                    hits.append(cand)
                cand = cand.mul(delta)
            assert hits == [delta]
    print("[C8] PASS - topological Jordan: 100 random matrices per (3,4), (5,4)")


def test_c09_hilbert_reciprocity():
    """Product over all relevant places of (a, b)_v equals 1 for 200
    random rational pairs."""
    rng = random.Random(900)
    for _ in range(200):
        a = Fraction(rng.randrange(-80, 81) or 1, rng.randrange(1, 50))
        b = Fraction(rng.randrange(-80, 81) or 1, rng.randrange(1, 50))
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
    print("[C9] PASS - Hilbert reciprocity: 200 random pairs")


def test_c10_character_table_oracle_agreement():
    """Dixon tables equal the classical tables exactly (up to row order)
    for GL2(3), SL2(3), SL2(5); orthogonality exact on every table."""
    for kind, q in [("GL2", 3), ("SL2", 3), ("SL2", 5)]:
        g = build_finite_group(kind, q)
        dixon = character_table_dixon(g)
        classical = classical_table_oracle(kind, q)
        assert tables_match(dixon, classical), (kind, q)
        assert dixon.verify()
        assert classical.verify()
    print("[C10] PASS - character tables: Dixon = classical for GL2(3), SL2(3), SL2(5)")
