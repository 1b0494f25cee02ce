"""Seeded inputs of the three workloads. The same seed gives the same inputs.

The seed moves only choices that keep the amount of work per run about the
same: lattice translates of the rational points kappa in the atlas, the output
format of each table in the character sweep, and the order and inputs of
the query stream. The set and order of the CLI calls is fixed, because in a
cold interpreter the first call of a kind pays for caches the later ones
share.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import checks
import rootsys

ISOGENIES = ("sc", "ad")

# enumerate and estimate in both isogenies (estimate skips type A)
ATLAS_TYPES = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", 4), ("F", 4), ("G", 2), ("E", 6)]
)
# enumerate in the simply connected isogeny only: E7 enumerate costs a
# quarter of a batch, and the adjoint E7 still comes through from-kappa
ATLAS_ENUMERATE_SC = [("E", 7)]
# one elliptic and one non-elliptic kappa each, in a seeded isogeny; E8
# (both simply connected and adjoint) enters the atlas here
ATLAS_KAPPA_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6), ("E", 7), ("E", 8)]

SWEEP_GROUPS = [("SL2", 3), ("SL2", 5), ("SL2", 7), ("SL2", 9), ("SL2", 11), ("GL2", 3), ("GL2", 5)]

TINY = {
    "atlas_types": [("A", 2), ("B", 2), ("G", 2)],
    "atlas_enumerate_sc": [],
    "atlas_kappa_types": [("B", 2), ("G", 2)],
    "sweep_groups": [("SL2", 3), ("SL2", 5), ("GL2", 3)],
}

# The service's working set; in each list index 0 is the most popular.
WORKING_SET = {
    "groups": [
        ("GL2", 3), ("SL2", 5), ("SL2", 3), ("GL2", 5), ("SL2", 7),
        ("SL2", 11), ("GL2", 7), ("SL2", 13), ("SL2", 9),
    ],
    "root_types": [
        ("A", 2), ("C", 2), ("G", 2), ("B", 3), ("A", 3), ("C", 3), ("D", 4),
        ("B", 2), ("A", 1), ("B", 4), ("F", 4), ("C", 4), ("A", 4),
    ],
    # finite-order Frobenius matrices on cocharacter lattices of rank 1 to 4
    "lattices": [
        [[-1]],
        [[0, 1], [1, 0]],
        [[0, -1], [1, 0]],
        [[0, -1], [1, -1]],
        [[-1, 0], [0, -1]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1], [1, 0, 0], [0, 1, 0]],
    ],
}

TINY_WORKING_SET = {
    "groups": [("GL2", 3), ("SL2", 5)],
    "root_types": [("A", 2), ("B", 2), ("G", 2)],
    "lattices": WORKING_SET["lattices"][:3],
}

# requests of each kind in one round of the query stream
ROUND_PER_KIND = 40
TINY_ROUND_PER_KIND = 4
# (p, k) of the matrices sent to topological_jordan
TJD_RINGS = [(p, k) for p in (3, 5, 7) for k in (2, 3, 4)]

SERVE_KINDS = (
    "springer_check",
    "dl_jordan_reduction_check",
    "dl_value",
    "endoscopic_from_kappa",
    "topological_jordan",
    "hilbert",
    "tn_pairing",
)


def _kappa_text(kappa):
    return json.dumps([str(x) for x in kappa])


def elliptic_kappa(rng, series, rank, isogeny, node=None):
    """An alcove vertex of the dual (a seeded node unless given) moved by a
    seeded lattice vector: the roots pairing integrally with it are those of
    the vertex, so it is elliptic."""
    if node is None:
        node = rng.randint(1, rank)
    v = rootsys.alcove_vertex(series, rank, isogeny, node)
    return [x + rng.randint(-2, 2) for x in v], node


def levi_kappa(rng, series, rank, isogeny, node):
    """(a/7) omega_node moved by a seeded lattice vector, a seeded in 1..6.
    A root pairs integrally with it iff its coefficient on the node's simple
    root is 0 (marks are at most 6), so the integral roots form the rank
    n - 1 Levi subsystem of that node: never elliptic."""
    mark = rootsys.dual_marks(series, rank)[node]
    a = rng.randint(1, 6)
    return [x * mark * a / 7 + rng.randint(-2, 2) for x in rootsys.alcove_vertex(series, rank, isogeny, node)]


def generic_kappa(rng, series, rank, isogeny):
    """A point with a seeded prime denominator whose integral roots do not span."""
    while True:
        den = rng.choice((5, 7, 11, 13))
        kappa = [Fraction(rng.randint(-den, den), den) for _ in range(rank)]
        ints, _ = rootsys.integral_roots(series, rank, isogeny, kappa)
        if rootsys.rank_of(ints, rank) < rank:
            return kappa


def atlas_commands(seed, tiny=False):
    """(argv, meta) pairs: enumerate/estimate for every type in both
    isogenies, then from-kappa at seeded points."""
    rng = random.Random(seed)
    types = TINY["atlas_types"] if tiny else ATLAS_TYPES
    enum_sc = TINY["atlas_enumerate_sc"] if tiny else ATLAS_ENUMERATE_SC
    kappa_types = TINY["atlas_kappa_types"] if tiny else ATLAS_KAPPA_TYPES
    out = []
    for series, rank, iso, cmd in (
        [(s, n, iso, cmd) for s, n in types for iso in ISOGENIES for cmd in ("enumerate", "estimate")]
        + [(s, n, "sc", "enumerate") for s, n in enum_sc]
    ):
        if cmd == "estimate" and series == "A":
            continue
        meta = {"cmd": cmd, "series": series, "rank": rank, "isogeny": iso}
        out.append((["endoscopy", cmd, "--type", f"{series}{rank}", "--isogeny", iso], meta))
    for series, rank in kappa_types:
        # fixed nodes and isogenies keep the cost of these calls the same
        # on every seed: the vertex of largest mark, simply connected, and
        # the Levi point of node 1, adjoint
        marks = rootsys.dual_marks(series, rank)
        top = max(range(1, rank + 1), key=lambda i: (marks[i], -i))
        points = [
            ("sc", *elliptic_kappa(rng, series, rank, "sc", top)),
            ("ad", levi_kappa(rng, series, rank, "ad", 1), None),
        ]
        for iso, kappa, vertex in points:
            meta = {"cmd": "from-kappa", "series": series, "rank": rank, "isogeny": iso,
                    "kappa": [str(x) for x in kappa], "vertex": vertex}
            argv = ["endoscopy", "from-kappa", "--type", f"{series}{rank}", "--isogeny", iso,
                    "--kappa", _kappa_text(kappa)]
            out.append((argv, meta))
    return out


def sweep_commands(seed, tiny=False):
    """springer verify --all and both chartable methods per group; each
    table's output format is seeded."""
    rng = random.Random(seed)
    out = []
    for kind, q in TINY["sweep_groups"] if tiny else SWEEP_GROUPS:
        base = {"group": kind, "q": q}
        out.append((["springer", "verify", "--group", kind, "--q", str(q), "--all"], dict(base, cmd="springer")))
        for method in ("dixon", "classical"):
            fmt = rng.choice(("csv", "json"))
            argv = ["chartable", "--group", kind, "--q", str(q), "--method", method, "--format", fmt]
            out.append((argv, dict(base, cmd="chartable", method=method, format=fmt)))
    return out


# ---------------------------------------------------------------------------
# query-serve


def working_set_spec(tiny=False):
    return TINY_WORKING_SET if tiny else WORKING_SET


def _zipf(n, s=1.2):
    return [1.0 / (i + 1) ** s for i in range(n)]


def _quota_slots(weights, total):
    """total item indices, each item as often as its weight's share of total
    (largest remainder), so that popularity is exact in every round."""
    raw = [w * total / sum(weights) for w in weights]
    quotas = [int(r) for r in raw]
    for i in sorted(range(len(raw)), key=lambda i: quotas[i] - raw[i])[: total - sum(quotas)]:
        quotas[i] += 1
    return [i for i, n in enumerate(quotas) for _ in range(n)]


def invariant_factors(frob):
    """Torsion invariant factors of coker(F - 1), from the gcds of its
    minors (determinantal divisors)."""
    n = len(frob)
    m = [[frob[i][j] - (i == j) for j in range(n)] for i in range(n)]
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, rootsys.det([[m[r][c] for c in cols] for r in rows]))
        if g == 0:
            break
        divisors.append(g)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]
    return [d for d in factors if d > 1]


def serve_round_size(tiny=False):
    return len(SERVE_KINDS) * (TINY_ROUND_PER_KIND if tiny else ROUND_PER_KIND)


def serve_stream(seed, rounds, tiny=False):
    """(request, meta) pairs in rounds. Every round holds the same multiset
    of slots: each kind equally often, and within a kind each group, root
    datum, lattice or p-adic ring as often as its Zipf popularity says (a
    flatter law for root data, so that the rank-4 elliptic points, the
    heaviest requests after first touches, hold the 99th percentile). The
    seed shuffles each round and draws the inputs inside each slot."""
    rng = random.Random(seed)
    ws = working_set_spec(tiny)
    per_kind = TINY_ROUND_PER_KIND if tiny else ROUND_PER_KIND
    items = {
        "group": _quota_slots(_zipf(len(ws["groups"])), per_kind),
        "endoscopic_from_kappa": _quota_slots(_zipf(len(ws["root_types"]), 0.8), per_kind),
        "tn_pairing": _quota_slots(_zipf(len(ws["lattices"])), per_kind),
        "topological_jordan": _quota_slots([1] * len(TJD_RINGS), per_kind),
        "hilbert": [0] * per_kind,
    }
    factors = [invariant_factors(f) for f in ws["lattices"]]
    out = []
    for r in range(rounds):
        slots = [
            (kind, item, r + j)
            for kind in SERVE_KINDS
            for j, item in enumerate(items.get(kind, items["group"]))
        ]
        rng.shuffle(slots)
        out.extend(_request(rng, ws, factors, kind, item, parity) for kind, item, parity in slots)
    return out


def _request(rng, ws, factors, kind, item, parity):
    """One request of the given kind on working-set item index item; parity
    alternates the torus, the isogeny and elliptic/generic kappa."""
    req = {"kind": kind}
    meta = {}
    if kind in ("springer_check", "dl_jordan_reduction_check", "dl_value"):
        gkind, q = ws["groups"][item]
        counts = checks.nonsingular_counts(gkind, q)
        tori = [i for i in (0, 1) if counts[i] > 0]
        ti = tori[parity % len(tori)]
        req.update(group=item, torus=ti, theta=rng.randrange(counts[ti]))
        if kind == "springer_check":
            req["point"] = rng.randrange(checks.strongly_regular_counts(gkind, q)[ti])
            key = (kind, item, ti, req["theta"], req["point"])
        else:
            req["element"] = rng.randrange(checks.group_order(gkind, q))
            key = (kind, item, ti, req["theta"])
        meta.update(group=gkind, q=q, torus=("split", "elliptic")[ti])
    elif kind == "endoscopic_from_kappa":
        series, rank = ws["root_types"][item]
        iso = ISOGENIES[parity // 2 % 2]
        if parity % 2 == 0:
            kappa, vertex = elliptic_kappa(rng, series, rank, iso)
        else:
            kappa, vertex = generic_kappa(rng, series, rank, iso), None
        req.update(series=series, rank=rank, isogeny=iso, kappa=[str(x) for x in kappa])
        meta["vertex"] = vertex
        key = (kind, series, rank, iso)
    elif kind == "topological_jordan":
        p, k = TJD_RINGS[item]
        while True:
            mat = [[rng.randrange(p**k) for _ in range(2)] for _ in range(2)]
            if (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % p:
                break
        req.update(p=p, k=k, matrix=mat)
        key = (kind, p, k)
    elif kind == "hilbert":
        a = Fraction(rng.randint(1, 60) * rng.choice((1, -1)), rng.randint(1, 30))
        b = Fraction(rng.randint(1, 60) * rng.choice((1, -1)), rng.randint(1, 30))
        req.update(a=str(a), b=str(b))
        key = (kind,)
    else:
        d = factors[item]
        req.update(lattice=item, inv=[rng.randrange(x) for x in d], kappa=[rng.randrange(x) for x in d])
        meta["factors"] = d
        key = (kind, item)
    meta["key"] = list(key)
    return req, meta
