"""Checks on liechar's outputs that do not copy today's output.

Each check recomputes what the mathematics requires: root counts and
marks from rootsys, class and degree counts from closed forms in q, table
orthogonality from the printed values evaluated as complex numbers, and
the p-adic and pairing identities with plain integer arithmetic. A check
raises CheckError with a one-line reason on the first violation.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import rootsys

_CYC_RE = re.compile(r"cyc(\d+)\[([^\]]*)\]$")
_SIZE_RE = re.compile(r"class(\d+)_size(\d+)$")


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# closed forms for GL2 and SL2 over F_q, q odd


def group_order(kind, q):
    return (q * q - 1) * (q * q - q) if kind == "GL2" else q * (q * q - 1)


def nonsingular_counts(kind, q):
    """Characters in general position on the (split, elliptic) torus."""
    return ((q - 1) * (q - 2), q * (q - 1)) if kind == "GL2" else (q - 3, q - 1)


def strongly_regular_counts(kind, q):
    """Regular semisimple points of Lie(T) for the (split, elliptic) torus."""
    return (q * (q - 1),) * 2 if kind == "GL2" else (q - 1,) * 2


def class_size_counts(kind, q):
    if kind == "GL2":
        parts = [(1, q - 1), (q * q - 1, q - 1), (q * (q + 1), (q - 1) * (q - 2) // 2), (q * (q - 1), q * (q - 1) // 2)]
    else:
        parts = [(1, 2), ((q * q - 1) // 2, 4), (q * (q + 1), (q - 3) // 2), (q * (q - 1), (q - 1) // 2)]
    out = Counter()
    for size, mult in parts:
        out[size] += mult
    return +out


def degree_counts(kind, q):
    if kind == "GL2":
        parts = [(1, q - 1), (q, q - 1), (q + 1, (q - 1) * (q - 2) // 2), (q - 1, q * (q - 1) // 2)]
    else:
        parts = [(1, 1), (q, 1), (q + 1, (q - 3) // 2), (q - 1, (q - 1) // 2), ((q + 1) // 2, 2), ((q - 1) // 2, 2)]
    out = Counter()
    for deg, mult in parts:
        out[deg] += mult
    return +out


def unipotent_class_count(kind):
    return 2 if kind == "GL2" else 3


# ---------------------------------------------------------------------------
# printed values


def parse_value(text):
    """A printed exact value as a complex number: 'cycN[c0,...]' is
    sum c_k zeta_N^k; anything else is a rational."""
    m = _CYC_RE.match(text)
    if not m:
        return complex(float(Fraction(text)))
    n = int(m.group(1))
    coeffs = [Fraction(c) for c in m.group(2).split(",")]
    return sum(float(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# endoscopy-atlas


def _lambda_order(lam):
    require(lam["free_rank"] == 0, "Lambda has a free part")
    return prod(lam["torsion"])


def _vertex_root_count(series, rank, node):
    """Roots of the dual pairing integrally with the alcove vertex of node:
    all of them at node 0, else those whose coefficient on the node's simple
    root is 0 or +-mark (Borel-de Siebenthal)."""
    pos = rootsys.positive_roots(rootsys.transpose(rootsys.cartan(series, rank)))
    if node == 0:
        return 2 * len(pos)
    mark = rootsys.dual_marks(series, rank)[node]
    return 2 * sum(1 for v in pos if v[node - 1] in (0, mark))


def check_enumerate(doc, series, rank):
    z = rootsys.det(rootsys.cartan(series, rank))
    marks = rootsys.dual_marks(series, rank)
    require(isinstance(doc, list) and doc, "enumerate printed no triples")
    nodes = []
    for t in doc:
        orbit = t["orbit"]
        require(orbit, "empty orbit")
        nodes.extend(orbit)
        require(t["elliptic"] is True, "enumerated triple not elliptic")
        require(_lambda_order(t["lambda"]) * len(orbit) == z, f"|Lambda|*|orbit| != |Z| = {z} for orbit {orbit}")
        require(all(marks[i] == t["ord_s"] for i in orbit), f"ord_s {t['ord_s']} is not the mark of orbit {orbit}")
        count, h_rank = rootsys.closed_form(t["H_type"])
        require(h_rank == rank, f"H = {t['H_type']} is not of full rank {rank}")
        for i in orbit:
            require(
                count == _vertex_root_count(series, rank, i),
                f"H = {t['H_type']} has {count} roots, vertex {i} gives {_vertex_root_count(series, rank, i)}",
            )
    require(sorted(nodes) == list(range(rank + 1)), f"orbits {nodes} do not partition the {rank + 1} nodes")


def check_estimate(doc, series, rank):
    z = rootsys.det(rootsys.cartan(series, rank))
    marks = rootsys.dual_marks(series, rank)
    want = rootsys.closed_form(f"{series}{rank}")
    require(rootsys.closed_form(doc["type"]) == want, f"type {doc['type']} is not {series}{rank}")
    require(doc["center_order"] == z, f"center order {doc['center_order']} != det(Cartan) = {z}")
    special = doc["special_orbit"]
    require(0 in special, "special orbit misses the affine node")
    require(all(marks[i] == 1 for i in special), "special orbit has a node of mark > 1")
    require(z % len(special) == 0, "special orbit size does not divide |Z|")
    seen = set(special)
    for o in doc["large_nonspecial_orbits"]:
        nodes = o["orbit"]
        require(o["size"] == len(nodes) > 2, f"orbit {nodes} is not large")
        require(not seen & set(nodes), f"orbit {nodes} overlaps another")
        seen |= set(nodes)
        require(z % len(nodes) == 0, f"orbit {nodes} size does not divide |Z| = {z}")
        mark = marks[nodes[0]]
        require(all(marks[i] == mark == o["ord_s"] for i in nodes), f"ord_s of {nodes} is not its mark")
        require(o["gcd_with_center"] == gcd(mark, z), f"gcd for {nodes} != gcd({mark}, {z})")
    require(seen <= set(range(rank + 1)), "orbit node out of range")


def check_from_kappa(doc, series, rank, isogeny, kappa, vertex=None):
    """vertex: the alcove node kappa was generated from (elliptic inputs)."""
    kappa = [Fraction(x) for x in kappa]
    ints, order = rootsys.integral_roots(series, rank, isogeny, kappa)
    full = rootsys.rank_of(ints, rank) == rank
    count, h_rank = rootsys.closed_form(doc["H_type"])
    require(count == len(ints), f"H = {doc['H_type']} has {count} roots, {len(ints)} pair integrally with kappa")
    require(doc["elliptic"] == (h_rank == rank) == full, f"elliptic flag {doc['elliptic']} disagrees with the rank of H")
    require(doc["ord_s"] == order, f"ord_s {doc['ord_s']} != lcm of pairing denominators {order}")
    if doc["elliptic"]:
        z = rootsys.det(rootsys.cartan(series, rank))
        require(_lambda_order(doc["lambda"]) * len(doc["orbit"]) == z, "|Lambda|*|orbit| != |Z|")
        if vertex is not None:
            require(vertex in doc["orbit"], f"orbit {doc['orbit']} misses the vertex {vertex} kappa came from")
    else:
        require(doc["orbit"] == [] and _lambda_order(doc["lambda"]) == 1, "non-elliptic triple carries an orbit")


# ---------------------------------------------------------------------------
# character-sweep


def check_springer(doc, kind, q):
    require(doc["group"] == kind and doc["q"] == q, "springer document names another group")
    cells = Counter(c["torus"] for c in doc["cells"])
    want = nonsingular_counts(kind, q)
    require(cells["split"] == want[0] and cells["elliptic"] == want[1], f"cells per torus {dict(cells)} != {want}")
    sr = dict(zip(("split", "elliptic"), strongly_regular_counts(kind, q)))
    for c in doc["cells"]:
        require(c["strongly_regular_points"] == sr[c["torus"]], f"{c['torus']} cell has {c['strongly_regular_points']} strongly regular points, want {sr[c['torus']]}")
        require(len(c["unipotent_classes"]) == unipotent_class_count(kind), "unipotent classes missing from a cell")
        require(c["pass"] is True, f"cell {c['torus']} {c['theta']} fails the trace identity")
    require(doc["pass"] is True, "springer document does not pass")


def parse_chartable(text, fmt):
    """(class sizes, degrees, rows of printed values) from CSV or JSON."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["class_sizes"], [r["degree"] for r in doc["rows"]], [r["values"] for r in doc["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    require(header[0] == "degree", "CSV header does not start with degree")
    sizes = []
    for ci, col in enumerate(header[1:]):
        m = _SIZE_RE.match(col)
        require(m and int(m.group(1)) == ci, f"bad CSV column {col!r}")
        sizes.append(int(m.group(2)))
    return sizes, [int(r[0]) for r in rows[1:]], [r[1:] for r in rows[1:]]


def check_chartable(text, fmt, kind, q):
    """Returns the rows as complex values, rounded for multiset comparison."""
    sizes, degrees, rows = parse_chartable(text, fmt)
    order = group_order(kind, q)
    require(Counter(sizes) == class_size_counts(kind, q), f"class sizes {sorted(sizes)} miss the closed form")
    require(sum(sizes) == order, "class sizes do not sum to the group order")
    require(Counter(degrees) == degree_counts(kind, q), f"degrees {sorted(degrees)} miss the closed form")
    require(len(rows) == len(sizes), "row count differs from the class count")
    vals = [[parse_value(v) for v in row] for row in rows]
    for deg, row in zip(degrees, vals):
        require(len(row) == len(sizes), "short row")
        require(abs(row[0] - deg) < 1e-9, "first column is not the degree")
    tol = 1e-6 * order
    for i, j in combinations(range(len(vals)), 2):
        ip = sum(s * a * b.conjugate() for s, a, b in zip(sizes, vals[i], vals[j]))
        require(abs(ip) < tol, f"rows {i} and {j} are not orthogonal")
    for i, row in enumerate(vals):
        ip = sum(s * abs(a) ** 2 for s, a in zip(sizes, row))
        require(abs(ip - order) < tol, f"row {i} does not have norm |G|")
    return Counter(tuple((round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0) for v in row) for row in vals)


def check_tables_agree(dixon_rows, classical_rows):
    require(dixon_rows == classical_rows, "Dixon and classical tables differ as multisets of rows")


# ---------------------------------------------------------------------------
# query-serve


def mat_mul_mod(a, b, m):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n)] for i in range(n)]


def check_topological_jordan(resp, p, k, gamma):
    mod = p**k
    n = len(gamma)
    g = [[x % mod for x in row] for row in gamma]
    delta, u = resp["delta"], resp["u"]
    require(mat_mul_mod(delta, u, mod) == g, "delta*u != gamma")
    require(mat_mul_mod(u, delta, mod) == g, "u*delta != gamma")
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    acc, r = delta, 1
    while acc != ident:
        acc = mat_mul_mod(acc, delta, mod)
        r += 1
        require(r <= p ** (n * n), "delta has no finite order at this precision")
    require(r % p != 0, f"order {r} of delta is divisible by p = {p}")


def check_hilbert(resp):
    symbols = resp["symbols"]
    require({"inf", "2"} <= set(symbols), "infinite or dyadic place missing")
    require(all(s in (1, -1) for s in symbols.values()), "symbol outside {+1, -1}")
    require(prod(symbols.values()) == 1, "product of Hilbert symbols is not 1")


def check_tn_pairing(resp, factors):
    require(resp["factors"] == list(factors), f"invariant factors {resp['factors']} != {list(factors)}")
    z = parse_value(resp["value"])
    n = lcm(1, *factors)
    require(abs(abs(z) - 1) < 1e-9, "pairing value is not on the unit circle")
    require(abs(z**n - 1) < 1e-6, f"pairing value is not an {n}-th root of unity")


def check_dl_value(resp, kind, q, tag):
    deg = parse_value(resp["degree"])
    want = q + 1 if tag == "split" else q - 1
    require(deg == want, f"degree {resp['degree']} on the {tag} torus != {want}")
    require(abs(parse_value(resp["value"])) <= want + 1e-9, "|chi(g)| exceeds chi(1)")


def check_cell_pass(resp, kind=None):
    require(resp["pass"] is True, "identity fails")
    if kind is not None:
        require(resp["cases"] == unipotent_class_count(kind), "unipotent classes missing")
