"""Unramified twisted tori: component groups, the Tate-Nakayama style
pairing, and the SL_n kappa subgroup.

A twisted torus is a cocharacter lattice Z^n with a finite-order unimodular
Frobenius matrix F. Everything downstream is Smith normal form arithmetic:
H^1 is the torsion of the F-coinvariants, pi0 of the dual fixed points is
the same group in its dual role, and the pairing is evaluation in
invariant-factor coordinates (the basis is the fixed SNF one; coordinates
are only meaningful relative to it).
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm

from .exact_math import (
    Cyclotomic, FinAbGroup, IntMatrix, Refusal, abelian_subgroup_type, cached, cokernel_group, over_budget,
)
from .root_datum import RANK_BUDGET

ENTRY_BUDGET = 10**6
BLOCK_BUDGET = 8  # most blocks of SL_n kappa data
TWIST_BUDGET = 10**5  # most twists m^l an SL_n kappa group enumerates
# powers of a Frobenius its order search may take; the order searches of
# exact_math.orders have their own ORDER_BUDGET
FROBENIUS_ORDER_BUDGET = 10**3


class TwistedTorus:
    """Lattice Z^rank with a finite-order unimodular Frobenius.

    Budgets bound the work before anything is computed: rank at most
    RANK_BUDGET, every entry of F at most ENTRY_BUDGET in absolute value
    (checked before the determinant), and at most FROBENIUS_ORDER_BUDGET
    powers in the order search. The search also stops at the first power
    with |tr F^k| > rank: a finite-order integer matrix has only roots of
    unity as eigenvalues, so every trace of its powers is at most the rank.

    A torus is immutable once built. Its pairing data (H^1, pi0 and the
    Smith form behind them) is cached in `derived` (see `exact_math.cached`)."""

    def __init__(self, rank, frobenius: IntMatrix):
        if type(rank) is not int:
            raise Refusal("frobenius", f"frobenius rank {rank!r} is not an int")
        self.rank = rank
        if rank > RANK_BUDGET:
            raise over_budget("frobenius", "frobenius rank", self.rank, "RANK_BUDGET", RANK_BUDGET)
        r, c = frobenius.shape
        if r != self.rank or c != self.rank:
            raise Refusal("frobenius", "frobenius must be square of the lattice rank")
        if any(abs(x) > ENTRY_BUDGET for row in frobenius.rows for x in row):
            entry = "frobenius entry exceeds the budget {budget} in absolute value"
            raise over_budget("frobenius", entry, None, "ENTRY_BUDGET", ENTRY_BUDGET)
        if abs(frobenius.det()) != 1:
            raise Refusal("frobenius", "frobenius must be unimodular")
        self.frobenius = frobenius
        self.order = self._find_order()
        self.derived = {}

    def _find_order(self):
        ident = IntMatrix.identity(self.rank)
        p = self.frobenius
        for m in range(1, FROBENIUS_ORDER_BUDGET + 1):
            if p == ident:
                return m
            if abs(sum(p.at(i, i) for i in range(self.rank))) > self.rank:
                infinite = f"frobenius has infinite order: |tr F^{m}| exceeds the rank {self.rank}"
                raise Refusal("frobenius", infinite)
            p = p * self.frobenius
        raise over_budget("frobenius", "frobenius order", None, "FROBENIUS_ORDER_BUDGET", FROBENIUS_ORDER_BUDGET)


class TNPairingData:
    """H^1 and pi0 of a twisted torus with their evaluation pairing.

    h1 and pi0 are abstractly the same invariant-factor group, so only h1 is
    kept; h1 elements are classes of cocharacters (coordinates via the SNF
    row transform), pi0 elements are characters of that torsion group (dual
    coordinates over the same invariant factors).
    """

    def __init__(self, torus: TwistedTorus):
        self.torus = torus
        m = torus.frobenius - IntMatrix.identity(torus.rank)
        self.presentation = cokernel_group(m)
        factors = self.presentation.group.torsion
        self.invariant_factors = factors
        self.h1 = FinAbGroup(torsion=factors)

    def cochar_class(self, v):
        """h1 coordinates of an integer cocharacter vector."""
        return self.presentation.torsion_coords(v)

    def pairing(self, inv, kappa) -> Cyclotomic:
        d = self.invariant_factors
        for group, coords in (("h1", inv), ("pi0", kappa)):
            if len(coords) != len(d):
                raise Refusal(group, f"{group} coordinate length mismatch: {len(coords)} for {len(d)} factors")
            for x, di in zip(coords, d):
                if not 0 <= x < di:
                    raise Refusal(group, f"{group} coordinate {x} out of range for Z/{di}")
        # each d_i divides n = d_k, so the product of the zeta_(d_i)^(a_i k_i)
        # is one root of unity; lcm() = 1 when there are no factors
        n = lcm(*d)
        return Cyclotomic.zeta(n, sum(a * k * (n // di) for a, k, di in zip(inv, kappa, d)))


def component_group_pi0(torus: TwistedTorus) -> TNPairingData:
    """Torsion of the Frobenius coinvariants, with its dual pi0 and pairing;
    the same object on every call with one torus."""
    return cached(torus, "pi0", TNPairingData)


def tn_pairing(data: TNPairingData, inv, kappa) -> Cyclotomic:
    """Root of unity pairing an H^1 class against a pi0 character."""
    return data.pairing(inv, kappa)


# ---------------------------------------------------------------------------
# the SL_n kappa subgroup


def _block_frobenius_on_sum_zero(n, block_sizes):
    """Matrix of the block-cyclic shift restricted to the sum-zero lattice
    with basis b_k = e_k - e_{k+1}, k = 1..n-1."""
    # F e_j = e_{sigma(j)} with sigma cycling each block
    sigma = []
    off = 0
    for d in block_sizes:
        for j in range(d):
            sigma.append(off + (j + 1) % d)
        off += d
    # F b_k = e_{sigma(k)} - e_{sigma(k+1)}, and e_a - e_b is the sum of b_j
    # over a <= j < b, minus that over b <= j < a
    cols = [[(j >= a) - (j >= b) for j in range(n - 1)] for a, b in zip(sigma, sigma[1:])]
    return IntMatrix.from_columns(cols)


def sln_kappa_group(n, m, degrees):
    """The subgroup of kappa-classes for SL_n twisted data: blocks of size
    m*deg_i, classes of the block-local difference cocharacters
    t_i * deg_i * (e_{o_i} - e_{o_i+1}) over all twists t in (Z/m)^l.

    Returns (group, witnesses) where witnesses is a list of
    (t_tuple, class_coordinates) and group is the abstract type of the
    witness class set. The set is verified to be closed under the group law.
    """
    if n < 1 or m < 1 or n % m:
        raise Refusal("n", "n must be a multiple of m, with n, m >= 1")
    degrees = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degrees):
        raise Refusal("degrees", "degrees must be positive")
    if sum(degrees) != n // m:
        raise Refusal("degrees", "degrees must sum to n/m")
    if len(degrees) > BLOCK_BUDGET:
        raise over_budget("degrees", "degrees block count", len(degrees), "BLOCK_BUDGET", BLOCK_BUDGET)
    if m ** len(degrees) > TWIST_BUDGET:
        twists = f"twist enumeration {{value}}^{len(degrees)} exceeds the budget {{budget}}"
        raise over_budget("twist", twists, m, "TWIST_BUDGET", TWIST_BUDGET)

    if m == 1:
        return FinAbGroup(), [((0,) * len(degrees), ())]
    # before the (n - 1)^2 Frobenius is written down
    if n - 1 > RANK_BUDGET:
        rank = "rank {value} exceeds the budget {budget}: SL_n's torus has rank n - 1"
        raise over_budget("rank", rank, n - 1, "RANK_BUDGET", RANK_BUDGET)

    block_sizes = [m * d for d in degrees]
    f = _block_frobenius_on_sum_zero(n, block_sizes)
    torus = TwistedTorus(n - 1, f)
    data = component_group_pi0(torus)

    # block-local difference vector in the b-basis: e_o - e_{o+1} = b_o
    offsets = []
    off = 0
    for d in block_sizes:
        offsets.append(off)
        off += d

    l = len(degrees)
    g0 = gcd(*degrees) if l > 1 else degrees[0]
    mg = m * g0

    def class_of_twist(t):
        v = [0] * (n - 1)
        for i, ti in enumerate(t):
            v[offsets[i]] += ti * degrees[i]
        if any(data.presentation.free_coords(v)):
            raise AssertionError("twist class is not torsion")
        return data.cochar_class(v)

    # well-definedness mod m per block
    for i in range(l):
        v = [0] * (n - 1)
        v[offsets[i]] = m * degrees[i]
        if any(data.presentation.class_of(v)):
            raise AssertionError("twist class not well-defined mod m")

    xi = data.cochar_class([1 if k == 0 else 0 for k in range(n - 1)])
    witnesses = []
    classes = []
    for t in product(range(m), repeat=l):  # lexicographic order
        cls = class_of_twist(t)
        s = sum(ti * di for ti, di in zip(t, degrees)) % mg
        expected = data.h1.scale(s, xi)
        if cls != expected:
            raise AssertionError("class formula mismatch")
        witnesses.append((t, cls))
        classes.append(cls)

    class_set = set(classes)
    grp = data.h1
    for a in class_set:
        if grp.neg(a) not in class_set:
            raise AssertionError("witness set not closed under inverse")
        for b in class_set:
            if grp.add(a, b) not in class_set:
                raise AssertionError("witness set not closed under product")

    sub = abelian_subgroup_type(class_set, grp.add, grp.zero())
    return sub, witnesses
