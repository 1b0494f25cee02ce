"""Unramified twisted tori: component groups, the Tate-Nakayama style
pairing, center-quotient character lattices, and the SL_n kappa subgroup.

A twisted torus is a cocharacter lattice Z^n with a finite-order unimodular
Frobenius matrix F. Everything downstream is Smith normal form arithmetic:
H^1 is the torsion of the F-coinvariants, pi0 of the dual fixed points is
the same group in its dual role, and the pairing is evaluation in
invariant-factor coordinates (the basis is the fixed SNF one; coordinates
are only meaningful relative to it).
"""

from __future__ import annotations

from math import gcd

from .exact_math import (
    Cyclotomic,
    FinAbGroup,
    IntMatrix,
    abelian_subgroup_type,
    cached,
    cokernel_group,
    kernel_basis,
    solve_integer,
)
from .root_datum import RootDatum

RANK_BUDGET = 8  # the rank cap of root data
ENTRY_BUDGET = 10**6
ORDER_BUDGET = 10**3


def _require_rank(rank):
    if rank > RANK_BUDGET:
        raise ValueError(f"lattice rank {rank} exceeds the budget {RANK_BUDGET}")


class TwistedTorus:
    """Lattice Z^rank with a finite-order unimodular Frobenius.

    Budgets bound the work before anything is computed: rank at most
    RANK_BUDGET, every entry of F at most ENTRY_BUDGET in absolute value
    (checked before the determinant), and at most ORDER_BUDGET powers in
    the order search. The search also stops at the first power with
    |tr F^k| > rank: a finite-order integer matrix has only roots of unity
    as eigenvalues, so every trace of its powers is at most the rank.

    A torus is immutable once built. Its pairing data (H^1, pi0 and the
    Smith form behind them) is cached in `derived` (see `exact_math.cached`)."""

    def __init__(self, rank, frobenius: IntMatrix):
        self.rank = int(rank)
        _require_rank(self.rank)
        r, c = frobenius.shape
        if r != self.rank or c != self.rank:
            raise ValueError("frobenius must be square of the lattice rank")
        if any(abs(x) > ENTRY_BUDGET for row in frobenius.rows for x in row):
            raise ValueError(f"frobenius entry exceeds the budget {ENTRY_BUDGET} in absolute value")
        if abs(frobenius.det()) != 1:
            raise ValueError("frobenius must be unimodular")
        self.frobenius = frobenius
        self.order = self._find_order()
        self.derived = {}

    def _find_order(self):
        ident = IntMatrix.identity(self.rank)
        p = self.frobenius
        for m in range(1, ORDER_BUDGET + 1):
            if p == ident:
                return m
            if abs(sum(p.at(i, i) for i in range(self.rank))) > self.rank:
                raise ValueError(
                    f"frobenius has infinite order: |tr F^{m}| exceeds the rank {self.rank}"
                )
            p = p * self.frobenius
        raise ValueError(f"frobenius order exceeds the budget {ORDER_BUDGET}")


class TNPairingData:
    """H^1 and pi0 of a twisted torus with their evaluation pairing.

    h1 and pi0 are abstractly the same invariant-factor group; h1 elements
    are classes of cocharacters (coordinates via the SNF row transform),
    pi0 elements are characters of that torsion group (dual coordinates).
    """

    def __init__(self, torus: TwistedTorus):
        self.torus = torus
        m = torus.frobenius - IntMatrix.identity(torus.rank)
        self.presentation = cokernel_group(m)
        factors = self.presentation.group.torsion
        self.invariant_factors = factors
        self.h1 = FinAbGroup(torsion=factors)
        self.pi0 = FinAbGroup(torsion=factors)

    def cochar_class(self, v):
        """h1 coordinates of an integer cocharacter vector."""
        return self.presentation.torsion_coords(v)

    def pairing(self, inv, kappa) -> Cyclotomic:
        d = self.invariant_factors
        if len(inv) != len(d) or len(kappa) != len(d):
            raise ValueError("coordinate length mismatch")
        for x, di in zip(inv, d):
            if not 0 <= x < di:
                raise ValueError(f"h1 coordinate {x} out of range for Z/{di}")
        for x, di in zip(kappa, d):
            if not 0 <= x < di:
                raise ValueError(f"pi0 coordinate {x} out of range for Z/{di}")
        out = Cyclotomic.rational(1)
        for a, k, di in zip(inv, kappa, d):
            out = out * Cyclotomic.zeta(di, a * k)
        return out


def component_group_pi0(torus: TwistedTorus) -> TNPairingData:
    """Torsion of the Frobenius coinvariants, with its dual pi0 and pairing;
    the same object on every call with one torus."""
    return cached(torus, "pi0", TNPairingData)


def tn_pairing(data: TNPairingData, inv, kappa) -> Cyclotomic:
    """Root of unity pairing an H^1 class against a pi0 character."""
    return data.pairing(inv, kappa)


# ---------------------------------------------------------------------------
# center-quotient character lattices


class CenterQuotientLattices:
    """The three character lattices of T, T^2/Z(G), T/Z(G) with the maps
    dual to t -> [t, t^-1] and the diagonal.

    mid_basis: columns = a basis of {(chi1, chi2) : chi1 + chi2 in the root
    lattice} inside X^2. mu: X -> middle (in mid_basis coordinates), dual to
    [t1, t2] -> t1/t2. nu: middle -> root-lattice coordinates, dual to the
    diagonal embedding.
    """

    def __init__(self, rank, center, mid_basis, mu, nu, root_basis):
        self.rank = rank
        self.center = center
        self.mid_basis = mid_basis
        self.mu = mu
        self.nu = nu
        self.root_basis = root_basis

    def middle_contains(self, chi1, chi2):
        v = tuple(chi1) + tuple(chi2)
        return solve_integer(self.mid_basis, v) is not None

    def mu_ambient(self, chi):
        """mu(chi) written back in X^2 coordinates: must be (chi, -chi)."""
        coords = self.mu.apply(tuple(chi))
        return self.mid_basis.apply(coords)


def center_quotient_lattices(g: RootDatum) -> CenterQuotientLattices:
    """Exact lattice model of the sequence dual to
    1 -> T/Z -> T^2/Z -> T -> 1 (quotients by the diagonal center)."""
    if not g.is_semisimple():
        raise ValueError("semisimple datum required")
    r = g.rank
    root_cols = IntMatrix.from_columns([list(a) for a in g.simple_roots])
    center = cokernel_group(root_cols).group
    if center.free_rank:
        raise AssertionError("semisimple datum with infinite center quotient")

    # middle lattice: kernel of X^2 -> X/Q, computed as the projection of
    # ker[I I | -R] onto the X^2 block
    rows = []
    for i in range(r):
        row = [1 if j == i else 0 for j in range(r)]
        row += [1 if j == i else 0 for j in range(r)]
        row += [-root_cols.at(i, j) for j in range(r)]
        rows.append(row)
    big = IntMatrix(rows)
    ker = kernel_basis(big)
    cols = [[k[i] for i in range(2 * r)] for k in ker]
    if len(cols) != 2 * r:
        raise AssertionError("middle lattice has unexpected rank")
    mid_basis = IntMatrix.from_columns(cols)

    # mu: chi -> (chi, -chi), coordinates in the middle basis
    mu_cols = []
    for i in range(r):
        chi = [1 if j == i else 0 for j in range(r)]
        target = tuple(chi) + tuple(-x for x in chi)
        sol = solve_integer(mid_basis, target)
        if sol is None:
            raise AssertionError("(chi, -chi) missing from the middle lattice")
        mu_cols.append(list(sol))
    mu = IntMatrix.from_columns(mu_cols)

    # nu: (chi1, chi2) -> chi1 + chi2 in root-lattice coordinates
    nu_cols = []
    for j in range(2 * r):
        w = mid_basis.column(j)
        s = tuple(w[i] + w[r + i] for i in range(r))
        sol = solve_integer(root_cols, s)
        if sol is None:
            raise AssertionError("middle lattice sum leaves the root lattice")
        nu_cols.append(list(sol))
    nu = IntMatrix.from_columns(nu_cols)

    # exactness: nu o mu = 0 and ker(nu) = im(mu)
    comp = nu * mu
    if any(comp.at(i, j) != 0 for i in range(r) for j in range(r)):
        raise AssertionError("nu o mu is not zero")
    if kernel_basis(mu):
        raise AssertionError("mu is not injective")
    ker_nu = kernel_basis(nu)
    if len(ker_nu) != r:
        raise AssertionError("ker(nu) has unexpected rank")
    for k in ker_nu:
        if solve_integer(mu, k) is None:
            raise AssertionError("ker(nu) escapes im(mu)")
    for j in range(r):
        e = tuple(1 if i == j else 0 for i in range(r))
        if solve_integer(nu, e) is None:
            raise AssertionError("nu is not onto the root lattice")
    return CenterQuotientLattices(r, center, mid_basis, mu, nu, root_cols)


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
    # F b_k = e_{sigma(k)} - e_{sigma(k+1)}; expand in the b-basis:
    # e_a - e_b = sum of b_j over [min, max) with sign
    def diff_coords(a, b):
        out = [0] * (n - 1)
        if a == b:
            return out
        lo, hi, s = (a, b, 1) if a < b else (b, a, -1)
        for j in range(lo, hi):
            out[j] = s
        return out

    cols = [diff_coords(sigma[k], sigma[k + 1]) for k in range(n - 1)]
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
        raise ValueError("need m | n with n, m >= 1")
    degrees = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    if sum(degrees) != n // m:
        raise ValueError("degrees must sum to n/m")
    if len(degrees) > 8:
        raise ValueError("at most 8 blocks")
    if m ** len(degrees) > 10**5:
        raise ValueError("twist enumeration too large")

    if m == 1:
        return FinAbGroup(), [((0,) * len(degrees), ())]
    _require_rank(n - 1)  # before the (n - 1)^2 Frobenius is written down

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

    twists = [()]
    for _ in range(l):
        twists = [t + (ti,) for t in twists for ti in range(m)]

    xi = data.cochar_class([1 if k == 0 else 0 for k in range(n - 1)])
    witnesses = []
    classes = []
    for t in twists:
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
