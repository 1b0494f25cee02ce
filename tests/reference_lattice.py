"""Integer kernels and integer solutions of an integer matrix, read off its
Smith normal form. The library needs neither; they build the kernel-of-norm
route to H^1 of a twisted torus in tests/test_galois_tori.py, the oracle
that the coinvariant route is checked against."""

from liechar.exact_math import IntMatrix, smith_normal_form


def kernel_basis(m: IntMatrix):
    """Basis of the integer kernel {x : m x = 0}, as a list of column tuples.
    The basis spans a saturated sublattice since V is unimodular."""
    r, c = m.shape
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(r, c)) if d.at(i, i) != 0)
    return [v.column(j) for j in range(rank, c)]


def solve_integer(m: IntMatrix, b):
    """One integer solution x of m x = b, or None if none exists."""
    r, c = m.shape
    u, d, v = smith_normal_form(m)
    w = u.apply(tuple(b))
    y = [0] * c
    for i in range(min(r, c)):
        di = d.at(i, i)
        if di != 0:
            if w[i] % di != 0:
                return None
            y[i] = w[i] // di
    for i in range(min(r, c), r):
        if w[i] != 0:
            return None
    # also: rows i < min(r,c) with d_i == 0 must have w_i == 0
    for i in range(min(r, c)):
        if d.at(i, i) == 0 and w[i] != 0:
            return None
    return v.apply(tuple(y))
