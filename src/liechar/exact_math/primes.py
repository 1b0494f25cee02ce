"""Primality and prime factors: an exact Miller-Rabin test and trial
division with a fixed bound, so no input makes either run long."""

from __future__ import annotations

from .refusal import over_budget

# Miller-Rabin with the first 13 prime bases is exact below PRIME_BOUND
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981
TRIAL_BOUND = 10**5  # prime_factors trial-divides by d < TRIAL_BOUND only


def is_prime(n):
    """Exact for n < PRIME_BOUND; a larger n without a small factor is
    refused, with the subject "primality"."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n >= PRIME_BOUND:
        undecided = "primality of {value} is decided only below {budget}"
        raise over_budget("primality", undecided, n, "PRIME_BOUND", PRIME_BOUND)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """The distinct primes dividing n, ascending; [] for n <= 1. Trial
    division stops at TRIAL_BOUND; what is left must then be prime, else
    ValueError."""
    out = []
    d = 2
    while d * d <= n:
        if d >= TRIAL_BOUND:
            if not is_prime(n):
                unfactored = "{value} has no prime factor below {budget} and is not prime"
                raise over_budget(None, unfactored, n, "TRIAL_BOUND", TRIAL_BOUND)
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
