"""The real Gauss sum modulo p^ell and the squares modulo n (membership,
and all of them in increasing order).

The square counter needs one character: the real character modulo p^ell
induced by the Legendre symbol of an odd prime p.  Its Gauss sum has the
closed form below, and with the Ramanujan sums of arith it gives the
transform of the square indicator modulo p^ell.  The test suite checks the
closed form, that decomposition and the other lemmas against literal sums.
"""

from __future__ import annotations

import math

from . import arith
from .errors import DomainError


def gauss_sum_real_prime_power(p: int, ell: int, m: int) -> complex:
    """Gauss sum of the real character mod p^ell induced by (./p).

    Nonzero exactly when gcd(m, p^ell) = p^(ell-1), where it equals
    epsilon_p * (u/p) * p^(ell - 1/2) with u = m / p^(ell-1).
    """
    mod = p**ell
    mm = m % mod
    g = math.gcd(mm, mod)
    if g != p ** (ell - 1):
        return 0j
    u = mm // g
    sym = arith.jacobi_symbol(u % p, p)
    return arith.epsilon(p) * sym * p ** (ell - 1) * math.sqrt(p)


def square_indicator(n: int, b: int) -> int:
    """1 if b is a square modulo n (not necessarily a unit), else 0.

    b is a square iff it is one modulo every p^e exactly dividing n, that is
    iff p^e | b, or b = p^v*u with v < e even and u a unit square modulo
    p^(e-v): (u/p) = 1 for odd p, u = 1 (mod 2^min(3, e-v)) for p = 2.
    """
    if n < 1:
        raise DomainError(f"square_indicator needs n >= 1, got {n}")
    for p, e in arith.factorize(n).factors:
        u, v = b % p**e, 0
        while v < e and u % p == 0:
            u, v = u // p, v + 1
        if v == e:
            continue
        if v % 2:
            return 0
        if p == 2 and u % 2 ** min(3, e - v) != 1:
            return 0
        if p > 2 and arith.jacobi_symbol(u % p, p) != 1:
            return 0
    return 1


def squares(n: int) -> tuple[int, ...]:
    """The squares modulo n (not necessarily units), in increasing order."""
    if n < 1:
        raise DomainError(f"squares needs n >= 1, got {n}")
    return tuple(sorted({x * x % n for x in range(n)}))
