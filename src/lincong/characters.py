"""The real Gauss sum modulo p^ell and the squares modulo n (indicators,
profiles and square roots).

The square counter needs one character: the real character modulo p^ell
induced by the Legendre symbol of an odd prime p.  Its Gauss sum has the
closed form below, and with the Ramanujan sums of arith it gives the
transform of the square indicator modulo p^ell.  The test suite checks the
closed form, that decomposition and the other lemmas against literal sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _hensel_lift_sqrt(w: int, u: int, p: int, ell: int) -> int:
    """Lift w with w^2 = u (mod p) to a root mod p^ell (p odd, u a unit)."""
    mod = p
    for _ in range(ell - 1):
        nxt = mod * p
        rem = (w * w - u) % nxt
        # w' = w + t*mod with t = -(rem/mod) / (2w) mod p keeps w'^2 = u.
        t = (-(rem // mod) * pow(2 * w, -1, p)) % p
        w += t * mod
        mod = nxt
    return w % mod


def sqrt_mod_prime_power(a: int, p: int, ell: int) -> frozenset[int]:
    """All y in [0, p^ell) with y^2 = a (mod p^ell), p an odd prime.

    Unit a: solve mod p by scanning, then Hensel-lift.  Non-unit a = p^(2v)*u:
    roots exist iff the valuation is even and u is a residue; the root set is
    {p^v*w + t*p^(ell-v)} over the two lifts w and t in [0, p^v).  a = 0 has
    the p^floor(ell/2) roots divisible by p^ceil(ell/2).
    """
    if p % 2 == 0 or not arith.is_prime(p):
        raise DomainError(f"odd prime required, got {p}")
    if ell < 1:
        raise DomainError(f"exponent must be >= 1, got {ell}")
    mod = p**ell
    a %= mod
    if a == 0:
        half = p ** ((ell + 1) // 2)
        return frozenset(range(0, mod, half))
    v = 0
    u = a
    while u % p == 0:
        u //= p
        v += 1
    if v % 2:
        return frozenset()
    if arith.jacobi_symbol(u % p, p) != 1:
        return frozenset()
    w0 = next(w for w in range(p) if (w * w - u) % p == 0)
    red = ell - v
    w0 = _hensel_lift_sqrt(w0, u, p, red)
    pv = p ** (v // 2)
    stride = p ** (ell - v // 2)
    roots = set()
    for w in (w0, p**red - w0):
        for y in range(pv * w, mod, stride):
            roots.add(y)
    return frozenset(roots)


@lru_cache(maxsize=None)
def square_indicator(n: int, b: int) -> int:
    """1 if b is a square modulo n (not necessarily a unit), else 0.

    Odd n: a residue is a square iff it is one modulo every prime power of n.
    Even n: exhaustive scan (the prime-power machinery here is odd-only).
    """
    if n < 1:
        raise DomainError(f"square_indicator needs n >= 1, got {n}")
    b %= n
    if n == 1:
        return 1
    if n % 2 == 0:
        return 1 if b in square_profile(n).square_set else 0
    for p, e in arith.factorize(n).factors:
        if not sqrt_mod_prime_power(b, p, e):
            return 0
    return 1


@dataclass(frozen=True)
class SquareProfile:
    """The squares modulo n: the set itself, its size s, and the number q of
    quadratic residues (unit squares)."""

    n: int
    square_set: frozenset[int]
    s: int
    q: int


@lru_cache(maxsize=None)
def square_profile(n: int) -> SquareProfile:
    """Enumerate x^2 mod n over a full residue system and tally s and q."""
    if n < 1:
        raise DomainError(f"square_profile needs n >= 1, got {n}")
    sq = frozenset(x * x % n for x in range(n))
    q = sum(1 for x in sq if math.gcd(x, n) == 1)
    return SquareProfile(n, sq, len(sq), q)
