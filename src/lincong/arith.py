"""Exact elementary number theory: factorization, multiplicative functions,
Jacobi symbols, Ramanujan sums and roots of unity.

Everything here is a pure function of its arguments.  Values are exact
integers, except the roots of unity e(x) = exp(2*pi*i*x), which are complex
doubles.  Only the square counter and the mixed-gcd block counter add them
up; ``round_complex_to_int`` turns such a sum back into an integer under the
1e-6 relative tolerance model.ROUND_TOL.  Ramanujan sums come from Hoelder's
closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConsistencyError, DomainError
from .model import ROUND_TOL, FrozenValue

# Entries each cache below keeps: a benchmark round or a default verify grid
# needs at most about 1100, and a long sweep of moduli holds no more than this.
CACHE_SIZE = 4096


def is_prime(n: int) -> bool:
    """Primality by trial division; fine at desk scale (n up to ~10**12)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Factorization(FrozenValue):
    """A positive integer with its prime-power decomposition.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; their product reproduces ``n``.  factorize(1) carries
    the empty product.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]):
        if n < 1:
            raise DomainError(f"factorization requires n >= 1, got {n}")
        prod = 1
        prev = 1
        for p, e in factors:
            if p <= prev or e < 1 or not is_prime(p):
                raise DomainError(f"bad factor ({p}, {e}) in factorization of {n}")
            prev = p
            prod *= p**e
        if prod != n:
            raise DomainError(f"factors of {n} multiply to {prod}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)


@lru_cache(maxsize=CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Prime factorization by trial division; factorize(1) has no factors."""
    if n < 1:
        raise DomainError(f"cannot factor n = {n}")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _as_factorization(f: Factorization | int) -> Factorization:
    return f if isinstance(f, Factorization) else factorize(f)


@lru_cache(maxsize=CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, in increasing order."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def euler_phi(f: Factorization | int) -> int:
    """Euler's totient: the number of units modulo n."""
    fac = _as_factorization(f)
    out = 1
    for p, e in fac.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def moebius(f: Factorization | int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fac = _as_factorization(f)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, via quadratic reciprocity.

    For prime n this is the Legendre symbol: 1 for nonzero squares mod n,
    -1 for nonsquares, 0 when n divides a.
    """
    if n < 1 or n % 2 == 0:
        raise DomainError(f"Jacobi symbol needs odd n >= 1, got {n}")
    if n == 1:
        return 1
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def epsilon(n: int) -> complex:
    """Sign of the real Gauss sum: 1 for n = 1 (mod 4), i for n = 3 (mod 4)."""
    if n % 2 == 0:
        raise DomainError(f"epsilon is defined for odd n only, got {n}")
    return (1 + 0j) if n % 4 == 1 else 1j


def root_of_unity(num: int, den: int) -> complex:
    """e(num/den) = exp(2*pi*i*num/den), computed from the reduced angle."""
    if den < 1:
        raise DomainError(f"root_of_unity needs den >= 1, got {den}")
    r = num % den
    theta = math.tau * r / den
    return complex(math.cos(theta), math.sin(theta))


def round_complex_to_int(z: complex) -> tuple[int, float]:
    """Round a complex value that should be an exact integer.

    Returns (integer, relative residual).  The residual compares both the
    imaginary part and the distance to the nearest integer against
    max(1, |Re z|); at or above ROUND_TOL, the bound CountResult puts on a
    residual, a ConsistencyError is raised.
    """
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConsistencyError(f"non-finite value {z!r}")
    n = round(z.real)
    resid = max(abs(z.imag), abs(z.real - n)) / max(1.0, abs(z.real))
    if resid >= ROUND_TOL:
        raise ConsistencyError(f"{z!r} is not an integer (residual {resid:.3g})")
    return n, resid


@lru_cache(maxsize=CACHE_SIZE)
def _ramanujan_of_gcd(n: int, g: int) -> int:
    # Hoelder's closed form with g = gcd(b, n) already taken.
    m = n // g
    mu = moebius(m)
    if mu == 0:
        return 0
    return euler_phi(n) // euler_phi(m) * mu


def ramanujan_sum(n: int, b: int) -> int:
    """C_n(b) via Hoelder's closed form phi(n)/phi(n/g) * mu(n/g), g = gcd(b, n)."""
    if n < 1:
        raise DomainError(f"ramanujan_sum needs n >= 1, got {n}")
    return _ramanujan_of_gcd(n, math.gcd(b, n))
