"""Reference counts computed apart from lincong.

Nothing here imports lincong.  Every count is either an exact dynamic
programme over residues mod n, or an inversion over partitions that needs
only the unrestricted count of a linear congruence (g * n^(r-1) when
g = gcd(n, c_1, ..., c_r) divides b, else 0).  The Ramanujan sum uses the
divisor form C_n(b) = sum over d | gcd(n, b) of mu(n/d) * d, not Hoelder's
form.  test_perfbench.py checks each of them against itertools brute force.
"""

from __future__ import annotations

import math
from functools import lru_cache


# ----------------------------------------------------------------------
# Elementary helpers (trial division; the moduli here stay below 10**10).


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors_of(n: int) -> list[int]:
    divs = [1]
    for p, e in prime_factors(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    fac = prime_factors(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    out = 1
    for p, e in prime_factors(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def ramanujan(n: int, b: int) -> int:
    """C_n(b) = sum over d | gcd(n, b) of mu(n/d) * d."""
    return sum(mobius(n // d) * d for d in divisors_of(math.gcd(n, b)))


# ----------------------------------------------------------------------
# Histograms: index b holds the count for target b.


def convolve(h: list[int], g: list[int]) -> list[int]:
    n = len(h)
    out = [0] * n
    for r, c in enumerate(h):
        if c:
            for t, d in enumerate(g):
                if d:
                    out[(r + t) % n] += c * d
    return out


def _slot_hist(n: int, domain, a: int) -> list[int]:
    vec = [0] * n
    for x in domain:
        vec[a * x % n] += 1
    return vec


def _product_hist(n: int, coeffs, domain) -> list[int]:
    acc = [0] * n
    acc[0] = 1
    for a in coeffs:
        acc = convolve(acc, _slot_hist(n, domain, a))
    return acc


def square_set(n: int) -> list[int]:
    return sorted({x * x % n for x in range(n)})


def all_hist(n: int, coeffs) -> list[int]:
    """Every tuple in Z_n^k."""
    return _product_hist(n, coeffs, range(n))


def square_hist(n: int, coeffs) -> list[int]:
    """Every coordinate a square mod n: cyclic convolution over {x^2 mod n}."""
    return _product_hist(n, coeffs, square_set(n))


def multiset_hist(n: int, size: int) -> list[int]:
    """Weakly decreasing tuples of length ``size`` over [0, n), by the sum of
    their entries mod n: a DP over the values, each taken any number of
    times."""
    dp = [[0] * n for _ in range(size + 1)]
    dp[0][0] = 1
    for v in range(n):
        for j in range(1, size + 1):
            lower, row = dp[j - 1], dp[j]
            for s in range(n):
                if lower[s]:
                    row[(s + v) % n] += lower[s]
    return dp[size]


def blocks_hist(n: int, blocks) -> list[int]:
    """Weakly decreasing inside each (size, coeff) block: one multiset DP per
    block, scaled by its coefficient, then convolution across blocks."""
    acc = [0] * n
    acc[0] = 1
    for size, a in blocks:
        per = multiset_hist(n, size)
        scaled = [0] * n
        for s, c in enumerate(per):
            scaled[a * s % n] += c
        acc = convolve(acc, scaled)
    return acc


def strict_hist(n: int, coeffs) -> list[int]:
    """x_1 > x_2 > ... > x_k on [0, n): walk the values upwards and either
    skip each one or give it to the next slot from the right."""
    k = len(coeffs)
    dp = [[0] * n for _ in range(k + 1)]
    dp[0][0] = 1
    for v in range(n):
        for j in range(min(k, v + 1), 0, -1):
            a = coeffs[k - j]
            lower, row = dp[j - 1], dp[j]
            step = a * v % n
            for s in range(n):
                if lower[s]:
                    row[(s + step) % n] += lower[s]
    return dp[k]


def set_partitions(items: list):
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _mu_partition(blocks) -> int:
    out = 1
    for blk in blocks:
        out *= (-1) ** (len(blk) - 1) * math.factorial(len(blk) - 1)
    return out


def distinct_hist(n: int, coeffs) -> list[int]:
    """Pairwise distinct coordinates, by Moebius inversion over set
    partitions of the positions: merged blocks take the summed coefficient
    and each partition contributes its unrestricted histogram."""
    k = len(coeffs)
    out = [0] * n
    for part in set_partitions(list(range(k))):
        merged = [sum(coeffs[i] for i in blk) for blk in part]
        mu = _mu_partition(part)
        for b, c in enumerate(all_hist(n, merged)):
            out[b] += mu * c
    return out


# ----------------------------------------------------------------------
# Large moduli: the same inversion, with the unrestricted count in closed
# form, grouped by g so that every target costs one pass over divisors.


def _weights_by_gcd(n: int, terms) -> dict[int, int]:
    """Sum of mu * g * n^(r-1) over (mu, merged coefficients) by g."""
    weights: dict[int, int] = {}
    for mu, merged in terms:
        g = math.gcd(n, *merged)
        weights[g] = weights.get(g, 0) + mu * g * n ** (len(merged) - 1)
    return weights


def _apply(weights: dict[int, int], b: int) -> int:
    return sum(w for g, w in weights.items() if b % g == 0)


def integer_partitions(k: int, largest: int | None = None):
    if largest is None:
        largest = k
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in integer_partitions(k - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _equal_coeff_weights(n: int, k: int, a: int) -> tuple[tuple[int, int], ...]:
    # Set partitions of k positions grouped by their block sizes lambda:
    # k! / (prod lambda_i! * prod m_j!) of them, each with
    # mu = prod (-1)^(lambda_i - 1) (lambda_i - 1)!.
    fk = math.factorial(k)
    terms = []
    for lam in integer_partitions(k):
        mult = math.prod(math.factorial(lam.count(size)) for size in set(lam))
        sign = -1 if (k - len(lam)) % 2 else 1
        terms.append((sign * (fk // (math.prod(lam) * mult)), [a * size for size in lam]))
    return tuple(sorted(_weights_by_gcd(n, terms).items()))


def distinct_equal_count(n: int, k: int, a: int, b: int) -> int:
    """Tuples of k pairwise distinct residues with a*(x_1+...+x_k) = b."""
    return _apply(dict(_equal_coeff_weights(n, k, a)), b % n)


def strict_equal_count(n: int, k: int, a: int, b: int) -> int:
    """k-subsets of Z_n whose sum s has a*s = b: the distinct count / k!."""
    value, rem = divmod(distinct_equal_count(n, k, a, b), math.factorial(k))
    if rem:
        raise ArithmeticError(f"distinct count not divisible by {k}! at n={n}")
    return value


@lru_cache(maxsize=None)
def _general_weights(n: int, coeffs: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    terms = (
        (_mu_partition(part), [sum(coeffs[i] for i in blk) for blk in part])
        for part in set_partitions(list(range(len(coeffs))))
    )
    return tuple(sorted(_weights_by_gcd(n, terms).items()))


def distinct_count(n: int, coeffs, b: int) -> int:
    """Pairwise distinct coordinates, any coefficients, any n (k up to ~9)."""
    return _apply(dict(_general_weights(n, tuple(coeffs))), b % n)
