"""The real Gauss sum, the squares-mod-n machinery, and the lemmas behind
the square and order counters, each checked against a literal sum."""

import cmath
import math

import pytest

from lincong import arith
from lincong.characters import (
    gauss_sum_real_prime_power,
    square_indicator,
    squares,
)

SQRT3 = math.sqrt(3)


def e(num, den):
    """e(num/den) = exp(2*pi*i*num/den)."""
    return cmath.exp(2j * cmath.pi * (num % den) / den)


def literal_gauss(n, p, m):
    """Sum of chi(x) e(m*x/n) over x in [1, n], chi the character mod n
    induced by the Legendre symbol mod p."""
    return sum(
        arith.jacobi_symbol(x, p) * e(m * x, n) for x in range(1, n + 1) if math.gcd(x, n) == 1
    )


def test_gauss_direct_examples():
    # principal character: the literal sum over the units is the Ramanujan sum
    for n in (4, 6, 9, 10):
        for m in range(n):
            units = sum(e(m * x, n) for x in range(1, n + 1) if math.gcd(x, n) == 1)
            assert abs(units - arith.ramanujan_sum(n, m)) < 1e-9
    assert abs(literal_gauss(3, 3, 1) - 1j * SQRT3) < 1e-12
    # non-principal character at m = 0: orthogonality
    for n, p in ((9, 3), (15, 3), (25, 5)):
        assert abs(literal_gauss(n, p, 0)) < 1e-9


def test_gauss_real_primitive():
    # Gauss's evaluation at a prime: tau = epsilon_p * sqrt(p), so tau^2 = (-1/p) * p
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        tau = gauss_sum_real_prime_power(p, 1, 1)
        assert abs(tau - literal_gauss(p, p, 1)) < 1e-9
        assert abs(tau * tau - arith.jacobi_symbol(-1, p) * p) < 1e-9


# conductor p | modulus, moduli up to 375
CLOSED_FORM_MODULI = [
    (3, 3), (9, 3), (27, 3), (81, 3), (243, 3),
    (5, 5), (25, 5), (125, 5), (375, 5), (375, 3),
    (7, 7), (49, 7), (343, 7),
    (15, 3), (15, 5), (45, 3), (45, 5), (135, 3), (135, 5),
    (21, 3), (21, 7), (63, 3), (63, 7), (105, 3), (105, 5), (105, 7),
    (35, 5), (35, 7), (175, 5), (175, 7),
]


@pytest.mark.parametrize("n,p", CLOSED_FORM_MODULI)
def test_gauss_closed_equals_direct(n, p):
    # CRT splits n = q*r with q = p^ell and p not dividing r: the Gauss sum of
    # the character mod n induced by (./p) is G_q(m*s) * C_r(m), s = r^-1 mod q
    ell = dict(arith.factorize(n).factors)[p]
    q, r = p**ell, n // p**ell
    s = pow(r, -1, q)
    for m in range(n):
        closed = gauss_sum_real_prime_power(p, ell, m * s) * arith.ramanujan_sum(r, m)
        assert abs(literal_gauss(n, p, m) - closed) < 1e-6, (n, p, m)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("ell", (1, 2, 3))
def test_gauss_prime_power_equals_direct(p, ell):
    for m in range(p**ell):
        direct = literal_gauss(p**ell, p, m)
        assert abs(direct - gauss_sum_real_prime_power(p, ell, m)) < 1e-6, (p, ell, m)


def test_gauss_closed_examples():
    # mod 9 it vanishes unless gcd(m, 9) = 3, and is then (u/3) * 3i*sqrt(3), u = m/3
    for m in range(9):
        expected = {3: 3j * SQRT3, 6: -3j * SQRT3}.get(m, 0)
        assert abs(gauss_sum_real_prime_power(3, 2, m) - expected) < 1e-12, m
    assert abs(gauss_sum_real_prime_power(3, 1, 2) + 1j * SQRT3) < 1e-12


def test_gauss_prime_power_examples():
    assert abs(gauss_sum_real_prime_power(3, 1, 1) - 1j * SQRT3) < 1e-12
    assert gauss_sum_real_prime_power(3, 2, 1) == 0
    assert abs(gauss_sum_real_prime_power(3, 2, 3) - 1j * 3 * SQRT3) < 1e-12


def test_square_indicator_examples():
    assert square_indicator(9, 7) == 1
    assert square_indicator(9, 3) == 0
    for n in (1, 2, 5, 8, 9, 12, 27):
        assert square_indicator(n, 0) == 1


def test_square_indicator_matches_scan():
    # odd n runs the criterion per prime power, even n the enumerated set
    for n in range(1, 400):
        scan = {y * y % n for y in range(n)}
        for b in range(n):
            assert square_indicator(n, b) == (1 if b in scan else 0)


def unit_squares(n):
    """q(n), the number of squares modulo n that are units."""
    return sum(1 for x in squares(n) if math.gcd(x, n) == 1)


def test_square_profile_examples():
    assert len(squares(3)) == 2
    assert squares(9) == (0, 1, 4, 7)
    assert len(squares(27)) == 11 == unit_squares(27) + len(squares(3))


def test_square_profile_multiplicative():
    for n1 in range(1, 51):
        for n2 in range(n1, 51):
            if math.gcd(n1, n2) != 1:
                continue
            assert len(squares(n1 * n2)) == len(squares(n1)) * len(squares(n2))
            assert unit_squares(n1 * n2) == unit_squares(n1) * unit_squares(n2)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_square_count_recursion(p):
    for r in range(3, 6):
        assert len(squares(p**r)) == unit_squares(p**r) + len(squares(p ** (r - 2)))


def square_decomposition(p, ell, m):
    """Both sides of the square-indicator decomposition modulo p^ell: the
    literal sum of e(x*m/p^ell) over the squares x, and
    1 + (1/2) * sum over even j < ell of (C_{p^(ell-j)}(m) + G_{p^(ell-j)}(m))."""
    mod = p**ell
    lhs = sum(e(x * m, mod) for x in squares(mod))
    rhs = 1 + sum(
        arith.ramanujan_sum(p ** (ell - j), m) + gauss_sum_real_prime_power(p, ell - j, m)
        for j in range(0, ell, 2)
    ) / 2
    return lhs, rhs


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("ell", (1, 2, 3))
def test_square_decomposition_identity(p, ell):
    for m in range(p**ell):
        lhs, rhs = square_decomposition(p, ell, m)
        assert abs(lhs - rhs) < 1e-6, (p, ell, m)


def test_square_decomposition_counting_case():
    lhs, rhs = square_decomposition(3, 1, 0)
    assert abs(lhs - 2) < 1e-9 and abs(rhs - 2) < 1e-9


def product_identity_gap(n, a, m):
    """Max coefficient gap between prod_{j=1..n} (1 - z e(j*a*m/n)) and
    (1 - z^(n/d))^d with d = gcd(a*m, n), both expanded to degree n."""
    lhs = [1] + [0] * n
    for j in range(1, n + 1):
        w = e(j * a * m, n)
        for t in range(j, 0, -1):
            lhs[t] -= w * lhs[t - 1]
    d = math.gcd(a * m, n)
    rhs = [0] * (n + 1)
    for i in range(d + 1):
        rhs[i * n // d] = (-1) ** i * math.comb(d, i)
    return max(abs(x - y) for x, y in zip(lhs, rhs))


def test_product_identity_examples():
    assert product_identity_gap(4, 1, 0) < 1e-12
    assert product_identity_gap(6, 2, 3) < 1e-6
    assert product_identity_gap(5, 1, 1) < 1e-6


def test_product_identity_grid():
    for n in range(1, 13):
        for a in range(n):
            for m in range(n):
                assert product_identity_gap(n, a, m) < 1e-6, (n, a, m)
